"""The paper's verification conditions (8)-(10), stated once.

Zhu et al. accept a program with invariant ``φ = {E ≤ 0}`` when (9)
``E(s) ≤ 0`` on every initial state, (8) ``E(s) > 0`` on every unsafe state,
and (10) ``φ`` is inductive: from every state of ``{E ≤ 0}`` inside the safe
box the closed-loop successor satisfies ``E(s') ≤ 0`` and stays inside the
working domain.  That is the sub-level-set invariance the paper's pointwise
decrease ``E(s') − E(s) ≤ 0`` is a sufficient condition for; checking it
directly keeps interval bounds conclusive near the origin, where both sides of
the decrease vanish.

:meth:`SafetyProblem.obligations` states the conditions for one invariant as
a lazy list of :class:`Obligation` queries.  The barrier search and ``audit``
discharge it with :class:`~repro.certificates.smt.BranchAndBoundVerifier`;
the ``farkas`` backend and ``audit --engine farkas`` discharge (8) and (9)
with :class:`~repro.certificates.farkas.FarkasVerifier`.

With a nonzero ``disturbance_bound`` the successor is
``s' = p(s) + disturbance_scale·d`` with ``|d_i| ≤ b_i``, and condition (10)
must hold for every admissible ``d``: its obligations are lifted to the ``2n``
variables ``(s, d)`` over the product box ``safe × [−b, b]``, so one proof
covers every disturbance.  Conditions (8) and (9) are never lifted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..lang.invariant import Invariant
from ..polynomials import Polynomial
from .farkas import FarkasResult
from .regions import Box
from .smt import BranchAndBoundVerifier

__all__ = ["VERIFIER_TOLERANCE", "Obligation", "SafetyProblem", "Verdict"]

#: Slack of the branch-and-bound interval tests that discharge the conditions.
VERIFIER_TOLERANCE = 1e-6


@dataclass
class SafetyProblem:
    """What conditions (8)-(10) quantify over for one closed loop ``C[P]``.

    ``closed_loop`` gives the successor ``s'_i = p_i(s)``; ``init_box`` is
    ``S0`` or a CEGIS branch's region; ``domain_box`` defaults to the safe
    box.  A ``disturbance_bound`` of ``None`` or all zeros is no disturbance.
    """

    closed_loop: Sequence[Polynomial]
    init_box: Box
    unsafe_boxes: Sequence[Box]
    safe_box: Box
    domain_box: Optional[Box] = None
    disturbance_bound: Optional[Sequence[float]] = None
    disturbance_scale: float = 1.0

    def __post_init__(self) -> None:
        self.closed_loop = list(self.closed_loop)
        self.unsafe_boxes = list(self.unsafe_boxes)
        self.domain_box = self.domain_box or self.safe_box
        bound = self.disturbance_bound
        if bound is not None:
            bound = np.asarray(bound, dtype=float)
            if not np.any(bound):
                bound = None
            elif bound.size != self.state_dim:
                raise ValueError("disturbance_bound must have one entry per state dimension")
        self.disturbance_bound = bound
        self.disturbance_scale = float(self.disturbance_scale)

    @classmethod
    def from_env(cls, env, program, init_box: Box | None = None) -> "SafetyProblem":
        """``program``'s problem in ``env`` on ``init_box`` (default ``S0``).

        Raises ``ValueError`` when the closed loop has no polynomial form.
        """
        return cls(
            closed_loop=env.closed_loop_polynomials(program),
            init_box=env.init_region if init_box is None else init_box,
            unsafe_boxes=env.unsafe_cover_boxes(),
            safe_box=env.safe_box,
            domain_box=env.domain,
            disturbance_bound=env.disturbance_bound,
            disturbance_scale=env.dt,
        )

    @property
    def state_dim(self) -> int:
        return len(self.closed_loop)

    def verifier(self, max_boxes: int) -> BranchAndBoundVerifier:
        """The branch-and-bound prover whose leaves are boxes narrower than
        1/200 of the domain's widest side."""
        return BranchAndBoundVerifier(
            tolerance=VERIFIER_TOLERANCE,
            max_boxes=max_boxes,
            min_width=float(np.max(self.domain_box.widths)) / 200.0,
        )

    def obligations(self, invariant: Invariant) -> Iterator["Obligation"]:
        """The queries of conditions (8)-(10) for ``invariant``, built lazily.

        In order: (9) on ``S0``; (8) on all unsafe boxes as one query; (10)
        "successor stays in ``{E ≤ 0}``"; then each dimension's upper and
        lower domain bound on the successor.  The queries of (10) range over
        ``{E ≤ 0}`` within the safe box, lifted to ``(s, d)`` when disturbed.
        """
        barrier = invariant.barrier
        if invariant.margin:
            barrier = barrier - invariant.margin
        n = self.state_dim
        yield Obligation("init", "condition (9)", barrier, [self.init_box], n, self.init_box)
        if self.unsafe_boxes:
            boxes = self.unsafe_boxes
            yield Obligation("unsafe", "condition (8)", barrier, boxes, n, boxes[0], positive=True)
        if self.disturbance_bound is None:
            constraint, successors, domain = barrier, self.closed_loop, self.safe_box
        else:
            constraint = self._lift(barrier)
            successors, domain = self._lifted_transition

        def induction(what: str, target: Polynomial) -> Obligation:
            label = f"condition (10) [{what}]"
            return Obligation("induction", label, target, [domain], n, self.safe_box, [constraint])

        yield induction("successor stays in {E <= 0}", barrier.substitute(successors))
        low, high = self.domain_box.low, self.domain_box.high
        for i, next_i in enumerate(successors):
            yield induction(f"successor upper domain bound, dim {i}", next_i - high[i])
            yield induction(f"successor lower domain bound, dim {i}", low[i] - next_i)

    def _lift(self, polynomial: Polynomial) -> Polynomial:
        """Embed a polynomial over ``s`` into the ``(s, d)`` variable space."""
        n = self.state_dim
        return polynomial.substitute([Polynomial.variable(i, 2 * n) for i in range(n)])

    @cached_property
    def _lifted_transition(self) -> Tuple[List[Polynomial], Box]:
        """The successor ``p_i(s) + scale·d_i`` over ``(s, d)`` and ``safe × [−b, b]``.

        Cached: it depends only on the problem, while the barrier search
        states the obligations once per candidate.
        """
        n, bound, safe = self.state_dim, self.disturbance_bound, self.safe_box
        successors = [
            self._lift(poly) + self.disturbance_scale * Polynomial.variable(n + i, 2 * n)
            for i, poly in enumerate(self.closed_loop)
        ]
        return successors, Box(tuple(safe.low) + tuple(-bound), tuple(safe.high) + tuple(bound))


@dataclass
class Obligation:
    """One query: ``target ≤ 0`` (``> 0`` when ``positive``) on ``boxes``
    where every constraint is ``≤ 0``.

    ``kind`` is the condition in the barrier search's sample-set names:
    ``"init"`` (9), ``"unsafe"`` (8) or ``"induction"`` (10).  The first
    ``state_dim`` query variables are the state; ``fallback``'s centre stands
    for a failure without a witness.
    """

    kind: str
    label: str
    target: Polynomial
    boxes: Sequence[Box]
    state_dim: int
    fallback: Box
    constraints: Sequence[Polynomial] = ()
    positive: bool = False

    def discharge(self, prover) -> "Verdict":
        """Ask ``prover`` (branch-and-bound or Farkas) for a proof."""
        prove = prover.prove_positive if self.positive else prover.prove_nonpositive
        result = prove(self.target, self.boxes, constraints=self.constraints)
        if isinstance(result, FarkasResult):
            return Verdict(self, result.proved, reason=result.failure_reason)
        witness = result.counterexample
        if witness is not None:
            witness = np.asarray(witness, dtype=float)[: self.state_dim]
        return Verdict(self, result.verified, witness, result.max_depth_reached)


@dataclass
class Verdict:
    """A prover's answer to one obligation.

    ``counterexample`` is in state coordinates.  ``exhausted`` means the box
    budget ran out, so a counterexample is only an unresolved box's centre.
    """

    obligation: Obligation
    holds: bool
    counterexample: Optional[np.ndarray] = None
    exhausted: bool = False
    reason: str = ""

    @property
    def refuted(self) -> bool:
        """Whether the prover found a concrete violation, not just no proof."""
        return not self.holds and self.counterexample is not None and not self.exhausted

    @property
    def witness(self) -> np.ndarray:
        """The counterexample, or the fallback box's centre when there is none."""
        if self.counterexample is not None:
            return self.counterexample
        return self.obligation.fallback.center

    def describe(self) -> str:
        label = self.obligation.label
        if self.refuted:
            return f"{label} failed: counterexample {np.round(self.counterexample, 4).tolist()}"
        if self.exhausted:
            return f"{label} inconclusive: branch-and-bound budget exhausted"
        return f"{label} not proved" + (f": {self.reason}" if self.reason else "")
