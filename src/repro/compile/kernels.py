"""Compiled kernels for programs and invariants.

Each kernel is the array-shaped twin of one interpreter object:

* :class:`CompiledProgram` ↔ :class:`~repro.lang.program.AffineProgram` /
  :class:`~repro.lang.program.ExprProgram` — ``(n, d) → (n, m)`` actions,
* :class:`CompiledGuardSet` ↔ a list of invariants (a
  :class:`~repro.lang.invariant.InvariantUnion` or the guards of a
  :class:`~repro.lang.program.GuardedProgram`) — all barrier values in one
  block evaluation,
* :class:`CompiledGuardedProgram` ↔ :class:`~repro.lang.program.GuardedProgram`
  — first-satisfied branch dispatch, fallback, and the lenient closest-branch
  rule, reproduced mask-for-mask.

Environment dynamics need no kernel: every environment's ``rate_batch``
already evaluates its symbolic ``rate`` on NumPy columns (see
:mod:`repro.envs.base`).

Affine programs keep their own gain/bias arrays and clip order so the compiled
action path runs the *same dtype-ordered operations* as
``AffineProgram.act_batch`` (bit-identical results); everything else lowers
through :class:`~repro.compile.lowering.PolyBlock`.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..lang.invariant import Invariant, TrueInvariant
from ..lang.program import (
    AffineProgram,
    ExprProgram,
    GuardedProgram,
    PolicyProgram,
    UnreachableBranchError,
)
from ..polynomials import Polynomial
from .lowering import LoweringError, PolyBlock

__all__ = [
    "CompiledProgram",
    "CompiledGuardSet",
    "CompiledGuardedProgram",
    "lower_program",
    "lower_guards",
]


class CompiledProgram:
    """A leaf policy program lowered to array math (no guard dispatch)."""

    __slots__ = ("state_dim", "action_dim", "_gain_t", "_bias", "_low", "_high", "_block")

    def __init__(self, program: PolicyProgram) -> None:
        self.state_dim = program.state_dim
        self.action_dim = program.action_dim
        self._gain_t = self._bias = self._low = self._high = self._block = None
        if isinstance(program, AffineProgram):
            # Keep the exact arrays and operation order of AffineProgram.act_batch.
            self._gain_t = np.array(program.gain.T)
            self._bias = np.array(program.bias)
            self._low = None if program.action_low is None else np.array(program.action_low)
            self._high = None if program.action_high is None else np.array(program.action_high)
        elif isinstance(program, ExprProgram):
            from .lowering import lower_exprs

            self._block = lower_exprs(program.exprs, program.state_dim)
        else:
            raise LoweringError(
                f"cannot lower a {type(program).__name__} as a leaf program"
            )

    def act(self, states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Vectorised actions for trusted ``(n, d)`` input (no coercion)."""
        if self._block is not None:
            return self._block.evaluate(states, out=out)
        actions = np.matmul(states, self._gain_t, out=out)
        actions += self._bias
        if self._low is not None:
            np.maximum(actions, self._low, out=actions)
        if self._high is not None:
            np.minimum(actions, self._high, out=actions)
        return actions


class CompiledGuardSet:
    """All barrier predicates of an invariant list as one fused evaluation.

    ``values`` returns raw barrier values (``TrueInvariant`` members read
    ``-inf``); membership is ``value <= margin`` with the same comparison the
    interpreter uses, so guard verdicts agree decision-for-decision.
    """

    __slots__ = ("num_vars", "members", "margins", "_block", "_always", "_barrier_rows")

    def __init__(self, members: Sequence) -> None:
        members = list(members)
        if not members:
            raise LoweringError("cannot lower an empty invariant list")
        self.members = len(members)
        self.margins = np.zeros(self.members)
        self._always = np.zeros(self.members, dtype=bool)
        barriers: List[Polynomial] = []
        rows: List[int] = []
        num_vars = None
        for index, member in enumerate(members):
            if isinstance(member, TrueInvariant):
                self._always[index] = True
                self.margins[index] = np.inf
                num_vars = member.num_vars if num_vars is None else num_vars
            elif isinstance(member, Invariant):
                barriers.append(member.barrier)
                rows.append(index)
                self.margins[index] = member.margin
                num_vars = member.num_vars if num_vars is None else num_vars
            else:
                raise LoweringError(f"cannot lower invariant type {type(member).__name__}")
        self.num_vars = int(num_vars)
        self._block = PolyBlock.from_polynomials(barriers) if barriers else None
        self._barrier_rows = np.asarray(rows, dtype=np.int64)

    def values(self, states: np.ndarray) -> np.ndarray:
        """Raw barrier values, shape ``(n, members)`` (``-inf`` for ``true``)."""
        count = states.shape[0]
        if self._block is not None and len(self._barrier_rows) == self.members:
            return self._block.evaluate(states)
        result = np.full((count, self.members), -np.inf)
        if self._block is not None:
            result[:, self._barrier_rows] = self._block.evaluate(states)
        return result

    def holds(self, states: np.ndarray) -> np.ndarray:
        """Per-member membership mask, shape ``(n, members)``."""
        if self._block is None:
            return np.ones((states.shape[0], self.members), dtype=bool)
        return self.values(states) <= self.margins

    def any_holds(self, states: np.ndarray) -> np.ndarray:
        """Union membership (the shield's φ check), shape ``(n,)``."""
        if self._block is None:
            return np.ones(states.shape[0], dtype=bool)
        if self.members == 1 and not self._always[0]:
            # One barrier: skip the (n, 1) reduction entirely.
            return self._block.evaluate(states)[:, 0] <= self.margins[0]
        return (self.values(states) <= self.margins).any(axis=1)

    def min_values(self, states: np.ndarray) -> np.ndarray:
        """``min_i (barrier_i - margin_i)`` per row — the fleet-monitor metric."""
        if self._block is None:
            return np.full(states.shape[0], -np.inf)
        finite = self.margins.copy()
        finite[self._always] = 0.0  # -inf values dominate regardless of margin
        return (self.values(states) - finite).min(axis=1)


class CompiledGuardedProgram:
    """A :class:`~repro.lang.program.GuardedProgram` lowered whole.

    One guard-block evaluation decides every branch for every row; branch
    bodies then run on their row subsets.  Dispatch order, the fallback, the
    lenient closest-branch rule, and the strict ``abort`` all mirror
    ``GuardedProgram.act_batch`` exactly.
    """

    __slots__ = ("state_dim", "action_dim", "guards", "programs", "fallback", "strict")

    def __init__(self, program: GuardedProgram, branch_kernels, fallback) -> None:
        self.state_dim = program.state_dim
        self.action_dim = program.action_dim
        self.guards = (
            CompiledGuardSet([invariant for invariant, _ in program.branches])
            if program.branches
            else None
        )
        self.programs = list(branch_kernels)
        self.fallback = fallback
        self.strict = bool(program.strict)

    def act(self, states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        count = states.shape[0]
        if self.guards is None:
            return self.fallback.act(states, out=out)
        if len(self.programs) == 1 and self.fallback is None and not self.strict:
            # Single-branch shields (the common CEGIS output): the branch body
            # serves every row whether inside the invariant or closest to it.
            return self.programs[0].act(states, out=out)
        holds = self.guards.holds(states)
        first = np.argmax(holds, axis=1)
        assigned = holds[np.arange(count), first]
        actions = out if out is not None else np.empty((count, self.action_dim))
        for branch, kernel in enumerate(self.programs):
            mask = assigned & (first == branch)
            if mask.any():
                actions[mask] = kernel.act(states[mask])
        rest = ~assigned
        if not rest.any():
            return actions
        if self.fallback is not None:
            actions[rest] = self.fallback.act(states[rest])
            return actions
        if not self.strict and self.programs:
            values = self.guards.values(states[rest]) - np.where(
                np.isfinite(self.margins_for_lenient()), self.margins_for_lenient(), 0.0
            )
            picks = np.argmin(values, axis=1)
            rest_indices = np.flatnonzero(rest)
            for branch, kernel in enumerate(self.programs):
                chosen = rest_indices[picks == branch]
                if chosen.size:
                    actions[chosen] = kernel.act(states[chosen])
            return actions
        raise UnreachableBranchError(
            "a state lies outside every branch invariant (the 'abort' branch)"
        )

    def margins_for_lenient(self) -> np.ndarray:
        return self.guards.margins

    def branch_index(self, states: np.ndarray) -> np.ndarray:
        """First-satisfied branch per row (-1 when no invariant holds)."""
        if self.guards is None:
            return np.full(states.shape[0], -1, dtype=np.int64)
        holds = self.guards.holds(states)
        first = np.argmax(holds, axis=1)
        assigned = holds[np.arange(states.shape[0]), first]
        return np.where(assigned, first, -1)


# ------------------------------------------------------------------- factories
def lower_program(program: PolicyProgram):
    """Lower any policy program; raises :class:`LoweringError` when impossible."""
    if isinstance(program, GuardedProgram):
        branch_kernels = [lower_program(branch) for _, branch in program.branches]
        fallback = lower_program(program.fallback) if program.fallback is not None else None
        return CompiledGuardedProgram(program, branch_kernels, fallback)
    return CompiledProgram(program)


def lower_guards(members: Sequence) -> CompiledGuardSet:
    """Lower an invariant union (or plain invariant list) to a guard set."""
    concrete = getattr(members, "members", None)
    if concrete is None:
        concrete = [members] if isinstance(members, (Invariant, TrueInvariant)) else list(members)
    return CompiledGuardSet(concrete)

