"""Barrier-certificate synthesis via sampled linear programming plus sound checking.

The paper finds the coefficients ``c`` of the invariant sketch
``E[c](x) = Σ_i c_i b_i(x)`` with a sum-of-squares/convex solver (Mosek).  The
key observation this module exploits is that the verification conditions

    (8)  E[c](s) >  0   for all s in Su
    (9)  E[c](s) <= 0   for all s in S0
    (10) E[c](s') - E[c](s) <= 0   for all transitions (s, s')

are *linear in c* once the state ``s`` is fixed.  We therefore

1. sample states from the unsafe, initial, and induction regions and solve a
   linear program that maximises the satisfaction margin ``γ`` of the sampled
   conditions (``scipy.optimize.linprog``);
2. soundly check the resulting candidate on the full (uncountable) regions:
   discharge the obligations of :mod:`repro.certificates.conditions` with the
   interval branch-and-bound verifier of :mod:`repro.certificates.smt`,
   stopping at the first that fails;
3. if a condition fails, add the returned counterexample (plus a small jittered
   cloud around it) to the sample set and repeat.

Step 1 solves the LP by cutting planes.  Of the ~1,300 sampled rows only a
few dozen are tight at the optimum, so HiGHS only ever sees a working set of
rows.  In the first refinement of a search the set is a fixed, evenly spaced
subset of the rows; in later ones it is the rows that the previous candidate
comes closest to violating, which include the new counterexample cloud.
After each solve every row is evaluated at the solution, and the most
violated rows outside the set join it before the next solve.  The loop stops
when no row outside the set is violated by more than a fixed tolerance; it
ends because the set only grows.  Every restricted LP is a relaxation of the
full one, so a restricted optimum that satisfies every row is an optimum of
the full sampled LP, with the same ``γ``.  Each sample's unscaled rows
(successor and disturbance-corner rows included) are kept across
refinements, so a refinement evaluates the basis only on the new cloud.

The LP may return a candidate it has already returned.  A repeated candidate
is not proved again: step 2 is a pure function of the candidate (the
verifier's determinism contract), so the search reuses the first failure and
carries on with step 3 exactly as if it had re-run the check.

Step 2 is what makes the output a genuine certificate: "verified" results have
been proven on the real regions, not merely on samples.  Step 1/3 form an inner
counterexample-guided loop mirroring the paper's overall CEGIS architecture.

**Bounded disturbances.**  With a nonzero ``disturbance_bound`` the transition
relation is ``s' = s + Δt·(f(s, P(s)) + d)`` with ``|d_i| ≤ b_i``, and
condition (10) must hold for *every* admissible ``d``.  The search encodes
this worst case on both sides:

* the LP imposes the induction rows not only at the nominal successor but at
  the successor under every disturbance corner vector (a corner enumeration
  for low-dimensional disturbances, axis extremes plus diagonal corners for
  high-dimensional ones) — still linear in ``c`` because each ``(s, d)`` pair
  fixes a concrete successor point;
* the sound check discharges the obligations of condition (10) lifted to
  ``2n`` variables ``(s, d)`` (:mod:`repro.certificates.conditions`), so
  interval branch-and-bound proves ``E(s') ≤ 0`` under the candidate
  constraint ``E(s) ≤ 0`` for *all* disturbances at once.

A SAFE verdict under disturbance is therefore a genuine robust certificate —
the property the runtime adaptation loop's re-check relies on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from ..lang.invariant import Invariant
from ..lang.sketch import InvariantSketch
from ..polynomials import basis_design_matrix
from .conditions import SafetyProblem
from .smt import BranchAndBoundVerifier

__all__ = ["BarrierSynthesisConfig", "BarrierSearchResult", "BarrierCertificateSynthesizer"]

#: Rows in the working set a cutting-plane LP solve starts from.
WORKING_SET_ROWS = 64
#: Most violated rows added to the working set before each re-solve.
CUT_BATCH_ROWS = 64
#: A row outside the working set counts as violated above this value.
CUT_TOLERANCE = 1e-9
#: States sampled from S0, from the unsafe cover and from the safe box for the
#: first LP of a search.
SAMPLES_INIT = 300
SAMPLES_UNSAFE = 300
SAMPLES_INDUCTION = 600
#: Jittered copies of each counterexample added to its sample set, and their
#: standard deviation as a fraction of the domain widths.
COUNTEREXAMPLE_CLOUD = 20
COUNTEREXAMPLE_JITTER = 1e-2
#: The LP margin γ below which the sketch counts as too weak.
MIN_MARGIN = 1e-6
#: Bound on each (column-scaled) barrier coefficient in the LP.
COEFFICIENT_BOUND = 1.0
#: Disturbance dimensions up to which the LP enumerates every sign corner of
#: the disturbance box (2^n rows per induction sample); above it only the 2n
#: axis extremes and the two diagonal corners are imposed.  The sound check is
#: exhaustive either way; this only shapes the LP.
DISTURBANCE_CORNER_LIMIT = 4
#: Seed of a synthesizer's sampling generator.
SAMPLING_SEED = 0


@dataclass
class BarrierSynthesisConfig:
    """Tunables of the sampled-LP certificate search."""

    max_refinements: int = 12
    #: Wall-clock budget (seconds) for each candidate LP solve, shared by all
    #: of its cutting-plane re-solves; ``None`` means unbounded.  High-degree
    #: sketches can make HiGHS grind for minutes on numerically nasty
    #: instances — a timed-out solve is treated exactly like
    #: an infeasible one (no candidate), which only ever *under*-approximates
    #: what the search can certify, never falsely verifies.
    lp_time_limit_seconds: Optional[float] = None
    #: Wall-clock budget (seconds) for the whole refinement loop; ``None``
    #: means unbounded.  Checked between refinement iterations — exceeding it
    #: aborts with an (always sound) "not verified" result.  This is how the
    #: verification kernel enforces per-backend time budgets.
    time_budget_seconds: Optional[float] = None


@dataclass
class BarrierSearchResult:
    """Outcome of a barrier-certificate search."""

    invariant: Optional[Invariant]
    verified: bool
    iterations: int
    margin: float
    failure_reason: str = ""
    counterexamples: List[np.ndarray] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.verified


class BarrierCertificateSynthesizer:
    """Searches for an inductive invariant ``E[c](x) <= 0`` for a closed loop.

    Parameters
    ----------
    sketch:
        The invariant sketch (monomial basis of bounded degree, eq. (7)).
    problem:
        The closed loop ``C[P]``, its initial region (``S0`` or the shrunk
        region of Algorithm 2), unsafe cover, safe box, domain and disturbance
        bound; the LP samples its regions and every candidate must discharge
        its obligations.
    verifier:
        The branch-and-bound prover of the obligations.
    on_counterexample:
        Optional sink ``(kind, state) -> None`` notified of every condition
        counterexample the sound check finds (feeds the CEGIS replay cache
        and the tier-1 regression corpus).
    """

    def __init__(
        self,
        sketch: InvariantSketch,
        problem: SafetyProblem,
        config: BarrierSynthesisConfig | None = None,
        verifier: BranchAndBoundVerifier | None = None,
        on_counterexample=None,
    ) -> None:
        if problem.state_dim != sketch.state_dim:
            raise ValueError("closed_loop must provide one polynomial per state dimension")
        self.sketch = sketch
        self.problem = problem
        self.config = config or BarrierSynthesisConfig()
        self.verifier = verifier or BranchAndBoundVerifier()
        self.on_counterexample = on_counterexample
        self._rng = np.random.default_rng(SAMPLING_SEED)
        # Cutting-plane warm state: the unscaled LP row blocks of the sample
        # sets seen last, by kind, and the last LP candidate.
        self._row_cache: Dict[str, Tuple[np.ndarray, List[np.ndarray]]] = {}
        self._last_candidate: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ api
    def search(self) -> BarrierSearchResult:
        """Run the LP + sound-check refinement loop."""
        cfg = self.config
        start = time.perf_counter()
        self._row_cache = {}
        self._last_candidate = None
        init_samples = self.problem.init_box.sample(self._rng, SAMPLES_INIT)
        unsafe_samples = self._sample_unsafe(SAMPLES_UNSAFE)
        induction_samples = self.problem.safe_box.sample(self._rng, SAMPLES_INDUCTION)
        counterexamples: List[np.ndarray] = []
        # Failures of the candidates proved so far, by coefficient bytes.
        refuted: Dict[bytes, Tuple[str, np.ndarray]] = {}

        for iteration in range(1, cfg.max_refinements + 1):
            if (
                cfg.time_budget_seconds is not None
                and time.perf_counter() - start > cfg.time_budget_seconds
            ):
                return BarrierSearchResult(
                    invariant=None,
                    verified=False,
                    iterations=iteration,
                    margin=0.0,
                    failure_reason=(
                        f"time budget of {cfg.time_budget_seconds:.1f}s exhausted "
                        f"after {iteration - 1} refinement(s)"
                    ),
                    counterexamples=counterexamples,
                )
            coefficients, margin = self._solve_lp(init_samples, unsafe_samples, induction_samples)
            if coefficients is None or margin < MIN_MARGIN:
                return BarrierSearchResult(
                    invariant=None,
                    verified=False,
                    iterations=iteration,
                    margin=margin if coefficients is not None else float("-inf"),
                    failure_reason="sampled LP infeasible (sketch may be too weak)",
                    counterexamples=counterexamples,
                )
            key = coefficients.tobytes()
            failure = refuted.get(key)
            if failure is None:
                invariant = self.sketch.instantiate(coefficients)
                failure = self._sound_check(invariant)
                if failure is None:
                    return BarrierSearchResult(
                        invariant=invariant,
                        verified=True,
                        iterations=iteration,
                        margin=margin,
                        counterexamples=counterexamples,
                    )
                refuted[key] = failure
            kind, point = failure[0], failure[1].copy()
            counterexamples.append(point)
            if self.on_counterexample is not None:
                self.on_counterexample(kind, point)
            cloud = self._jitter_cloud(point, kind)
            if kind == "init":
                init_samples = np.concatenate([init_samples, cloud], axis=0)
            elif kind == "unsafe":
                unsafe_samples = np.concatenate([unsafe_samples, cloud], axis=0)
            else:
                induction_samples = np.concatenate([induction_samples, cloud], axis=0)

        return BarrierSearchResult(
            invariant=None,
            verified=False,
            iterations=cfg.max_refinements,
            margin=0.0,
            failure_reason="refinement budget exhausted before a sound certificate was found",
            counterexamples=counterexamples,
        )

    # ------------------------------------------------------------- sampling
    def _sample_unsafe(self, count: int) -> np.ndarray:
        boxes = self.problem.unsafe_boxes
        if not boxes:
            return np.zeros((0, self.sketch.state_dim))
        volumes = np.array([max(b.volume(), 1e-12) for b in boxes])
        weights = volumes / volumes.sum()
        counts = self._rng.multinomial(count, weights)
        chunks = [box.sample(self._rng, c) for box, c in zip(boxes, counts) if c > 0]
        if not chunks:
            return np.zeros((0, self.sketch.state_dim))
        return np.concatenate(chunks, axis=0)

    def _jitter_cloud(self, point: np.ndarray, kind: str) -> np.ndarray:
        scale = COUNTEREXAMPLE_JITTER * np.maximum(self.problem.domain_box.widths, 1e-9)
        cloud = point + self._rng.normal(scale=scale, size=(COUNTEREXAMPLE_CLOUD, point.size))
        cloud = np.concatenate([point[None, :], cloud], axis=0)
        if kind == "init":
            region = self.problem.init_box
        elif kind == "unsafe":
            region = None
        else:
            region = self.problem.safe_box
        if region is not None:
            low = np.asarray(region.low)
            high = np.asarray(region.high)
            cloud = np.clip(cloud, low, high)
        return cloud

    # ------------------------------------------------------------------- lp
    def _step_batch(self, states: np.ndarray) -> np.ndarray:
        """Apply the closed-loop polynomials to each row of ``states``."""
        columns = [poly.evaluate_batch(states) for poly in self.problem.closed_loop]
        return np.stack(columns, axis=1)

    def _row_blocks(self, kind: str, samples: np.ndarray) -> List[np.ndarray]:
        """The unscaled LP rows of ``samples`` for condition ``kind``, built afresh.

        One block for ``"init"`` and ``"unsafe"``; for ``"induction"`` the
        nominal successor block, then one block per disturbance corner.
        """
        basis = self.sketch.basis
        rows = basis_design_matrix(basis, samples)
        if kind != "induction":
            return [rows]
        next_states = self._step_batch(samples)
        # Condition (10) must hold for every admissible disturbance: each
        # (sample, corner) pair fixes a concrete disturbed successor, so the
        # rows stay linear in the coefficients.
        blocks = [basis_design_matrix(basis, next_states) - rows]
        for corner in self._disturbance_corners():
            disturbed = next_states + self.problem.disturbance_scale * corner
            blocks.append(basis_design_matrix(basis, disturbed) - rows)
        return blocks

    def _rows(self, kind: str, samples: np.ndarray) -> np.ndarray:
        """:meth:`_row_blocks` of ``samples``, reusing the rows of a cached prefix.

        A refinement appends one cloud to one sample set, so only the cloud's
        rows are computed.  They must equal the same rows in a whole-set
        build, bit for bit (``tests/test_barrier_lp.py``): the one step that
        could round a row differently by batch is the BLAS product that ends
        ``Polynomial.evaluate_batch`` in :meth:`_step_batch`.
        """
        known, blocks = self._row_cache.get(kind, (None, None))
        if (
            known is not None
            and len(known) <= len(samples)
            and np.array_equal(known, samples[: len(known)])
        ):
            fresh = self._row_blocks(kind, samples[len(known):])
            blocks = [np.concatenate([old, new], axis=0) for old, new in zip(blocks, fresh)]
        else:
            blocks = self._row_blocks(kind, samples)
        self._row_cache[kind] = (samples.copy(), blocks)
        return np.concatenate(blocks, axis=0)

    def _lp_rows(
        self,
        init_samples: np.ndarray,
        unsafe_samples: np.ndarray,
        induction_samples: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The full scaled row block ``A_ub`` (``A_ub·x <= 0``) and its column scale."""
        return scaled_lp_rows(
            self._rows("init", init_samples),
            self._rows("unsafe", unsafe_samples),
            self._rows("induction", induction_samples),
        )

    def _seed_rows(self, a_ub: np.ndarray, column_scale: np.ndarray) -> np.ndarray:
        """The sorted row indices of the working set a solve starts from.

        Evenly spaced rows when there is no previous candidate; otherwise the
        rows at which the previous candidate, re-scaled to this block's
        columns, is largest, i.e. closest to violating ``A_ub·x <= 0``.
        """
        count = a_ub.shape[0]
        if count <= WORKING_SET_ROWS:
            return np.arange(count)
        if self._last_candidate is None:
            return np.arange(WORKING_SET_ROWS) * count // WORKING_SET_ROWS
        values = a_ub[:, :-1] @ (self._last_candidate * column_scale)
        return np.sort(np.argsort(-values, kind="stable")[:WORKING_SET_ROWS])

    def _solve_lp(
        self,
        init_samples: np.ndarray,
        unsafe_samples: np.ndarray,
        induction_samples: np.ndarray,
    ) -> tuple[Optional[np.ndarray], float]:
        """Maximise ``γ`` over the sampled rows by cutting planes (module docstring)."""
        start = time.perf_counter()
        a_ub, column_scale = self._lp_rows(init_samples, unsafe_samples, induction_samples)
        objective, bounds = lp_objective(len(column_scale))
        time_limit = self.config.lp_time_limit_seconds
        from ..faults import fault_site

        spec = fault_site("solver.lp")
        if spec is not None and spec.kind == "lp-timeout":
            # An injected solver timeout behaves exactly like a real one: no
            # candidate from this LP.  Sound — the caller shrinks and retries.
            return None, float("-inf")
        working = self._seed_rows(a_ub, column_scale)
        while True:
            options = None
            if time_limit is not None:
                # One budget for the whole solve: each re-solve gets what is left.
                remaining = float(time_limit) - (time.perf_counter() - start)
                if remaining <= 0.0:
                    return None, float("-inf")
                options = {"time_limit": remaining}
            result = linprog(
                objective,
                A_ub=a_ub[working],
                b_ub=np.zeros(len(working)),
                bounds=bounds,
                method="highs",
                options=options,
            )
            if not result.success:
                return None, float("-inf")
            excess = a_ub @ result.x
            excess[working] = -np.inf
            violated = np.flatnonzero(excess > CUT_TOLERANCE)
            if not violated.size:
                break
            worst = violated[np.argsort(-excess[violated], kind="stable")[:CUT_BATCH_ROWS]]
            working = np.union1d(working, worst)
        coefficients = result.x[:-1] / column_scale
        self._last_candidate = coefficients
        return coefficients, float(result.x[-1])

    # ----------------------------------------------------------- soundness
    def _sound_check(self, invariant: Invariant) -> Optional[tuple[str, np.ndarray]]:
        """The first of the problem's obligations that fails, as ``(kind, witness)``."""
        for obligation in self.problem.obligations(invariant):
            verdict = obligation.discharge(self.verifier)
            if not verdict.holds:
                return obligation.kind, verdict.witness
        return None

    # ------------------------------------------------------ disturbance lift
    def _disturbance_corners(self) -> np.ndarray:
        """Disturbance vectors at which the LP imposes condition (10).

        Empty (no extra rows) when the system is undisturbed.  For a small
        number of disturbed dimensions every sign corner of the disturbance
        box is enumerated; beyond ``DISTURBANCE_CORNER_LIMIT`` dimensions the
        2n axis extremes plus the two diagonal corners are used.  This only
        shapes the sampled LP — the sound check is exhaustive regardless.
        """
        bound = self.problem.disturbance_bound
        n = self.sketch.state_dim
        if bound is None:
            return np.zeros((0, n))
        active = np.flatnonzero(bound)
        corners: List[np.ndarray] = []
        if len(active) <= DISTURBANCE_CORNER_LIMIT:
            for signs in product((-1.0, 1.0), repeat=len(active)):
                corner = np.zeros(n)
                corner[active] = np.asarray(signs) * bound[active]
                corners.append(corner)
        else:
            for index in active:
                for sign in (-1.0, 1.0):
                    corner = np.zeros(n)
                    corner[index] = sign * bound[index]
                    corners.append(corner)
            corners.append(bound.copy())
            corners.append(-bound.copy())
        return np.stack(corners, axis=0)


def scaled_lp_rows(
    init_rows: np.ndarray, unsafe_rows: np.ndarray, induction_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scale unscaled condition rows into the LP block ``A_ub·[c, γ] <= 0``.

    Columns are divided by their largest magnitude for conditioning (the
    caller divides the solved coefficients by the same scale); unsafe rows
    are negated, since condition (8) asks ``E > 0``; the last column carries
    the margin ``γ``.
    """
    stacked = np.concatenate([init_rows, unsafe_rows, induction_rows], axis=0)
    column_scale = np.maximum(np.max(np.abs(stacked), axis=0), 1e-9)
    scaled = np.concatenate(
        [init_rows / column_scale, -unsafe_rows / column_scale, induction_rows / column_scale],
        axis=0,
    )
    return np.hstack([scaled, np.ones((scaled.shape[0], 1))]), column_scale


def lp_objective(num_coeffs: int) -> tuple[np.ndarray, list]:
    """``linprog``'s objective (maximise ``γ``) and variable bounds for the LP."""
    objective = np.zeros(num_coeffs + 1)
    objective[-1] = -1.0
    bounds = [(-COEFFICIENT_BOUND, COEFFICIENT_BOUND)] * num_coeffs + [
        (0.0, 10.0 * COEFFICIENT_BOUND)
    ]
    return objective, bounds
