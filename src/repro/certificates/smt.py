"""A branch-and-bound decision procedure for polynomial inequalities over boxes.

The paper's artifact discharges two kinds of queries to Z3:

1. the verification conditions (8)-(10) on candidate barrier certificates, and
2. the CEGIS cover check ``S0 ⊆ φ_1 ∨ φ_2 ∨ …`` (Algorithm 2, line 3), including
   the search for an *uncovered* initial state used as the next counterexample.

Both are universally quantified polynomial inequalities over box domains.  This
module answers them with interval branch-and-bound: a natural interval
extension gives a sound outer bound of a polynomial on a box, so

* if the bound already certifies the inequality on a sub-box, that sub-box is
  discharged;
* if a concrete point violating the inequality is found, it is returned as a
  counterexample;
* otherwise the box is bisected along its widest axis and the children are
  explored, until a resolution limit is reached.

Verification answers are sound ("verified" means the inequality truly holds on
every explored box up to the numeric tolerance); completeness is bounded by the
resolution limit, mirroring the inherent incompleteness the paper notes for its
own CEGIS loop.

Frontier engine and determinism contract
----------------------------------------
The verifier advances the whole frontier of open boxes per round as
``(n_boxes, dim)`` endpoint arrays — constraint pruning, target bounding,
centre/corner falsification, resolution-limit handling, and splitting are all
batched array operations over lowered monomial tables
(:mod:`repro.certificates.interval_batch`).  Its differential oracle, the
scalar engine in :mod:`repro.reference.bnb`, walks the same queue one box at
a time.

Both engines explore the canonical frontier order — breadth-first: the initial
boxes in the order given, then each surviving box's lower/upper children in
parent order — and both select the **first witness in that order** (within a
box: the centre, then the corners in binary-counting order, then the
resolution-limit samples in draw order).  Because they also share the same
batch-size-independent numeric kernels, verdicts, counterexamples,
``boxes_explored``, and ``max_depth_reached`` are bit-identical between them.

Resolution-limit sampling draws from a generator derived from ``seed``, a
canonical hash of the query (sense, lowered polynomials, boxes), and the
ordinal of the limit box in canonical order — never from shared verifier
state — so verdicts are reproducible regardless of how many queries the
verifier answered before, and identical across the two engines.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..polynomials import Polynomial
from .interval_batch import IntervalTable, eval_points, lower_interval, range_boxes
from .regions import Box

__all__ = [
    "CheckResult",
    "BranchAndBoundVerifier",
    "prove_nonpositive",
    "prove_positive",
    "find_uncovered_point",
]


@dataclass
class CheckResult:
    """Outcome of a branch-and-bound query."""

    verified: bool
    counterexample: Optional[np.ndarray] = None
    boxes_explored: int = 0
    max_depth_reached: bool = False

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.verified


# --------------------------------------------------------------- query hashing
def _query_digest(
    sense: str, tables: Sequence[IntervalTable], low: np.ndarray, high: np.ndarray
) -> int:
    """Canonical 128-bit hash of a query (sense, polynomials, boxes).

    Feeds the resolution-limit sampling generators, making their draws a pure
    function of the query rather than of verifier call history.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(sense.encode("ascii"))
    for table in tables:
        h.update(b"|poly")
        h.update(np.int64(table.num_vars).tobytes())
        for plan in table.plans:
            h.update(np.asarray(plan, dtype=np.int64).tobytes())
            h.update(b";")
        h.update(table.coefficients.tobytes())
    h.update(b"|boxes")
    h.update(low.tobytes())
    h.update(high.tobytes())
    return int.from_bytes(h.digest(), "big")


def _box_rng(seed: int, digest: int, ordinal: int) -> np.random.Generator:
    """Deterministic generator for the ``ordinal``-th resolution-limit box."""
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF, digest)
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(ordinal,)))


# ------------------------------------------------------------ candidate points
_CORNER_SELECTORS: Dict[int, np.ndarray] = {}


def _corner_selectors(dim: int) -> np.ndarray:
    """``(2**dim, dim)`` bool selector matrix in ``Box.corners()`` order.

    Row ``r`` picks ``high`` where bit ``r`` is set, with variable 0 as the
    most significant bit — the ``np.meshgrid(..., indexing="ij")`` enumeration
    the scalar engine historically used.
    """
    sel = _CORNER_SELECTORS.get(dim)
    if sel is None:
        r = np.arange(1 << dim)
        sel = (r[:, None] >> (dim - 1 - np.arange(dim))[None, :]) & 1 > 0
        _CORNER_SELECTORS[dim] = sel
    return sel


def _candidate_count(dim: int) -> int:
    """Centre plus corners; corner enumeration is capped at 6 dimensions."""
    return 1 + (1 << dim) if dim <= 6 else 1


def _candidate_points(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Falsification candidates of ``(n, d)`` boxes as ``(n, m, d)`` points.

    Candidate order per box: centre first, then (for ``d <= 6``) the corners in
    binary-counting order.
    """
    count, dim = low.shape
    m = _candidate_count(dim)
    cand = np.empty((count, m, dim))
    cand[:, 0, :] = 0.5 * (low + high)
    if m > 1:
        sel = _corner_selectors(dim)
        cand[:, 1:, :] = np.where(sel[None, :, :], high[:, None, :], low[:, None, :])
    return cand


def _split_batch(
    low: np.ndarray, high: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Bisect ``(n, d)`` boxes along their widest axes.

    Children are interleaved ``[lower_0, upper_0, lower_1, upper_1, ...]`` —
    the canonical frontier order.
    """
    count, dim = low.shape
    widths = high - low
    axes = np.argmax(widths, axis=1)
    rows = np.arange(count)
    mids = 0.5 * (low[rows, axes] + high[rows, axes])
    left_high = high.copy()
    left_high[rows, axes] = mids
    right_low = low.copy()
    right_low[rows, axes] = mids
    new_low = np.empty((2 * count, dim))
    new_high = np.empty((2 * count, dim))
    new_low[0::2] = low
    new_low[1::2] = right_low
    new_high[0::2] = left_high
    new_high[1::2] = high
    return new_low, new_high


def _lower_query(
    polynomial: Polynomial,
    boxes: Sequence[Box],
    constraints: Sequence[Polynomial],
    sense: str,
) -> Optional[Tuple[IntervalTable, List[IntervalTable], np.ndarray, np.ndarray, str, int]]:
    """A proof query as ``(target, constraint tables, low, high, sense,
    digest)``; ``None`` when there is no box to search."""
    target = lower_interval(polynomial)
    ctables = [lower_interval(c) for c in constraints]
    boxes = list(boxes)
    if not boxes:
        return None
    low = np.array([b.low for b in boxes], dtype=float)
    high = np.array([b.high for b in boxes], dtype=float)
    digest = _query_digest(sense, [target, *ctables], low, high)
    return target, ctables, low, high, sense, digest


def _lower_cover(
    box: Box, barriers: Sequence[Polynomial], margins: Sequence[float] | None
) -> Tuple[List[IntervalTable], List[float], np.ndarray, np.ndarray]:
    """A cover query as ``(tables, margins, low, high)``."""
    if margins is None:
        margins = [0.0] * len(barriers)
    tables = [lower_interval(b) for b in barriers]
    margins = [float(m) for m in margins]
    low = np.asarray(box.low, dtype=float)[None, :]
    high = np.asarray(box.high, dtype=float)[None, :]
    return tables, margins, low, high


@dataclass
class BranchAndBoundVerifier:
    """Configurable branch-and-bound engine.

    Parameters
    ----------
    tolerance:
        Numeric slack: "p <= 0" is checked as "p <= tolerance".
    max_boxes:
        Budget on the number of boxes explored before giving up (returning
        ``verified=False`` with ``max_depth_reached=True``).
    min_width:
        Boxes whose widest side is below this width are resolved by sampling
        their centre point; this bounds the recursion depth.
    """

    tolerance: float = 1e-6
    max_boxes: int = 200_000
    min_width: float = 1e-4
    resolution_limit_policy: str = "sample"  # "sample" | "reject"
    resolution_samples: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.resolution_limit_policy not in ("sample", "reject"):
            raise ValueError("resolution_limit_policy must be 'sample' or 'reject'")

    # ------------------------------------------------------------------ core
    def prove_nonpositive(
        self,
        polynomial: Polynomial,
        boxes: Sequence[Box],
        constraints: Sequence[Polynomial] = (),
    ) -> CheckResult:
        """Prove ``polynomial(x) <= 0`` for all x in the boxes with every
        ``constraint(x) <= 0``.

        ``constraints`` restrict the domain to a polynomial sub-level set — this
        is how the induction condition (10) is checked only on the candidate
        invariant ``{E <= 0}``.
        """
        return self._prove(polynomial, boxes, constraints, sense="<=")

    def prove_positive(
        self,
        polynomial: Polynomial,
        boxes: Sequence[Box],
        constraints: Sequence[Polynomial] = (),
    ) -> CheckResult:
        """Prove ``polynomial(x) > 0`` on the constrained boxes (condition (8))."""
        return self._prove(polynomial, boxes, constraints, sense=">")

    def _prove(
        self,
        polynomial: Polynomial,
        boxes: Sequence[Box],
        constraints: Sequence[Polynomial],
        sense: str,
    ) -> CheckResult:
        query = _lower_query(polynomial, boxes, constraints, sense)
        if query is None:
            return CheckResult(True, boxes_explored=0)
        return self._prove_frontier(*query)

    # ------------------------------------------------------ frontier engine
    def _prove_frontier(
        self,
        target: IntervalTable,
        ctables: Sequence[IntervalTable],
        low: np.ndarray,
        high: np.ndarray,
        sense: str,
        digest: int,
    ) -> CheckResult:
        explored = 0
        limit_ordinal = 0
        tol = self.tolerance
        while low.shape[0]:
            remaining = self.max_boxes - explored
            if remaining <= 0:
                return CheckResult(
                    False,
                    counterexample=0.5 * (low[0] + high[0]),
                    boxes_explored=explored,
                    max_depth_reached=True,
                )
            overflow: Optional[Tuple[np.ndarray, np.ndarray]] = None
            if low.shape[0] > remaining:
                overflow = (low[remaining], high[remaining])
                low, high = low[:remaining], high[:remaining]
            count = low.shape[0]

            # Constraint pruning + target bounding, batched over the frontier.
            open_mask = np.ones(count, dtype=bool)
            for table in ctables:
                bound_low, _ = range_boxes(table, low, high)
                open_mask &= ~(bound_low > tol)
            bound_low, bound_high = range_boxes(target, low, high)
            if sense == "<=":
                open_mask &= ~(bound_high <= tol)
            else:
                open_mask &= ~(bound_low > -tol)
            open_idx = np.flatnonzero(open_mask)

            # Per-box terminal events, in canonical (frontier) order.  The
            # earliest event wins — exactly where the scalar walk would stop.
            event_box = count  # sentinel: no event
            event: Optional[CheckResult] = None

            witness_mask = np.zeros(count, dtype=bool)
            if open_idx.size:
                cand = _candidate_points(low[open_idx], high[open_idx])
                n_open, m, dim = cand.shape
                viol = self._violation_mask(
                    target, ctables, cand.reshape(-1, dim), sense
                ).reshape(n_open, m)
                has_witness = viol.any(axis=1)
                witness_mask[open_idx] = has_witness
                if has_witness.any():
                    local = int(np.argmax(has_witness))
                    event_box = int(open_idx[local])
                    first_cand = int(np.argmax(viol[local]))
                    event = CheckResult(
                        False,
                        counterexample=cand[local, first_cand].copy(),
                        boxes_explored=0,  # filled below
                    )

            # Resolution-limit boxes: open, no centre/corner witness, width
            # below min_width.  (Witness boxes terminate before their own
            # resolution-limit check, so they never consume a sample ordinal.)
            limit_mask = open_mask & ~witness_mask & (
                (high - low).max(axis=1) <= self.min_width
            )
            limit_idx = np.flatnonzero(limit_mask)
            if limit_idx.size and limit_idx[0] < event_box:
                if self.resolution_limit_policy == "sample":
                    k = self.resolution_samples
                    dim = low.shape[1]
                    samples = np.empty((limit_idx.size, k, dim))
                    for j, i in enumerate(limit_idx):
                        rng = _box_rng(self.seed, digest, limit_ordinal + j)
                        samples[j] = rng.uniform(low[i], high[i], (k, dim))
                    viol = self._violation_mask(
                        target, ctables, samples.reshape(-1, dim), sense
                    ).reshape(limit_idx.size, k)
                    has_sample = viol.any(axis=1)
                    hits = np.flatnonzero(has_sample)
                    for j in hits:
                        if limit_idx[j] >= event_box:
                            break
                        first_sample = int(np.argmax(viol[j]))
                        event_box = int(limit_idx[j])
                        event = CheckResult(
                            False,
                            counterexample=samples[j, first_sample].copy(),
                            boxes_explored=0,
                        )
                        break
                else:
                    centers = 0.5 * (low[limit_idx] + high[limit_idx])
                    feasible = self._feasible_mask(ctables, centers)
                    hits = np.flatnonzero(feasible)
                    if hits.size and limit_idx[hits[0]] < event_box:
                        j = int(hits[0])
                        event_box = int(limit_idx[j])
                        event = CheckResult(
                            False,
                            counterexample=centers[j].copy(),
                            boxes_explored=0,
                            max_depth_reached=True,
                        )

            if event is not None:
                event.boxes_explored = explored + event_box + 1
                return event

            explored += count
            if self.resolution_limit_policy == "sample":
                limit_ordinal += int(limit_idx.size)
            if overflow is not None:
                return CheckResult(
                    False,
                    counterexample=0.5 * (overflow[0] + overflow[1]),
                    boxes_explored=explored,
                    max_depth_reached=True,
                )

            split_idx = np.flatnonzero(open_mask & ~limit_mask)
            if not split_idx.size:
                break
            low, high = _split_batch(low[split_idx], high[split_idx])

        return CheckResult(True, boxes_explored=explored)

    # -------------------------------------------------------------- helpers
    def _feasible_mask(
        self, ctables: Sequence[IntervalTable], points: np.ndarray
    ) -> np.ndarray:
        feasible = np.ones(points.shape[0], dtype=bool)
        for table in ctables:
            feasible &= eval_points(table, points) <= self.tolerance
        return feasible

    def _violation_mask(
        self,
        target: IntervalTable,
        ctables: Sequence[IntervalTable],
        points: np.ndarray,
        sense: str,
    ) -> np.ndarray:
        feasible = self._feasible_mask(ctables, points)
        values = eval_points(target, points)
        if sense == "<=":
            return feasible & (values > self.tolerance)
        return feasible & (values <= -self.tolerance)

    def _first_violation(
        self,
        target: IntervalTable,
        ctables: Sequence[IntervalTable],
        points: np.ndarray,
        sense: str,
    ) -> Optional[np.ndarray]:
        violating = np.flatnonzero(self._violation_mask(target, ctables, points, sense))
        if violating.size:
            return points[violating[0]].copy()
        return None

    # ------------------------------------------------------------ coverage
    def find_uncovered_point(
        self,
        box: Box,
        barriers: Sequence[Polynomial],
        margins: Sequence[float] | None = None,
    ) -> Optional[np.ndarray]:
        """Search ``box`` for a point not covered by any ``{E_i <= margin_i}``.

        Returns ``None`` when the whole box is certified covered (every sub-box
        is contained in one of the sub-level sets down to the resolution limit,
        with centre-point checks at the limit), otherwise a witness point.

        This is the CEGIS driver query of Algorithm 2 (line 3-4).
        """
        if not barriers:
            return box.center.copy()
        return self._uncovered_frontier(*_lower_cover(box, barriers, margins))

    def _uncovered_frontier(
        self,
        tables: Sequence[IntervalTable],
        margins: Sequence[float],
        low: np.ndarray,
        high: np.ndarray,
    ) -> Optional[np.ndarray]:
        explored = 0
        while low.shape[0]:
            remaining = self.max_boxes - explored
            if remaining <= 0:
                candidate = 0.5 * (low[0] + high[0])
                if not self._covered_mask(tables, margins, candidate[None, :])[0]:
                    return candidate
                return None
            overflow: Optional[Tuple[np.ndarray, np.ndarray]] = None
            if low.shape[0] > remaining:
                overflow = (low[remaining], high[remaining])
                low, high = low[:remaining], high[:remaining]
            count = low.shape[0]

            open_mask = np.ones(count, dtype=bool)
            for table, margin in zip(tables, margins):
                _, bound_high = range_boxes(table, low, high)
                open_mask &= ~(bound_high <= margin + self.tolerance)
            open_idx = np.flatnonzero(open_mask)

            if open_idx.size:
                centers = 0.5 * (low[open_idx] + high[open_idx])
                uncovered = ~self._covered_mask(tables, margins, centers)
                hits = np.flatnonzero(uncovered)
                if hits.size:
                    return centers[int(hits[0])].copy()

            explored += count
            if overflow is not None:
                candidate = 0.5 * (overflow[0] + overflow[1])
                if not self._covered_mask(tables, margins, candidate[None, :])[0]:
                    return candidate
                return None

            limit_mask = (high - low).max(axis=1) <= self.min_width
            split_idx = np.flatnonzero(open_mask & ~limit_mask)
            if not split_idx.size:
                break
            low, high = _split_batch(low[split_idx], high[split_idx])
        return None

    def _covered_mask(
        self,
        tables: Sequence[IntervalTable],
        margins: Sequence[float],
        points: np.ndarray,
    ) -> np.ndarray:
        covered = np.zeros(points.shape[0], dtype=bool)
        for table, margin in zip(tables, margins):
            covered |= eval_points(table, points) <= margin + self.tolerance
        return covered


# ------------------------------------------------------------------ shortcuts
_DEFAULT = BranchAndBoundVerifier()


def prove_nonpositive(
    polynomial: Polynomial, boxes: Sequence[Box], constraints: Sequence[Polynomial] = ()
) -> CheckResult:
    """Module-level convenience wrapper using default verifier settings."""
    return _DEFAULT.prove_nonpositive(polynomial, boxes, constraints)


def prove_positive(
    polynomial: Polynomial, boxes: Sequence[Box], constraints: Sequence[Polynomial] = ()
) -> CheckResult:
    """Module-level convenience wrapper using default verifier settings."""
    return _DEFAULT.prove_positive(polynomial, boxes, constraints)


def find_uncovered_point(
    box: Box, barriers: Sequence[Polynomial], margins: Sequence[float] | None = None
) -> Optional[np.ndarray]:
    """Module-level convenience wrapper using default verifier settings."""
    return _DEFAULT.find_uncovered_point(box, barriers, margins)
