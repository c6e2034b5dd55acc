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

A box that reaches the resolution limit (widest side ``<= min_width``) with
an inconclusive natural bound gets one more bound: the centred (mean-value)
form :func:`~repro.certificates.interval_batch.centred_boxes`, whose excess
shrinks with the square of the width rather than linearly.  If it proves
the box (a constraint above the tolerance throughout, or the target within
the sense), the box is discharged like any other bounded box.  Only the
boxes it cannot prove are left to the ``resolution_limit_policy``: under
``"sample"`` they are accepted when random samples show no violation
(:attr:`CheckResult.sampled_boxes` counts them), under ``"reject"`` a
feasible centre refutes the query.

So "verified" means: proved by interval bounds on every box, except the
``sampled_boxes`` limit boxes that rest on sampling alone, and up to the
numeric tolerance and round-to-nearest arithmetic.  Completeness is bounded
by the resolution limit, mirroring the inherent incompleteness the paper
notes for its own CEGIS loop.

Frontier engine and determinism contract
----------------------------------------
The verifier advances the frontier of open boxes round by round as
``(n_boxes, dim)`` endpoint arrays — constraint pruning, target bounding,
centre/corner falsification, resolution-limit handling, and splitting are all
batched array operations over lowered monomial tables
(:mod:`repro.certificates.interval_batch`).  Its differential oracle, the
scalar engine in :mod:`repro.reference.bnb`, walks the same queue one box at
a time.

A round is processed in chunks of :data:`CHUNK_BOXES` boxes, in canonical
order; a chunk never splits a sibling pair.  Each chunk runs every step
above and writes its children into the next frontier's buffer, and the round
ends at the first chunk that holds a terminal event.  So a query's memory is
the frontier's endpoint arrays (the open boxes, and room for two children
each) plus a working set bounded by the chunk: bounds, candidate points and
samples are never held for the whole frontier at once.  A round smaller than
a chunk is one chunk.

Both engines explore the canonical frontier order — breadth-first: the initial
boxes in the order given, then each surviving box's lower/upper children in
parent order — and both select the **first witness in that order** (within a
box: the centre, then the corners in binary-counting order, then the
resolution-limit samples in draw order).  Because they also share the same
batch-size-independent numeric kernels, verdicts, counterexamples,
``boxes_explored``, and ``max_depth_reached`` are bit-identical between them.

The scalar walk evaluates every candidate of every open box; the frontier
evaluates fewer points and finds the same first witness.  In the initial
round it evaluates each open box's centre and corners.  After that the
frontier holds sibling pairs ``(2p, 2p+1)``, each split from a parent whose
centre and corners were all evaluated and found clean (had one violated,
the query would have returned).  Half of a child's corners are its
parent's, the same floats, so they cannot violate; the other half lie on
the split face and are the same floats for both siblings.  Each round
therefore evaluates the centre of every open box plus the face corners
once per pair with an open child, and a box's first witness is its centre
or else its pair's first violating face corner — the first violating
candidate in the scalar walk's order.  Constraint and target bounds are
computed only on the boxes the previous test left open; rows do not depend
on batch size, so neither this nor the chunking changes any value.

Resolution-limit sampling draws from a generator derived from ``seed``, a
canonical hash of the query (sense, lowered polynomials, boxes), and the
ordinal of the limit box in canonical order — never from shared verifier
state — so verdicts are reproducible regardless of how many queries the
verifier answered before, and identical across the two engines.  Every limit
box takes an ordinal, including those the centred form then proves, so a
box that is sampled draws the same stream as it would without that proof,
and ordinals keep counting across chunks and rounds.  A proved box has (up
to rounding) no feasible point with a violating value, so its samples could
never have produced a witness: under ``"sample"`` the centred form changes
no verdict, counterexample, ``boxes_explored`` or ``max_depth_reached``,
only how many boxes rest on sampling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..polynomials import Polynomial
from .interval_batch import (
    IntervalTable,
    centred_boxes,
    eval_points,
    lower_interval,
    range_boxes,
)
from .regions import Box

__all__ = [
    "CheckResult",
    "BranchAndBoundVerifier",
    "prove_nonpositive",
    "prove_positive",
    "find_uncovered_point",
]

#: Boxes of a branch-and-bound round processed at a time (rounded up to an
#: even count, so that a chunk holds whole sibling pairs).  Everything a
#: chunk allocates scales with it rather than with the frontier.
CHUNK_BOXES = 4096


@dataclass
class CheckResult:
    """Outcome of a branch-and-bound query."""

    verified: bool
    counterexample: Optional[np.ndarray] = None
    boxes_explored: int = 0
    max_depth_reached: bool = False
    #: Resolution-limit boxes accepted because random samples found no
    #: violation, not because a bound proved them.
    sampled_boxes: int = 0

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


_FACE_SELECTORS: Dict[int, np.ndarray] = {}


def _face_selectors(dim: int) -> np.ndarray:
    """``(dim, 2**(dim-1), dim)``: for split axis ``a``, the rows of
    :func:`_corner_selectors` that pick ``high`` on axis ``a``, in order."""
    sel = _FACE_SELECTORS.get(dim)
    if sel is None:
        corners = _corner_selectors(dim)
        sel = np.stack([corners[corners[:, axis]] for axis in range(dim)])
        _FACE_SELECTORS[dim] = sel
    return sel


def _face_points(low: np.ndarray, high: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Split-face corners of sibling pairs as ``(n, 2**(d-1), d)`` points.

    ``low``/``high`` are the pairs' lower children and ``axes`` their parents'
    split axes.  The lower child's corners that take ``high`` (the split
    point) on the split axis lie on the face; in binary-counting order they
    are, bit for bit, the upper sibling's corners that take its ``low`` there.
    """
    sel = _face_selectors(low.shape[1])[axes]
    return np.where(sel, high[:, None, :], low[:, None, :])


def _split_batch(
    low: np.ndarray,
    high: np.ndarray,
    out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bisect ``(n, d)`` boxes along their widest axes.

    Returns the children, interleaved ``[lower_0, upper_0, lower_1, upper_1,
    ...]`` — the canonical frontier order — and the ``(n,)`` split axes.
    The children are written into ``out``'s ``(2n, d)`` arrays when given.
    """
    count, dim = low.shape
    axes = np.argmax(high - low, axis=1)
    rows = np.arange(count)
    mids = 0.5 * (low[rows, axes] + high[rows, axes])
    if out is None:
        out = np.empty((2 * count, dim)), np.empty((2 * count, dim))
    new_low, new_high = out
    new_low[0::2] = low
    new_low[1::2] = low
    new_low[1::2][rows, axes] = mids  # the upper child starts at the split
    new_high[0::2] = high
    new_high[1::2] = high
    new_high[0::2][rows, axes] = mids  # the lower child ends there
    return new_low, new_high, axes


def _chunks(count: int) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` of a round's chunks of :data:`CHUNK_BOXES` boxes, in
    canonical order; starts are even, so no chunk splits a sibling pair."""
    step = CHUNK_BOXES + (CHUNK_BOXES & 1)
    for start in range(0, count, step):
        yield start, min(start + step, count)


class _Children:
    """The next round's frontier, written chunk by chunk in canonical order.

    It has room for two children per box of the round; only the rows the
    splits write are touched.
    """

    def __init__(self, boxes: int, dim: int) -> None:
        self.low = np.empty((2 * boxes, dim))
        self.high = np.empty((2 * boxes, dim))
        self.axes = np.empty(boxes, dtype=np.intp)
        self.pairs = 0

    def split(self, low: np.ndarray, high: np.ndarray) -> None:
        """Append the children of the ``(n, d)`` boxes."""
        start, stop = self.pairs, self.pairs + low.shape[0]
        rows = slice(2 * start, 2 * stop)
        _, _, self.axes[start:stop] = _split_batch(
            low, high, out=(self.low[rows], self.high[rows])
        )
        self.pairs = stop

    def frontier(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(low, high, axes)``: the children and their parents' split axes."""
        rows = 2 * self.pairs
        return self.low[:rows], self.high[:rows], self.axes[: self.pairs]



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
        Boxes whose widest side is at most this width are not split further;
        this bounds the recursion depth.  Such a resolution-limit box is
        proved by the centred form if it can be, and otherwise resolved by
        ``resolution_limit_policy``.
    resolution_limit_policy:
        ``"sample"`` accepts an unproved limit box when none of
        ``resolution_samples`` random points in it violates the inequality;
        ``"reject"`` refutes the query at the first unproved limit box with
        a feasible centre (``max_depth_reached=True``).
    resolution_samples:
        Points drawn per unproved limit box under ``"sample"``.
    seed:
        Seeds the per-query, per-box sampling generators.
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
        # Each of these would let a box count as proved without being
        # examined: no samples at the resolution limit, no budget, no
        # recursion bound, or a slack that loosens the checked inequality.
        if self.resolution_samples < 1:
            raise ValueError("resolution_samples must be at least 1")
        if self.max_boxes < 1:
            raise ValueError("max_boxes must be at least 1")
        if not (np.isfinite(self.min_width) and self.min_width > 0):
            raise ValueError("min_width must be positive and finite")
        if not self.tolerance >= 0:
            raise ValueError("tolerance must be non-negative")

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
        ordinal = 0  # the next resolution-limit box's sampling ordinal
        sampled = 0
        axes: Optional[np.ndarray] = None  # parents' split axes, one per sibling pair
        while low.shape[0]:
            # Boxes past the budget are not examined; the first of them is
            # returned unresolved.
            count = min(low.shape[0], self.max_boxes - explored)
            overflow = low.shape[0] > count
            children = _Children(0 if overflow else count, low.shape[1])
            for start, stop in _chunks(count):
                event, limits, n_sampled, wide_low, wide_high = self._prove_chunk(
                    target,
                    ctables,
                    sense,
                    digest,
                    low[start:stop],
                    high[start:stop],
                    None if axes is None else axes[start >> 1 : (stop + 1) >> 1],
                    ordinal,
                )
                if event is not None:
                    event.boxes_explored += explored + start
                    event.sampled_boxes += sampled
                    return event
                ordinal += limits
                sampled += n_sampled
                if not overflow:
                    children.split(wide_low, wide_high)
            explored += count
            if overflow:
                return CheckResult(
                    False,
                    counterexample=0.5 * (low[count] + high[count]),
                    boxes_explored=explored,
                    max_depth_reached=True,
                    sampled_boxes=sampled,
                )
            low, high, axes = children.frontier()

        return CheckResult(True, boxes_explored=explored, sampled_boxes=sampled)

    def _prove_chunk(
        self,
        target: IntervalTable,
        ctables: Sequence[IntervalTable],
        sense: str,
        digest: int,
        low: np.ndarray,
        high: np.ndarray,
        axes: Optional[np.ndarray],
        ordinal: int,
    ) -> Tuple[Optional[CheckResult], int, int, Optional[np.ndarray], Optional[np.ndarray]]:
        """One chunk of a round: the boxes ``low``/``high``, whole sibling
        pairs split along ``axes`` (``None`` in the initial round), whose
        first resolution-limit box takes sampling ordinal ``ordinal``.

        Returns ``(event, limits, sampled, wide_low, wide_high)``: the
        chunk's first terminal event, with ``boxes_explored`` and
        ``sampled_boxes`` counted from the chunk's start, or ``None``; the
        number of resolution-limit boxes (ordinals taken) and of those
        accepted on samples; and the open boxes above the resolution limit,
        which the round splits.
        """
        count, dim = low.shape
        tol = self.tolerance

        # Constraint pruning, then target bounding, each batched over the
        # boxes still open.
        open_idx = np.arange(count)
        open_low, open_high = low, high
        for table in ctables:
            bound_low, _ = range_boxes(table, open_low, open_high)
            keep = ~(bound_low > tol)
            open_idx, open_low, open_high = open_idx[keep], open_low[keep], open_high[keep]
        bound_low, bound_high = range_boxes(target, open_low, open_high)
        keep = ~(bound_high <= tol) if sense == "<=" else ~(bound_low > -tol)
        open_idx, open_low, open_high = open_idx[keep], open_low[keep], open_high[keep]

        # Per-box terminal events, in canonical (frontier) order.  The
        # earliest event wins — exactly where the scalar walk would stop.
        event_box = count  # sentinel: no event
        event: Optional[CheckResult] = None
        if open_idx.size:
            faces = pair = None
            if axes is not None and _candidate_count(dim) > 1:
                # Face corners once per sibling pair with an open child;
                # ``pair`` maps each open box to its pair's row.  This is
                # ``np.unique(open_idx >> 1, return_inverse=True)`` for
                # sorted input, at about two thirds of its per-round cost.
                pair_of = open_idx >> 1
                first = np.empty(pair_of.size, dtype=bool)
                first[0] = True
                np.not_equal(pair_of[1:], pair_of[:-1], out=first[1:])
                pairs, pair = pair_of[first], np.cumsum(first) - 1
                faces = _face_points(low[2 * pairs], high[2 * pairs], axes[pairs])
            witness = self._first_witness(
                target, ctables, sense, open_idx, open_low, open_high, faces, pair
            )
            if witness is not None:
                event_box, point = witness
                event = CheckResult(False, counterexample=point)

        # Resolution-limit boxes: open, below min_width, and ahead of the
        # witness box (which stops the walk before its own limit check).
        # Each keeps the ordinal of its place among them; then those the
        # centred form proves are dropped, and only the rest are sampled
        # (or, under "reject", refuted).
        narrow = (open_high - open_low).max(axis=1) <= self.min_width
        limit_idx = open_idx[narrow]
        ahead = limit_idx if event is None else limit_idx[limit_idx < event_box]
        sampled = 0
        if ahead.size:
            ordinals = ordinal + np.arange(ahead.size)
            unproved = ~self._centred_proved(target, ctables, sense, low[ahead], high[ahead])
            ahead, ordinals = ahead[unproved], ordinals[unproved]
        if ahead.size:
            if self.resolution_limit_policy == "sample":
                k = self.resolution_samples
                samples = np.empty((ahead.size, k, dim))
                for j, (i, box_ordinal) in enumerate(zip(ahead, ordinals)):
                    rng = _box_rng(self.seed, digest, int(box_ordinal))
                    samples[j] = rng.uniform(low[i], high[i], (k, dim))
                viol = self._violation_mask(
                    target, ctables, samples.reshape(-1, dim), sense
                ).reshape(ahead.size, -1)
                hits = np.flatnonzero(viol.any(axis=1))
                if hits.size:
                    j = int(hits[0])
                    sampled = j
                    event_box = int(ahead[j])
                    event = CheckResult(
                        False, counterexample=samples[j, int(np.argmax(viol[j]))].copy()
                    )
                else:
                    sampled = ahead.size
            else:
                centers = 0.5 * (low[ahead] + high[ahead])
                hits = np.flatnonzero(self._feasible_mask(ctables, centers))
                if hits.size:
                    j = int(hits[0])
                    event_box = int(ahead[j])
                    event = CheckResult(
                        False, counterexample=centers[j].copy(), max_depth_reached=True
                    )

        if event is not None:
            event.boxes_explored = event_box + 1
            event.sampled_boxes = sampled
            return event, 0, 0, None, None
        wide = ~narrow
        return None, int(limit_idx.size), sampled, open_low[wide], open_high[wide]

    def _first_witness(
        self,
        target: IntervalTable,
        ctables: Sequence[IntervalTable],
        sense: str,
        open_idx: np.ndarray,
        open_low: np.ndarray,
        open_high: np.ndarray,
        faces: Optional[np.ndarray],
        pair: Optional[np.ndarray],
    ) -> Optional[Tuple[int, np.ndarray]]:
        """``(box, point)``: the first open box with a violating centre or
        corner, and its first such point; ``None`` if there is none.

        ``faces`` is ``None`` in the initial round and above the corner cap;
        otherwise the frontier is sibling pairs ``(2p, 2p+1)`` split from
        parents whose centre and corners were clean, and ``faces[pair[i]]``
        holds the corners of open box ``i``'s split face
        (:func:`_face_points`).  A child's other corners are its parent's,
        which cannot violate, so the centres and the faces are all that is
        evaluated.
        """
        dim = open_low.shape[1]
        if faces is None:
            cand = _candidate_points(open_low, open_high)
            n_open, m, _ = cand.shape
            viol = self._violation_mask(
                target, ctables, cand.reshape(-1, dim), sense
            ).reshape(n_open, m)
            hit = viol.any(axis=1)
            if not hit.any():
                return None
            local = int(np.argmax(hit))
            return int(open_idx[local]), cand[local, int(np.argmax(viol[local]))].copy()

        centers = 0.5 * (open_low + open_high)
        n_open = centers.shape[0]
        n_pairs, m, _ = faces.shape
        viol = self._violation_mask(
            target, ctables, np.concatenate([centers, faces.reshape(-1, dim)]), sense
        )
        center_viol = viol[:n_open]
        face_viol = viol[n_open:].reshape(n_pairs, m)
        hit = center_viol | face_viol.any(axis=1)[pair]
        if not hit.any():
            return None
        local = int(np.argmax(hit))
        if center_viol[local]:
            return int(open_idx[local]), centers[local].copy()
        row = pair[local]
        return int(open_idx[local]), faces[row, int(np.argmax(face_viol[row]))].copy()

    # -------------------------------------------------------------- helpers
    def _centred_proved(
        self,
        target: IntervalTable,
        ctables: Sequence[IntervalTable],
        sense: str,
        low: np.ndarray,
        high: np.ndarray,
    ) -> np.ndarray:
        """Mask of the ``(n, d)`` boxes the centred form proves: some
        constraint is ``> tolerance`` on the whole box, or the target meets
        the sense there.  Either way no point of the box can violate."""
        tol = self.tolerance
        proved = np.zeros(low.shape[0], dtype=bool)
        for table in ctables:
            rows = np.flatnonzero(~proved)
            bound_low, _ = centred_boxes(table, low[rows], high[rows])
            proved[rows[bound_low > tol]] = True
        rows = np.flatnonzero(~proved)
        bound_low, bound_high = centred_boxes(target, low[rows], high[rows])
        holds = bound_high <= tol if sense == "<=" else bound_low > -tol
        proved[rows[holds]] = True
        return proved

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
            count = min(low.shape[0], self.max_boxes - explored)
            overflow = low.shape[0] > count
            children = _Children(0 if overflow else count, low.shape[1])
            for start, stop in _chunks(count):
                chunk_low, chunk_high = low[start:stop], high[start:stop]
                open_mask = np.ones(stop - start, dtype=bool)
                for table, margin in zip(tables, margins):
                    _, bound_high = range_boxes(table, chunk_low, chunk_high)
                    open_mask &= ~(bound_high <= margin + self.tolerance)
                open_idx = np.flatnonzero(open_mask)

                if open_idx.size:
                    centers = 0.5 * (chunk_low[open_idx] + chunk_high[open_idx])
                    uncovered = ~self._covered_mask(tables, margins, centers)
                    hits = np.flatnonzero(uncovered)
                    if hits.size:
                        return centers[int(hits[0])].copy()

                if not overflow:
                    split = open_mask & ~((chunk_high - chunk_low).max(axis=1) <= self.min_width)
                    children.split(chunk_low[split], chunk_high[split])
            explored += count
            if overflow:
                # Budget exhausted: fall back to the centre of an unresolved box.
                candidate = 0.5 * (low[count] + high[count])
                if not self._covered_mask(tables, margins, candidate[None, :])[0]:
                    return candidate
                return None
            low, high, _ = children.frontier()
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
