"""The scalar branch-and-bound engine: the frontier engine's differential oracle.

:class:`ScalarBranchAndBoundVerifier` answers the queries of
:class:`~repro.certificates.smt.BranchAndBoundVerifier` by popping open boxes
one at a time, in the canonical breadth-first order the frontier engine
batches.  The two engines share the query lowering, the resolution-limit
generators and the batch-size-independent interval kernels, so verdicts,
counterexamples, ``boxes_explored``, ``max_depth_reached`` and
``sampled_boxes`` must be bit-identical (``tests/test_bnb_engines.py``, the
``backends`` fuzz family).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence, Tuple

import numpy as np

from ..certificates.interval_batch import IntervalTable, centred_boxes, range_boxes
from ..certificates.smt import (
    BranchAndBoundVerifier,
    CheckResult,
    _box_rng,
    _candidate_points,
    _lower_cover,
    _lower_query,
    _split_batch,
)

__all__ = ["ScalarBranchAndBoundVerifier"]


class ScalarBranchAndBoundVerifier(BranchAndBoundVerifier):
    """A :class:`BranchAndBoundVerifier` whose queries walk one box at a time."""

    def _prove(self, polynomial, boxes, constraints, sense) -> CheckResult:
        query = _lower_query(polynomial, boxes, constraints, sense)
        if query is None:
            return CheckResult(True, boxes_explored=0)
        return self._prove_scalar(*query)

    def find_uncovered_point(self, box, barriers, margins=None) -> Optional[np.ndarray]:
        if not barriers:
            return box.center.copy()
        return self._uncovered_scalar(*_lower_cover(box, barriers, margins))

    def _prove_scalar(
        self,
        target: IntervalTable,
        ctables: Sequence[IntervalTable],
        low: np.ndarray,
        high: np.ndarray,
        sense: str,
        digest: int,
    ) -> CheckResult:
        queue: Deque[Tuple[np.ndarray, np.ndarray]] = deque(
            (low[i], high[i]) for i in range(low.shape[0])
        )
        explored = 0
        limit_ordinal = 0
        sampled = 0
        while queue:
            if explored >= self.max_boxes:
                head_low, head_high = queue[0]
                return CheckResult(
                    False,
                    counterexample=0.5 * (head_low + head_high),
                    boxes_explored=explored,
                    max_depth_reached=True,
                    sampled_boxes=sampled,
                )
            box_low, box_high = queue.popleft()
            explored += 1
            row_low = box_low[None, :]
            row_high = box_high[None, :]

            # Prune boxes that provably lie outside the constrained domain.
            outside = False
            for table in ctables:
                bound_low, _ = range_boxes(table, row_low, row_high)
                if bound_low[0] > self.tolerance:
                    outside = True
                    break
            if outside:
                continue

            bound_low, bound_high = range_boxes(target, row_low, row_high)
            if sense == "<=" and bound_high[0] <= self.tolerance:
                continue
            if sense == ">" and bound_low[0] > -self.tolerance:
                continue

            # Try to exhibit a concrete counterexample at the centre/corners.
            candidates = _candidate_points(row_low, row_high)[0]
            witness = self._first_violation(target, ctables, candidates, sense)
            if witness is not None:
                return CheckResult(
                    False, counterexample=witness, boxes_explored=explored,
                    sampled_boxes=sampled,
                )

            widths = box_high - box_low
            if float(np.max(widths)) <= self.min_width:
                # Resolution limit: the natural interval bound is inconclusive
                # and no violating point was found among the centre/corners.
                # The box takes the next ordinal, then the centred (mean-value)
                # form gets one try at proving it outright.  Failing that,
                # under the default "sample" policy we densely sample the box
                # and accept it when no violation appears (documented
                # δ-completeness trade-off: the property is proven everywhere
                # except possibly inside resolution-limit boxes that passed
                # dense sampling).  Under "reject" the box is reported as a
                # potential counterexample.
                ordinal = limit_ordinal
                limit_ordinal += 1
                if self._centred_proves_box(target, ctables, sense, row_low, row_high):
                    continue
                if self.resolution_limit_policy == "sample":
                    rng = _box_rng(self.seed, digest, ordinal)
                    samples = rng.uniform(
                        box_low, box_high, (self.resolution_samples, box_low.shape[0])
                    )
                    witness = self._first_violation(target, ctables, samples, sense)
                    if witness is not None:
                        return CheckResult(
                            False, counterexample=witness, boxes_explored=explored,
                            sampled_boxes=sampled,
                        )
                    sampled += 1
                    continue
                center = 0.5 * (box_low + box_high)
                if self._feasible_mask(ctables, center[None, :])[0]:
                    return CheckResult(
                        False,
                        counterexample=center,
                        boxes_explored=explored,
                        max_depth_reached=True,
                    )
                continue

            child_low, child_high, _ = _split_batch(row_low, row_high)
            queue.append((child_low[0], child_high[0]))
            queue.append((child_low[1], child_high[1]))

        return CheckResult(True, boxes_explored=explored, sampled_boxes=sampled)

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

    def _centred_proves_box(
        self,
        target: IntervalTable,
        ctables: Sequence[IntervalTable],
        sense: str,
        row_low: np.ndarray,
        row_high: np.ndarray,
    ) -> bool:
        """Whether the centred form proves one ``(1, d)`` box: a constraint
        is ``> tolerance`` on all of it, or the target meets the sense."""
        for table in ctables:
            bound_low, _ = centred_boxes(table, row_low, row_high)
            if bound_low[0] > self.tolerance:
                return True
        bound_low, bound_high = centred_boxes(target, row_low, row_high)
        if sense == "<=":
            return bool(bound_high[0] <= self.tolerance)
        return bool(bound_low[0] > -self.tolerance)

    def _uncovered_scalar(
        self,
        tables: Sequence[IntervalTable],
        margins: Sequence[float],
        low: np.ndarray,
        high: np.ndarray,
    ) -> Optional[np.ndarray]:
        queue: Deque[Tuple[np.ndarray, np.ndarray]] = deque([(low[0], high[0])])
        explored = 0
        while queue:
            if explored >= self.max_boxes:
                # Budget exhausted: fall back to the centre of an unresolved box.
                head_low, head_high = queue[0]
                candidate = 0.5 * (head_low + head_high)
                if not self._covered_mask(tables, margins, candidate[None, :])[0]:
                    return candidate
                return None
            box_low, box_high = queue.popleft()
            explored += 1
            row_low = box_low[None, :]
            row_high = box_high[None, :]

            covered = False
            for table, margin in zip(tables, margins):
                _, bound_high = range_boxes(table, row_low, row_high)
                if bound_high[0] <= margin + self.tolerance:
                    covered = True
                    break
            if covered:
                continue

            center = 0.5 * (box_low + box_high)
            if not self._covered_mask(tables, margins, center[None, :])[0]:
                return center

            if float(np.max(box_high - box_low)) <= self.min_width:
                # Centre covered and resolution limit hit: accept as covered.
                continue

            child_low, child_high, _ = _split_batch(row_low, row_high)
            queue.append((child_low[0], child_high[0]))
            queue.append((child_low[1], child_high[1]))
        return None
