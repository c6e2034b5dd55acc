"""The merge rules that keep sharded fleet runs deterministic.

Per-episode arrays need no merging at all — shards own disjoint contiguous
slices of the shared arena, so the assembled arrays are in global episode
order by construction, and the pool hands them as they are to the run's
:class:`~repro.runtime.metrics.DeploymentMetrics` or
:class:`~repro.runtime.monitored.FleetMonitorReport`.  What does need care:

* **Disturbance residuals.**  Workers ship sufficient statistics
  ``(count, Σd, Σ d dᵀ)`` instead of raw residual lists; the parent adds the
  triples *in shard order* and fits mean/covariance from the totals
  (:func:`disturbance_estimate_from_moments`).  The summation order is fixed,
  so the fitted estimate is bit-identical for every worker count.
* **Counters.**  Shield decision/intervention counters incremented inside a
  forked worker die with the fork; workers return deltas and the pool folds
  them into the parent's shield.  The fork runner tags each result with its
  lane, and in-process shards, which mutated the parent directly, are not
  folded (the CEGIS replay-cache merge follows the same rule).  Process
  counters (:mod:`repro.obs`) need no fold here: the runner merges each
  forked shard's delta itself.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..envs.disturbance import DisturbanceEstimate

__all__ = ["merge_moments", "disturbance_estimate_from_moments"]

#: A shard's residual sufficient statistics: (count, Σd, Σ d dᵀ).
Moments = Tuple[int, np.ndarray, np.ndarray]


def merge_moments(moments: Sequence[Optional[Moments]], state_dim: int) -> Moments:
    """Add per-shard moment triples in the given (shard) order."""
    count = 0
    total = np.zeros(state_dim)
    outer = np.zeros((state_dim, state_dim))
    for triple in moments:
        if triple is None:
            continue
        count += int(triple[0])
        total += triple[1]
        outer += triple[2]
    return count, total, outer


def disturbance_estimate_from_moments(
    count: int,
    total: np.ndarray,
    outer: np.ndarray,
    confidence_sigmas: float = 3.0,
) -> Optional[DisturbanceEstimate]:
    """Fit the multivariate-normal estimate from merged sufficient statistics.

    Algebraically the same sample mean / (n−1)-normalised covariance that
    :meth:`DisturbanceEstimator.estimate` fits from the raw residual matrix;
    computed from moments it is reproduced bit-for-bit by any shard split.
    Returns ``None`` below the two-sample minimum, like the raw-residual fit.
    """
    if count < 2:
        return None
    mean = total / count
    covariance = np.atleast_2d((outer - count * np.outer(mean, mean)) / (count - 1))
    std = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    bound = np.abs(mean) + confidence_sigmas * std
    return DisturbanceEstimate(
        mean=mean,
        covariance=covariance,
        bound=bound,
        samples=int(count),
        confidence_sigmas=confidence_sigmas,
    )
