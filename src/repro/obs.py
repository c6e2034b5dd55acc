"""Process counters: one table of named counts.

Caches and refutation layers count here by name (``kernel_cache.hits``,
``replay.misses``, ``prefilter.refuted`` …).  A result that reports counts
is a view of one :func:`delta` around its work.  Forked workers count into
their own copy of the table; :class:`~repro.faults.runner.ForkRunner`
merges each forked task's delta into the parent.
"""

from __future__ import annotations

from typing import Dict, Mapping

__all__ = ["count", "snapshot", "delta", "merge"]

Counts = Dict[str, float]

_COUNTS: Counts = {}


def count(name: str, n: float = 1) -> None:
    _COUNTS[name] = _COUNTS.get(name, 0) + n


def snapshot() -> Counts:
    return dict(_COUNTS)


def delta(since: Mapping[str, float]) -> Counts:
    """What was counted after the :func:`snapshot` ``since`` (changed names only)."""
    return {
        name: value - since.get(name, 0)
        for name, value in _COUNTS.items()
        if value != since.get(name, 0)
    }


def merge(counts: Mapping[str, float]) -> None:
    """Add a delta counted in another process (a forked worker, a checkpoint)."""
    for name, n in counts.items():
        count(name, n)
