"""Retry policies with deterministic backoff, and the structured fault log.

:class:`RetryPolicy` governs how the fork runner
(:class:`~repro.faults.runner.ForkRunner`, on which the shard pool and the
parallel CEGIS driver both run) recovers a failed work unit: how many times
it may be re-submitted to a (respawned) fork pool before the guaranteed
in-process lane takes over, how long to back off between waves, and the
watchdog deadline after which a silent worker is declared hung.  Backoff jitter is *deterministic* — a hash
of ``(seed, site, index, attempt)`` — so a recovered run is reproducible
end to end, sleeps included.

:class:`FaultLog` is the provenance record: one :class:`FaultEvent` per
recovery decision (site, index, attempt, outcome, backoff), attached to
``ShardedCampaignResult``/``CEGISResult`` stats so a campaign that survived
faults says so instead of silently looking like a clean run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["RetryPolicy", "FaultEvent", "FaultLog"]


@dataclass(frozen=True)
class RetryPolicy:
    """How a failed shard / CEGIS slot is retried before inline recovery."""

    #: Total tries per work unit, the first submission included.  Once
    #: exhausted, the unit runs on the in-process lane (which cannot crash the
    #: pool and on which fault injection is disabled), so progress is
    #: guaranteed.
    max_attempts: int = 3
    #: First backoff; grows by ``backoff_multiplier`` each further attempt.
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    #: Deterministic jitter amplitude as a fraction of the backoff (±).
    jitter_fraction: float = 0.1
    #: Watchdog deadline for one shard's slot of a parallel wave; ``None``
    #: disables the watchdog (a hung worker then blocks until it returns).
    deadline_seconds: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_seconds < 0 or self.backoff_multiplier < 1:
            raise ValueError("backoff must be non-negative and non-decreasing")

    def backoff_for(self, site: str, index: Optional[int], attempt: int) -> float:
        """Backoff before re-submitting ``attempt`` (1-based retry ordinal)."""
        base = self.backoff_seconds * self.backoff_multiplier ** max(0, attempt - 1)
        if base <= 0.0 or self.jitter_fraction <= 0.0:
            return max(0.0, base)
        token = f"{self.seed}:{site}:{index}:{attempt}".encode()
        digest = hashlib.blake2b(token, digest_size=8).digest()
        unit = int.from_bytes(digest, "big") / float(2**64)
        return base * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))

    def wave_timeout(self, batch: int, workers: int) -> Optional[float]:
        """Watchdog timeout for a wave of ``batch`` units over ``workers`` slots.

        The per-unit deadline is scaled by how many units queue behind one
        worker, so an undersized pool is not mistaken for a hang.
        """
        if self.deadline_seconds is None:
            return None
        return self.deadline_seconds * max(1, math.ceil(batch / max(1, workers)))


@dataclass
class FaultEvent:
    """One recovery decision taken by the fork runner."""

    site: str
    index: Optional[int]
    attempt: int
    #: ``"retry"`` (re-submitted to a respawned pool) or ``"recovered-inline"``
    #: (ran on the in-process lane: attempts exhausted, or an ``OSError``
    #: while starting the fork pool, which sends the whole wave inline with
    #: the detail "could not start the fork pool").
    outcome: str
    detail: str = ""
    backoff_seconds: float = 0.0
    #: Seconds since the surrounding run started, for time-to-recover plots.
    at_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class FaultLog:
    """Structured, append-only record of every fault-recovery event."""

    events: List[FaultEvent] = field(default_factory=list)

    def record(self, **kwargs: Any) -> FaultEvent:
        event = FaultEvent(**kwargs)
        self.events.append(event)
        return event

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [event.to_dict() for event in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)
