"""Sharded multi-core fleet execution over shared-memory workspaces.

Splits ``(episodes, state_dim)`` fleet campaigns into contiguous episode
shards (:mod:`repro.shard.plan`), runs each shard's fused closed-loop kernel
in a persistent pool of fork-inherited worker processes writing straight into
one :mod:`multiprocessing.shared_memory` arena (:mod:`repro.shard.memory`,
:mod:`repro.shard.pool`), and merges counters, reward sums, barrier peaks and
disturbance-residual moments deterministically in shard order
(:mod:`repro.shard.fleet`).  The shard plan — and therefore every counter —
is independent of the worker count: ``workers=1`` and ``workers=N`` are
bit-identical under per-shard :class:`~numpy.random.SeedSequence` streams.
"""

from .fleet import disturbance_estimate_from_moments, merge_moments
from .memory import ArenaField, ArenaSpec, ShardArena, attach_arena, create_arena
from .plan import (
    DEFAULT_SHARDS,
    MIN_SHARD_EPISODES,
    Shard,
    plan_shards,
    resolve_shards,
    seed_sequence_for,
)
from .pool import ShardPool

__all__ = [
    "DEFAULT_SHARDS",
    "MIN_SHARD_EPISODES",
    "Shard",
    "plan_shards",
    "resolve_shards",
    "seed_sequence_for",
    "ArenaField",
    "ArenaSpec",
    "ShardArena",
    "create_arena",
    "attach_arena",
    "ShardPool",
    "merge_moments",
    "disturbance_estimate_from_moments",
]
