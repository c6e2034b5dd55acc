"""Contiguous episode shard plans with deterministic per-shard seed streams.

A fleet of ``episodes`` rollouts splits into contiguous ``[start, stop)``
ranges, one per shard.  Two properties make the split safe to parallelise:

* the shard *count* is independent of the worker count (it defaults to
  :data:`DEFAULT_SHARDS`, lowered so that no default shard is narrower than
  :data:`MIN_SHARD_EPISODES`), so the same plan is
  executed whether one worker drains every shard or eight workers steal them —
  the per-shard work is literally identical;
* every shard draws from its own child of one root
  :class:`numpy.random.SeedSequence` (``root.spawn``), so shard streams never
  overlap and are reproduced exactly by any execution order.

Together these give the sharded runtime its headline contract: ``workers=1``
and ``workers=N`` produce bit-identical counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

__all__ = [
    "DEFAULT_SHARDS",
    "MIN_SHARD_EPISODES",
    "Shard",
    "plan_shards",
    "resolve_shards",
    "seed_sequence_for",
]

#: Default shard count: fine enough to keep 8 cores busy, coarse enough that
#: per-shard kernel launches stay large.  Chosen independently of ``workers``.
DEFAULT_SHARDS = 8

#: Narrowest shard the default plan makes.  Each shard is one lockstep
#: rollout with a fixed cost per step of about 100-160 episodes' work on the
#: pendulum fleet, so a fleet narrower than twice this runs as one shard.
MIN_SHARD_EPISODES = 500


@dataclass(frozen=True)
class Shard:
    """One contiguous episode range plus its private seed stream."""

    index: int
    start: int
    stop: int
    seed: np.random.SeedSequence

    @property
    def episodes(self) -> int:
        return self.stop - self.start


def resolve_shards(episodes: int, shards: Optional[int] = None) -> int:
    """The effective shard count: requested, clamped to the fleet; or by default
    :data:`DEFAULT_SHARDS`, but no more than one per :data:`MIN_SHARD_EPISODES`
    episodes."""
    if shards is None:
        return min(DEFAULT_SHARDS, max(1, int(episodes) // MIN_SHARD_EPISODES))
    count = int(shards)
    if count < 1:
        raise ValueError(f"shard count must be positive, got {count}")
    return min(count, max(int(episodes), 1))


def plan_shards(
    episodes: int,
    shards: Optional[int] = None,
    seed: Union[int, np.random.SeedSequence] = 0,
) -> List[Shard]:
    """Split ``episodes`` into contiguous shards with spawned seed streams.

    Remainder episodes are spread over the leading shards, so widths differ by
    at most one and every episode is covered exactly once.  ``seed`` may be an
    integer or a :class:`~numpy.random.SeedSequence`; note that spawning
    advances the sequence's child counter, so reusing one ``SeedSequence``
    object across runs yields fresh (but still deterministic) shard streams.
    """
    episodes = int(episodes)
    if episodes <= 0:
        raise ValueError(f"episodes must be positive, got {episodes}")
    count = resolve_shards(episodes, shards)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    children = root.spawn(count)
    base, extra = divmod(episodes, count)
    plan: List[Shard] = []
    cursor = 0
    for index in range(count):
        width = base + (1 if index < extra else 0)
        plan.append(Shard(index=index, start=cursor, stop=cursor + width, seed=children[index]))
        cursor += width
    assert cursor == episodes
    return plan


def seed_sequence_for(rng: np.random.Generator) -> np.random.SeedSequence:
    """The root seed sequence behind a Generator (shard streams spawn from it).

    Falls back to deriving a sequence from the generator's own stream when the
    bit generator does not expose one (custom bit generators) — deterministic
    for a given generator state, though it advances that state by one draw.
    """
    bit_generator = rng.bit_generator
    sequence = getattr(bit_generator, "seed_seq", None)
    if sequence is None:
        sequence = getattr(bit_generator, "_seed_seq", None)
    if isinstance(sequence, np.random.SeedSequence):
        return sequence
    return np.random.SeedSequence(int(rng.integers(0, 2**63)))
