"""Counterexample replay cache for the CEGIS verification hot path.

Every counterexample discovered while verifying candidate programs is worth
remembering: a state from which *some* candidate's closed loop reached an
unsafe state tends to break the next candidate too (the candidates are small
perturbations of each other), and each failed attempt otherwise costs a full
run of the expensive certificate machinery (sampled-LP barrier search plus
interval branch-and-bound, or the exact Lyapunov solve).

The cache stores two families of records:

* **trajectory witnesses** — initial states from which a previously considered
  closed loop *provably* reached an unsafe state (by direct disturbance-free
  simulation).  Replaying a witness against a new candidate is a batched
  simulation (the PR-1 vectorized rollout API); if the new closed loop also
  reaches an unsafe state, *no* sound certificate for the candidate exists on
  any region containing the witness, so the expensive checker can be skipped
  with the *identical* verdict it would have produced.  This is what makes the
  cache verdict-preserving: cache-on and cache-off runs take the same path
  through Algorithm 2 and yield bit-identical results.
* **condition counterexamples** — the concrete states returned by the
  branch-and-bound checker when a candidate invariant violates conditions
  (8)-(10).  These are specific to one candidate invariant and are *recorded*
  (for provenance, regression corpora, and the ``repro store`` artifacts) but
  never used to short-circuit a verdict.

A process-wide recorder hook (:func:`install_global_recorder`) lets a test
session persist every counterexample seen anywhere in the toolchain — the
tier-1 suite uses it to maintain ``tests/data/counterexamples/``.

The verification kernel replays this record stream on verdict-cache hits: a
cached verdict re-emits the condition counterexamples its original proof
produced (see :mod:`repro.store.verdicts`), so a cache-served CEGIS run feeds
this module exactly the same records a fresh one would.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from .. import obs
from ..certificates.regions import Box
from ..envs.base import EnvironmentContext, as_batch_policy
from ..envs.fleet import FleetStep

__all__ = [
    "CounterexampleRecord",
    "CounterexampleCache",
    "batch_reaches_unsafe",
    "install_global_recorder",
    "emit_counterexample",
]

#: Kinds a record can carry.  ``trajectory`` records are replayable witnesses;
#: the others are condition-specific and record-only.
RECORD_KINDS = ("trajectory", "init", "unsafe", "induction", "coverage")

_GLOBAL_RECORDER: Optional[Callable[["CounterexampleRecord"], None]] = None


def install_global_recorder(
    recorder: Optional[Callable[["CounterexampleRecord"], None]],
) -> None:
    """Install (or clear, with ``None``) the process-wide counterexample sink."""
    global _GLOBAL_RECORDER
    _GLOBAL_RECORDER = recorder


def emit_counterexample(record: "CounterexampleRecord") -> None:
    """Forward a record to the process-wide sink, if one is installed."""
    if _GLOBAL_RECORDER is not None:
        _GLOBAL_RECORDER(record)


@dataclass
class CounterexampleRecord:
    """One counterexample together with where it came from."""

    state: np.ndarray
    kind: str = "trajectory"
    source: str = ""
    environment: str = ""

    def __post_init__(self) -> None:
        self.state = np.asarray(self.state, dtype=float).ravel()
        if self.kind not in RECORD_KINDS:
            raise ValueError(f"unknown counterexample kind {self.kind!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "state": self.state.tolist(),
            "kind": self.kind,
            "source": self.source,
            "environment": self.environment,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CounterexampleRecord":
        return cls(
            state=np.asarray(data["state"], dtype=float),
            kind=str(data.get("kind", "trajectory")),
            source=str(data.get("source", "")),
            environment=str(data.get("environment", "")),
        )


def batch_reaches_unsafe(
    env: EnvironmentContext,
    program,
    states: np.ndarray,
    horizon: int,
) -> np.ndarray:
    """Disturbance-free closed-loop rollout: which rows reach an unsafe state?

    All rows advance in lockstep, one vectorised policy call and one
    :class:`~repro.envs.fleet.FleetStep` transition per step; rows already
    flagged unsafe are frozen so a diverging trajectory cannot overflow the
    floats of the still-running ones.  Returns a boolean array over the rows.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.size == 0:
        return np.zeros(0, dtype=bool)
    # Witness replay is on the CEGIS hot path: use the compiled program kernel
    # when it is available so each replayed candidate skips the AST walk.
    from ..compile import compiled_program_for

    kernel = compiled_program_for(program)
    act = kernel.act if kernel is not None else as_batch_policy(program, env.action_dim)
    step = FleetStep(env)
    unsafe = step.unsafe(states)
    current = states.copy()
    for _ in range(int(horizon)):
        alive = ~unsafe
        if not alive.any():
            break
        rows = current[alive]
        actions = np.asarray(act(rows), dtype=float)
        rates = step.rate(rows, step.clip(actions, np.empty_like(actions)))
        rows = rows + step.dt * rates
        current[alive] = rows
        unsafe[np.flatnonzero(alive)[step.unsafe(rows)]] = True
    return unsafe


class CounterexampleCache:
    """Records counterexamples and replays trajectory witnesses vectorized.

    Replays count in :mod:`repro.obs`: ``replay.hits`` (candidates refuted,
    each an expensive certificate search skipped), ``replay.misses`` (fell
    through to the real checker) and ``replay.states`` (witnesses simulated).
    """

    def __init__(
        self,
        environment: str = "",
        horizon: int = 120,
        probe_samples: int = 12,
        max_witnesses: int = 512,
        seed: int = 0,
    ) -> None:
        self.environment = environment
        self.horizon = int(horizon)
        self.probe_samples = int(probe_samples)
        self.max_witnesses = int(max_witnesses)
        self.seed = int(seed)
        self.records: List[CounterexampleRecord] = []
        # Probing uses a dedicated generator so recording witnesses never
        # perturbs the synthesis/verification random streams — cache-on and
        # cache-off runs must consume exactly the same randomness elsewhere.
        self._rng = np.random.default_rng(self.seed)
        self._witnesses: List[np.ndarray] = []

    # ------------------------------------------------------------ recording
    def __len__(self) -> int:
        return len(self.records)

    @property
    def witness_count(self) -> int:
        return len(self._witnesses)

    def record(
        self, state: np.ndarray, kind: str = "trajectory", source: str = ""
    ) -> CounterexampleRecord:
        """Record one counterexample (and forward it to the global sink)."""
        record = CounterexampleRecord(
            state=state, kind=kind, source=source, environment=self.environment
        )
        self.records.append(record)
        if kind == "trajectory" and len(self._witnesses) < self.max_witnesses:
            self._witnesses.append(record.state)
        emit_counterexample(record)
        return record

    def absorb(
        self, records: Sequence[CounterexampleRecord], emit: bool = False
    ) -> None:
        """Merge records found elsewhere (a parallel worker, a loaded corpus).

        ``emit=True`` forwards each record to the process-wide sink — used when
        merging from forked workers, whose own emissions died with the fork.
        """
        for record in records:
            self.records.append(record)
            if record.kind == "trajectory" and len(self._witnesses) < self.max_witnesses:
                self._witnesses.append(record.state)
            if emit:
                emit_counterexample(record)

    # -------------------------------------------------------------- replay
    def replay(
        self, env: EnvironmentContext, program, region: Box
    ) -> Optional[np.ndarray]:
        """Replay all in-region witnesses against ``program``; return a refuter.

        A non-``None`` return is a state in ``region`` from which the candidate
        closed loop demonstrably reaches an unsafe state — a proof that no
        sound certificate over ``region`` exists, so callers may skip the
        expensive checker.  Counted as a hit; ``None`` is counted as a miss.
        """
        if self._witnesses:
            witnesses = np.stack(self._witnesses, axis=0)
            inside = region.contains_batch(witnesses)
            candidates = witnesses[inside]
            if candidates.size:
                obs.count("replay.states", int(candidates.shape[0]))
                refuted = batch_reaches_unsafe(env, program, candidates, self.horizon)
                if np.any(refuted):
                    obs.count("replay.hits")
                    return candidates[int(np.argmax(refuted))]
        obs.count("replay.misses")
        return None

    def probe(
        self,
        env: EnvironmentContext,
        program,
        region: Box,
        extra_points: Sequence[Optional[np.ndarray]] = (),
        source: str = "probe",
    ) -> int:
        """Harvest witnesses from a candidate that just failed verification.

        Simulates the failed candidate from the given points plus a few region
        samples (drawn from the cache's own generator) and records every
        initial state whose trajectory reaches unsafe.  Returns how many new
        witnesses were recorded.
        """
        points = [np.asarray(p, dtype=float).ravel() for p in extra_points if p is not None]
        if self.probe_samples > 0:
            points.extend(region.sample(self._rng, self.probe_samples))
        if not points:
            return 0
        states = np.stack(points, axis=0)
        inside = region.contains_batch(states)
        states = states[inside]
        if states.size == 0:
            return 0
        refuted = batch_reaches_unsafe(env, program, states, self.horizon)
        added = 0
        for state in states[refuted]:
            self.record(state, kind="trajectory", source=source)
            added += 1
        return added

    # ------------------------------------------------------------- persist
    def to_dict(self) -> Dict[str, Any]:
        return {
            "environment": self.environment,
            "horizon": self.horizon,
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], **kwargs) -> "CounterexampleCache":
        cache = cls(
            environment=str(data.get("environment", "")),
            horizon=int(data.get("horizon", 120)),
            **kwargs,
        )
        cache.absorb(
            [CounterexampleRecord.from_dict(entry) for entry in data.get("records", [])]
        )
        return cache

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    @classmethod
    def load(cls, path: str | Path, **kwargs) -> "CounterexampleCache":
        return cls.from_dict(json.loads(Path(path).read_text()), **kwargs)
