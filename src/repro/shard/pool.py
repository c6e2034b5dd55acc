"""The fork-inherited shard worker pool.

:class:`ShardPool` owns one ``(env, policy-or-shield)`` deployment and runs
its campaigns as contiguous episode shards over forked workers of one
:class:`~repro.faults.runner.ForkRunner`, kept for the pool's lifetime:

* The deployment crosses into workers **by fork inheritance** through the
  runner (the same runner parallel CEGIS uses), so arbitrary policies —
  closures, networks, shields — need no pickling.  The parent
  pre-compiles the fused stepper before the first fork, so every worker is
  born with a warm :data:`~repro.compile.cache.KERNEL_CACHE` *and* the
  compiled stepper itself; successive shards in one worker reuse one
  :class:`~repro.compile.stepper.RolloutWorkspace`.
* Per-run data (initial states, result arrays) moves through one
  :mod:`multiprocessing.shared_memory` arena per run (:mod:`repro.shard.memory`);
  the task pickle carries only shard bounds, the seed stream, the arena spec,
  and the shard's slice of any per-episode disturbance model.
* Workers return small records (wall-clock, shield-counter deltas, residual
  moments); the parent folds the shield counters into its shield and merges
  moments in shard order (:mod:`repro.shard.fleet`), so ``workers=1`` and
  ``workers=N`` report bit-identical counters and disturbance estimates.
  Process counters (the kernel cache's) reach the parent through the
  runner, which merges each forked shard's :mod:`repro.obs` delta.
* Where the runner does not fork (``workers=1``, one pending shard, or no
  ``fork``), the same shard tasks run in-process against a private arena —
  identical code path, identical results.
* Failures are recovered **per shard** by the runner under a
  :class:`~repro.faults.RetryPolicy`: only crashed, erroring or hung shards
  are re-submitted, and exhausted ones run on the in-process lane.  Because
  shard plans are worker-count-independent, a retried shard is bit-identical,
  so recovered runs match fault-free runs on every counter and estimate.
  Every recovery decision lands in the run's :class:`~repro.faults.FaultLog`
  (``stats["faults"]``) and a ``RuntimeWarning``.
* With ``checkpoint=<path>`` each completed shard (result slice, record and
  counter delta) is journaled to a :class:`~repro.faults.ShardManifest`;
  ``resume=True`` pre-fills the arena from the manifest and executes only the
  missing shards — a SIGKILL mid-campaign costs at most one shard of work.

Workers inherit the deployment *as it was at the first parallel run*; mutating
the policy afterwards is invisible to them.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..faults import FaultLog, RetryPolicy, ShardManifest, fault_site
from ..faults.runner import Done, ForkRunner
from .fleet import disturbance_estimate_from_moments, merge_moments
from .memory import ShardArena, attach_arena, create_arena
from .plan import Shard, plan_shards, seed_sequence_for

__all__ = ["ShardPool"]


@dataclass
class _ShardTask:
    """One picklable shard work unit."""

    mode: str  # "campaign" | "monitored"
    index: int
    start: int
    stop: int
    steps: int
    seed: np.random.SeedSequence
    spec: object  # ArenaSpec
    disturbance: Optional[object]  # this shard's slice of the disturbance model
    estimate: bool
    has_initial_states: bool


def _execute_shard(
    job: "ShardPool", task: _ShardTask, arena: ShardArena, attempt: int, inline: bool
):
    """Run one shard against the arena; returns the shard's record.

    The ``shard_executions`` arena slot counts actual executions of this
    shard — the recovery tests assert from it that only failed shards re-ran.
    """
    arena.view("shard_executions")[task.index] += 1
    fault_site("shard.worker", index=task.index, attempt=attempt, inline=inline)
    rng = np.random.default_rng(task.seed)
    count = task.stop - task.start
    window = slice(task.start, task.stop)
    stats = job.shield.statistics if job.shield is not None else None
    stats_at_entry = astuple(stats) if stats is not None else None
    if task.has_initial_states:
        initial = np.array(arena.view("initial_states")[window], dtype=float)
    else:
        initial = job.env.sample_initial_states(rng, count)
    stepper = job._stepper()
    moments = None

    start = time.perf_counter()
    if task.mode == "campaign":
        rewards, unsafe, intervened, steady, _ = stepper.run_campaign(initial, task.steps, rng)
        arena.view("total_rewards")[window] = rewards
        arena.view("unsafe_counts")[window] = unsafe
        arena.view("interventions")[window] = intervened
        arena.view("steady_at")[window] = steady
    elif task.mode == "monitored":
        from ..envs.disturbance import DisturbanceEstimator

        if task.disturbance is not None:
            task.disturbance.reset()
        estimator = DisturbanceEstimator(job.env.state_dim) if task.estimate else None
        intervened, mismatches, excursions, unsafe, peak, finals, _ = stepper.run_monitored(
            initial, task.steps, rng, disturbance=task.disturbance, estimator=estimator
        )
        arena.view("interventions")[window] = intervened
        arena.view("model_mismatches")[window] = mismatches
        arena.view("invariant_excursions")[window] = excursions
        arena.view("unsafe_steps")[window] = unsafe
        arena.view("peak_barrier_values")[window] = peak
        arena.view("final_states")[window] = finals
        if estimator is not None and len(estimator):
            moments = estimator.moments()
    else:  # pragma: no cover - modes are fixed by the pool API
        raise ValueError(f"unknown shard mode {task.mode!r}")
    elapsed = time.perf_counter() - start

    stats_delta = (
        None
        if stats is None
        else tuple(now - then for now, then in zip(astuple(stats), stats_at_entry))
    )
    return {
        "elapsed": elapsed,
        "shield": stats_delta,
        "moments": moments,
    }


def _manifest_entry(task: _ShardTask, arena: ShardArena, result_fields, done: Done) -> dict:
    """One checkpoint line: the shard's result slices, record and counts.

    Floats survive the JSON round trip exactly (shortest-repr serialization),
    so a resumed campaign is bit-identical to an uninterrupted one.
    """
    views = {
        name: arena.view(name)[task.start:task.stop].tolist()
        for name, _shape, _dtype in result_fields
    }
    record = done.value
    moments = record["moments"]
    return {
        "index": task.index,
        "start": task.start,
        "stop": task.stop,
        "views": views,
        "counts": done.counts,
        "record": {
            "elapsed": record["elapsed"],
            "shield": None if record["shield"] is None else list(record["shield"]),
            "moments": None
            if moments is None
            else {
                "count": int(moments[0]),
                "total": np.asarray(moments[1], dtype=float).tolist(),
                "outer": np.asarray(moments[2], dtype=float).tolist(),
            },
        },
    }


def _restore_manifest_entry(entry: dict, arena: ShardArena, result_fields) -> Done:
    """Rebuild a completed shard from its checkpoint line (arena + record).

    The checkpointed counts were counted in a dead process; the runner merges
    them into this one, whatever lane originally executed the shard.
    """
    window = slice(int(entry["start"]), int(entry["stop"]))
    for name, _shape, dtype in result_fields:
        arena.view(name)[window] = np.asarray(entry["views"][name], dtype=dtype)
    rec = entry["record"]
    moments = rec.get("moments")
    record = {
        "elapsed": float(rec["elapsed"]),
        "shield": None if rec.get("shield") is None else tuple(rec["shield"]),
        "moments": None
        if moments is None
        else (
            int(moments["count"]),
            np.asarray(moments["total"], dtype=float),
            np.asarray(moments["outer"], dtype=float),
        ),
    }
    return Done("manifest", record, entry["counts"])


class ShardPool:
    """A persistent worker pool executing shard campaigns for one deployment.

    Build with either a bare ``policy`` or a ``shield`` (the acting policy);
    use as a context manager, or call :meth:`close` to release the workers.
    ``workers=1`` runs every shard in-process over the identical plan — the
    reference the parallel modes are held bit-identical to.
    """

    def __init__(
        self,
        env,
        policy=None,
        shield=None,
        workers: int = 1,
        shards: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if shield is not None and policy is not None:
            raise ValueError("pass either a policy or a shield, not both")
        if shield is None and policy is None:
            raise ValueError("a shard pool needs a policy or a shield to act")
        self.env = env
        self.policy = policy
        self.shield = shield
        if int(workers) < 1:
            raise ValueError(f"a shard pool needs at least one worker, got {workers}")
        self.workers = int(workers)
        self.shards = shards
        self.retry = retry if retry is not None else RetryPolicy()
        self._runner = ForkRunner(
            self._execute,
            site="shard.worker",
            workers=self.workers,
            retry=self.retry,
            label="shard pool",
            unit="shard",
        )
        self._arena: Optional[ShardArena] = None
        self._stepper_obj = None
        self._closed = False
        self._fault_log = FaultLog()
        self._last_executions: Optional[np.ndarray] = None

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        self._runner.close()
        self._closed = True

    # ------------------------------------------------------------------ runs
    def run_campaign(
        self,
        episodes: int,
        steps: int,
        rng=None,
        seed=None,
        initial_states=None,
        checkpoint=None,
        resume: bool = False,
    ):
        """A sharded (shielded or bare-policy) deployment campaign; returns
        its :class:`~repro.runtime.metrics.DeploymentMetrics`, whose ``stats``
        record the shard plan and counter fold-ins."""
        from ..runtime.metrics import DeploymentMetrics

        shards = self._plan(episodes, rng, seed)
        fields = [
            ("total_rewards", (episodes,), np.float64),
            ("unsafe_counts", (episodes,), np.int64),
            ("interventions", (episodes,), np.int64),
            ("steady_at", (episodes,), np.int64),
        ]
        arrays, results, elapsed, mode = self._run(
            "campaign", shards, steps, fields, initial_states=initial_states,
            checkpoint=checkpoint, resume=resume,
        )
        return DeploymentMetrics(
            steps=int(steps),
            total_rewards=arrays["total_rewards"],
            unsafe_counts=arrays["unsafe_counts"],
            intervention_counts=arrays["interventions"],
            steady_at=arrays["steady_at"],
            total_seconds=elapsed,
            stats=self._stats(shards, results, mode),
        )

    def run_monitored(
        self,
        episodes: int,
        steps: int,
        rng=None,
        seed=None,
        disturbance=None,
        estimate_disturbance: bool = True,
        confidence_sigmas: float = 3.0,
        initial_states=None,
        checkpoint=None,
        resume: bool = False,
    ):
        """A sharded monitored fleet; returns a
        :class:`~repro.runtime.monitored.FleetMonitorReport` whose
        ``shard_stats`` records the shard plan and counter fold-ins."""
        from ..runtime.monitored import FleetMonitorReport

        if self.shield is None:
            raise ValueError("run_monitored requires a shield-backed pool")
        if disturbance is not None:
            if disturbance.dim != self.env.state_dim:
                raise ValueError(
                    f"disturbance dimension {disturbance.dim} does not match "
                    f"state dimension {self.env.state_dim}"
                )
            fleet_width = getattr(disturbance, "episodes", None)
            if fleet_width is not None and fleet_width != episodes:
                raise ValueError(
                    f"per-episode disturbance parameters are for {fleet_width} "
                    f"episodes, not {episodes}"
                )
        shards = self._plan(episodes, rng, seed)
        state_dim = self.env.state_dim
        fields = [
            ("interventions", (episodes,), np.int64),
            ("model_mismatches", (episodes,), np.int64),
            ("invariant_excursions", (episodes,), np.int64),
            ("unsafe_steps", (episodes,), np.int64),
            ("peak_barrier_values", (episodes,), np.float64),
            ("final_states", (episodes, state_dim), np.float64),
        ]
        arrays, results, elapsed, mode = self._run(
            "monitored",
            shards,
            steps,
            fields,
            initial_states=initial_states,
            disturbance=disturbance,
            estimate=estimate_disturbance,
            checkpoint=checkpoint,
            resume=resume,
        )
        estimate = None
        if estimate_disturbance:
            count, total, outer = merge_moments(
                [record["moments"] for record in results], state_dim
            )
            estimate = disturbance_estimate_from_moments(
                count, total, outer, confidence_sigmas=confidence_sigmas
            )
        return FleetMonitorReport(
            episodes=int(episodes),
            steps=int(steps),
            interventions=arrays["interventions"],
            model_mismatches=arrays["model_mismatches"],
            invariant_excursions=arrays["invariant_excursions"],
            unsafe_steps=arrays["unsafe_steps"],
            peak_barrier_values=arrays["peak_barrier_values"],
            final_states=arrays["final_states"],
            disturbance_estimate=estimate,
            wall_clock_seconds=elapsed,
            shard_stats=self._stats(shards, results, mode),
        )

    # -------------------------------------------------------------- internals
    def _plan(self, episodes: int, rng, seed) -> List[Shard]:
        if rng is not None:
            root = seed_sequence_for(rng)
        elif seed is not None:
            root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
        else:
            root = np.random.SeedSequence()
        return plan_shards(episodes, self.shards, root)

    def _stepper(self):
        """The deployment's compiled stepper, built once."""
        if self._stepper_obj is None:
            from ..compile import compile_stepper

            self._stepper_obj = compile_stepper(
                self.env,
                policy=self.policy if self.shield is None else None,
                shield=self.shield,
            )
        return self._stepper_obj

    def _run(
        self,
        mode: str,
        shards: Sequence[Shard],
        steps: int,
        fields,
        initial_states=None,
        disturbance=None,
        estimate: bool = False,
        checkpoint=None,
        resume: bool = False,
    ):
        if self._closed:
            raise RuntimeError("this shard pool is closed")
        episodes = shards[-1].stop
        result_fields = list(fields)
        fields = list(fields) + [("shard_executions", (len(shards),), np.int64)]
        if initial_states is not None:
            initial_states = np.atleast_2d(np.asarray(initial_states, dtype=float))
            if initial_states.shape != (episodes, self.env.state_dim):
                raise ValueError(
                    f"initial states must have shape ({episodes}, {self.env.state_dim})"
                )
            fields = list(fields) + [
                ("initial_states", (episodes, self.env.state_dim), np.float64)
            ]
        self._fault_log = FaultLog()
        manifest = None
        completed: Dict[int, dict] = {}
        if checkpoint is not None:
            manifest = ShardManifest(
                checkpoint, meta=self._manifest_meta(mode, shards, steps, result_fields)
            )
            completed = manifest.begin(resume=resume)
        missing = sum(1 for shard in shards if shard.index not in completed)
        arena = create_arena(fields, shared=self._runner.forks(missing))
        self._arena = arena
        try:
            if initial_states is not None:
                arena.view("initial_states")[:] = initial_states
            resumed: Dict[int, Done] = {}
            pending: Dict[int, _ShardTask] = {}
            for shard in shards:
                entry = completed.get(shard.index)
                if entry is not None:
                    resumed[shard.index] = _restore_manifest_entry(entry, arena, result_fields)
                    continue
                pending[shard.index] = _ShardTask(
                    mode=mode,
                    index=shard.index,
                    start=shard.start,
                    stop=shard.stop,
                    steps=int(steps),
                    seed=shard.seed,
                    spec=arena.spec,
                    disturbance=(
                        disturbance.shard(shard.start, shard.stop)
                        if disturbance is not None
                        else None
                    ),
                    estimate=estimate,
                    has_initial_states=initial_states is not None,
                )

            def on_done(index: int, done: Done) -> None:
                manifest.append(_manifest_entry(pending[index], arena, result_fields, done))

            since = obs.snapshot()
            # Compile in the parent before any fork: workers inherit the warm
            # kernel cache and the constructed stepper itself.
            self._stepper()
            start = time.perf_counter()
            finished = self._runner.run(
                pending,
                self._fault_log,
                start,
                on_done if manifest is not None else None,
                resumed=resumed,
            )
            for lane, record, _counts in finished.values():
                record["origin"] = lane
            results = [finished[shard.index].value for shard in shards]
            pool_mode = "fork-pool" if any(r["origin"] == "fork" for r in results) else "in-process"
            # Inline shards already counted on this process's shield; fold the
            # shield counters of the others (forked and manifest-restored).
            self._fold([r for r in results if r["origin"] != "inline"])
            elapsed = time.perf_counter() - start
            arrays = arena.take()
            arrays.pop("initial_states", None)
            self._last_executions = arrays.pop("shard_executions")
        finally:
            self._arena = None
            arena.destroy()
        counts = obs.delta(since)
        self._last_cache_delta = {
            "hits": counts.get("kernel_cache.hits", 0),
            "misses": counts.get("kernel_cache.misses", 0),
        }
        return arrays, results, elapsed, pool_mode

    def _execute(self, task: _ShardTask, attempt: int, inline: bool) -> dict:
        """The runner's work unit: one shard, in a worker or on the inline lane."""
        arena = self._arena if inline else attach_arena(task.spec)
        try:
            return _execute_shard(self, task, arena, attempt, inline)
        finally:
            if not inline:
                arena.close()

    def _manifest_meta(self, mode, shards, steps, result_fields) -> dict:
        return {
            "mode": mode,
            "environment": getattr(self.env, "name", ""),
            "steps": int(steps),
            "shards": [[shard.start, shard.stop] for shard in shards],
            "entropy": str(shards[0].seed.entropy),
            "fields": [[name, list(shape), str(np.dtype(dtype))] for name, shape, dtype in result_fields],
        }

    def _fold(self, results) -> None:
        """Fold other processes' shield counters into this pool's shield."""
        for record in results:
            if self.shield is not None and record["shield"] is not None:
                stats = self.shield.statistics
                for field, n in zip(fields(stats), record["shield"]):
                    setattr(stats, field.name, getattr(stats, field.name) + n)

    def _stats(self, shards: Sequence[Shard], results, pool_mode: str) -> dict:
        executions = (
            self._last_executions.tolist()
            if self._last_executions is not None
            else [1] * len(shards)
        )
        return {
            "workers": self.workers,
            "shards": len(shards),
            "mode": pool_mode,
            "shard_episodes": [shard.episodes for shard in shards],
            "shard_seconds": [round(record["elapsed"], 6) for record in results],
            "shard_origins": [record["origin"] for record in results],
            "shard_executions": executions,
            "kernel_cache": dict(self._last_cache_delta),
            "faults": self._fault_log.to_dicts(),
        }
