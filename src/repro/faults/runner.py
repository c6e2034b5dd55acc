"""The fork runner: one fork pool with per-task retry for every parallel caller.

:class:`ForkRunner` is the only place that creates a ``ProcessPoolExecutor``.
It maps indexed work units over forked workers and recovers failures per
task; the shard pool (:mod:`repro.shard.pool`) and the parallel CEGIS driver
(:mod:`repro.core.cegis`) both run on it.

* The caller's work callable crosses into workers **by fork inheritance**
  through the module global :data:`_JOB`, so arbitrary state — environments,
  oracles, shields, compiled steppers, closures — needs no pickling; only a
  task's small payload is pickled.
* Tasks run inline (in this process, in index order) unless ``workers > 1``,
  there is more than one task, and the platform offers ``fork``.
* A wave submits every pending task and waits under
  :meth:`RetryPolicy.wave_timeout`.  A crashed worker (``BrokenProcessPool``),
  a transient ``OSError`` raised by a task, or a task that blows the watchdog
  deadline retires the executor, and only the failed tasks are re-submitted
  to a fresh pool after a deterministic backoff — completed results are kept.
  Once a task's attempts are exhausted it runs on the guaranteed inline lane,
  on which fault injection is disabled.
* An ``OSError`` while starting the fork pool (creating the executor, or the
  fork inside ``submit``) sends the wave's pending tasks to the inline lane.
* Every recovery decision lands in the caller's :class:`FaultLog` and a
  ``RuntimeWarning``.

Results come back tagged with the lane they ran on and the :mod:`repro.obs`
delta the task counted; the runner merges a forked task's delta into this
process (an inline one counted here already).  An executor lives until the
runner is closed or a failure retires it; workers see the job as it was when
they forked.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional

from .. import obs
from .plan import active_plan
from .retry import FaultLog, RetryPolicy

__all__ = ["Done", "ForkRunner", "fork_available"]

# Forked workers inherit the runner, and through it the caller's work
# callable, from this module global.
_JOB: Optional["ForkRunner"] = None


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class Done(NamedTuple):
    """One finished task: its lane (``"fork"``, ``"inline"``, or a caller's
    name for a resumed task), value, and counter delta."""

    lane: str
    value: Any
    counts: obs.Counts


def _counted(work: Callable[..., Any], *args: Any):
    since = obs.snapshot()
    value = work(*args)
    return value, obs.delta(since)


def _forked_task(payload: Any, attempt: int) -> Any:
    return _counted(_JOB.work, payload, attempt, False)


class ForkRunner:
    """Runs indexed tasks over a fork pool, recovering failures per task.

    ``work(payload, attempt, inline)`` executes one task; it must be
    idempotent and pass ``attempt``/``inline`` to its :func:`fault_site`.
    ``site`` names the fault site for backoff jitter and the fault log;
    ``label`` and ``unit`` word the recovery warnings ("shard pool recovery:
    shard 2 failed …").
    """

    def __init__(
        self,
        work: Callable[[Any, int, bool], Any],
        site: str,
        workers: int,
        retry: RetryPolicy,
        label: str,
        unit: str,
    ) -> None:
        self.work = work
        self.site = site
        self.workers = workers
        self.retry = retry
        self.label = label
        self.unit = unit
        self._executor: Optional[ProcessPoolExecutor] = None

    def forks(self, tasks: int) -> bool:
        """Whether :meth:`run` would fork for this many tasks."""
        return self.workers > 1 and tasks > 1 and fork_available()

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        global _JOB
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        if _JOB is self:
            _JOB = None

    def run(
        self,
        tasks: Mapping[int, Any],
        log: FaultLog,
        started_at: float,
        on_done: Optional[Callable[[int, Done], None]] = None,
        resumed: Optional[Mapping[int, Done]] = None,
    ) -> Dict[int, Done]:
        """Run every task; returns ``{index: Done(lane, value, counts)}``.

        ``on_done(index, done)`` is called as each task completes.  Recovery
        events are appended to ``log`` with times relative to ``started_at``.
        ``resumed`` tasks (finished by an earlier process) are merged like
        forked ones and returned with the rest.
        """
        done: Dict[int, Done] = {}
        for index, record in (resumed or {}).items():
            obs.merge(record.counts)
            done[index] = record

        def finish(index: int, lane: str, outcome) -> None:
            value, counts = outcome
            if lane != "inline":
                obs.merge(counts)
            done[index] = Done(lane, value, counts)
            if on_done is not None:
                on_done(index, done[index])

        if not self.forks(len(tasks)):
            for index in sorted(tasks):
                finish(index, "inline", _counted(self.work, tasks[index], 0, True))
            return done

        attempts = dict.fromkeys(tasks, 0)

        def note(index: int, outcome: str, detail: str, backoff: float = 0.0) -> None:
            log.record(
                site=self.site,
                index=index,
                attempt=attempts[index],
                outcome=outcome,
                detail=detail,
                backoff_seconds=backoff,
                at_seconds=time.perf_counter() - started_at,
            )
            warnings.warn(
                f"{self.label} recovery: {self.unit} {index} failed on attempt "
                f"{attempts[index] + 1}/{self.retry.max_attempts} ({detail}); {outcome}",
                RuntimeWarning,
                stacklevel=3,
            )

        def run_inline(index: int) -> None:
            finish(index, "inline", _counted(self.work, tasks[index], attempts[index], True))

        while any(index not in done for index in tasks):
            batch = [index for index in sorted(tasks) if index not in done]
            failed = []
            try:
                futures = self._submit(batch, tasks, attempts)
            except BrokenProcessPool as error:
                # An idle worker of a kept executor died since the last wave.
                failed = [(index, f"{type(error).__name__}: {error}") for index in batch]
            except OSError as error:
                self._retire()
                for index in batch:
                    note(index, "recovered-inline", f"could not start the fork pool: {error}")
                    run_inline(index)
                break
            else:
                timeout = self.retry.wave_timeout(len(batch), self.workers)
                finished, late = wait(futures, timeout=timeout)
                for future in sorted(finished, key=futures.get):
                    index = futures[future]
                    try:
                        outcome = future.result()
                    except (BrokenProcessPool, OSError) as error:
                        failed.append((index, f"{type(error).__name__}: {error}"))
                        continue
                    finish(index, "fork", outcome)
                for future in sorted(late, key=futures.get):
                    failed.append(
                        (futures[future], f"no result within the {timeout:.3g}s watchdog deadline")
                    )
            if not failed:
                continue
            # The executor is broken (a worker died) or hung workers squat on
            # its slots: retire it.  Tasks are idempotent, so only the failed
            # ones run again.
            self._retire()
            wave_backoff = 0.0
            for index, reason in failed:
                if attempts[index] + 1 < self.retry.max_attempts:
                    backoff = self.retry.backoff_for(self.site, index, attempts[index] + 1)
                    wave_backoff = max(wave_backoff, backoff)
                    note(index, "retry", reason, backoff)
                    attempts[index] += 1
                else:
                    note(index, "recovered-inline", reason)
                    run_inline(index)
            if wave_backoff > 0.0:
                time.sleep(wave_backoff)
        return done

    def _submit(self, batch, tasks, attempts) -> dict:
        global _JOB
        # Adopt any env-var fault plan before forking, so workers inherit it
        # with this (parent) pid pinned as the process crashes must spare.
        active_plan()
        _JOB = self
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=multiprocessing.get_context("fork")
            )
        return {
            self._executor.submit(_forked_task, tasks[index], attempts[index]): index
            for index in batch
        }

    def _retire(self) -> None:
        # Never wait on a possibly hung worker.
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
