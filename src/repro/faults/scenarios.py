"""Named end-to-end chaos scenarios behind ``repro chaos``.

Each scenario drives a real execution surface (a sharded fleet campaign, the
artifact store, a whole experiment sweep in a subprocess) under a scripted
:class:`~repro.faults.FaultPlan` and checks the recovery guarantees the
fault machinery promises:

==================  =========================================================
``crash-storm``     several shard workers ``os._exit`` mid-campaign; the
                    merged campaign must be bit-identical to a fault-free run
``hang``            one shard worker sleeps past the watchdog deadline; the
                    hung slot is retired and re-run, results bit-identical
``flaky-io``        transient ``OSError`` from shard workers; failed shards
                    retry and the run converges bit-identically
``corrupt-store``   partial writes and corrupt reads against the shield
                    store; committed objects survive, corruption is detected
                    and quarantined, orphan temp files are swept
``kill-resume``     a Table 1 sweep subprocess is SIGKILLed mid-sweep and
                    resumed from its row journal; the resumed report must be
                    byte-identical to an uninterrupted run
==================  =========================================================

Every scenario returns a JSON-ready dict with ``ok``, the structured fault
events observed, wall-clock for the fault-free and faulted runs, and the
time-to-recover (seconds from run start to the last recovery decision).
Campaign scenarios build their deployment from the differential fuzzer's
seeded generators, so they cost milliseconds instead of a synthesis run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from .plan import FaultPlan, FaultSpec, fault_plan
from .retry import RetryPolicy

__all__ = ["SCENARIOS", "run_scenario", "scenario_names"]

#: Deployment shape shared by the campaign scenarios — small enough for CI,
#: wide enough (4 shards x 2 workers) that crashes have in-flight casualties.
_EPISODES = 12
_STEPS = 12
_SHARDS = 4
_WORKERS = 2


def _campaign(seed: int, retry: RetryPolicy):
    """One sharded campaign over a fuzzer-generated deployment.

    The environment and shield are rebuilt from their payloads on every call,
    so fault-free and faulted runs start from identical state.
    """
    from ..fuzz import generators as gen
    from ..shard import ShardPool

    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(101,)))
    env_payload = gen.random_env_payload(rng)
    shield_payload = gen.random_shield_payload(rng, env_payload)
    env = gen.env_from_payload(env_payload)
    shield = gen.shield_from_payload(env, shield_payload)
    with ShardPool(env, shield=shield, workers=_WORKERS, shards=_SHARDS, retry=retry) as pool:
        return pool.run_campaign(_EPISODES, _STEPS, seed=int(seed))


_CAMPAIGN_FIELDS = ("total_rewards", "unsafe_counts", "intervention_counts", "steady_at")


def _run_campaign_scenario(
    name: str, seed: int, plan: FaultPlan, retry: RetryPolicy
) -> Dict[str, Any]:
    baseline = _campaign(seed, retry)
    with fault_plan(plan):
        faulted = _campaign(seed, retry)

    mismatches = [
        field
        for field in _CAMPAIGN_FIELDS
        if not np.array_equal(getattr(baseline, field), getattr(faulted, field))
    ]
    events = faulted.stats.get("faults", [])
    executions = faulted.stats.get("shard_executions", [])
    ok = not mismatches and bool(events)
    detail = ""
    if mismatches:
        detail = f"fields diverged from the fault-free run: {', '.join(mismatches)}"
    elif not events:
        detail = "no fault ever fired (plan did not reach its site)"
    return {
        "scenario": name,
        "seed": seed,
        "ok": ok,
        "detail": detail,
        "fault_events": events,
        "shard_executions": executions,
        "fault_free_seconds": round(baseline.total_seconds, 4),
        "faulty_seconds": round(faulted.total_seconds, 4),
        "overhead": round(faulted.total_seconds / baseline.total_seconds, 3)
        if baseline.total_seconds > 0
        else None,
        "time_to_recover_seconds": round(
            max((event["at_seconds"] for event in events), default=0.0), 4
        ),
    }


def _scenario_crash_storm(seed: int, workdir: Path) -> Dict[str, Any]:
    # ``attempt=None``: the crash re-fires on every fork retry (per-process
    # fired-counters die with the worker), so each targeted shard exhausts its
    # retries and lands on the guaranteed inline lane.
    plan = FaultPlan(
        specs=[
            FaultSpec(site="shard.worker", kind="crash", index=index, attempt=None)
            for index in range(3)
        ],
        seed=seed,
    )
    retry = RetryPolicy(max_attempts=2, backoff_seconds=0.02, seed=seed)
    return _run_campaign_scenario("crash-storm", seed, plan, retry)


def _scenario_hang(seed: int, workdir: Path) -> Dict[str, Any]:
    plan = FaultPlan(
        specs=[
            FaultSpec(
                site="shard.worker", kind="hang", index=1, attempt=None, delay_seconds=0.8
            )
        ],
        seed=seed,
    )
    retry = RetryPolicy(
        max_attempts=2, backoff_seconds=0.02, deadline_seconds=0.25, seed=seed
    )
    return _run_campaign_scenario("hang", seed, plan, retry)


def _scenario_flaky_io(seed: int, workdir: Path) -> Dict[str, Any]:
    # ``attempt=0``: the OSError fires once per shard's first try; the retry
    # (attempt 1) runs clean — the transient-fault shape.
    plan = FaultPlan(
        specs=[
            FaultSpec(site="shard.worker", kind="oserror", index=0, attempt=0),
            FaultSpec(site="shard.worker", kind="oserror", index=2, attempt=0),
        ],
        seed=seed,
    )
    retry = RetryPolicy(max_attempts=3, backoff_seconds=0.02, seed=seed)
    return _run_campaign_scenario("flaky-io", seed, plan, retry)


# ------------------------------------------------------------- corrupt-store
def _tiny_artifact(seed: int):
    """A deterministic single-branch artifact, cheap enough to build inline."""
    from ..lang import (
        AffineSketch,
        GuardedProgram,
        Invariant,
        InvariantUnion,
        ShieldArtifact,
    )
    from ..polynomials import Polynomial, monomial_basis

    rng = np.random.default_rng(seed)
    sketch = AffineSketch(state_dim=2, action_dim=1, include_bias=True)
    program = sketch.instantiate(rng.normal(scale=0.5, size=sketch.num_parameters))
    basis = monomial_basis(2, 2)
    barrier = Polynomial.from_coefficients(rng.normal(size=len(basis)), basis, 2)
    invariant = Invariant(barrier=barrier, margin=0.5)
    return ShieldArtifact(
        program=GuardedProgram(branches=[(invariant, program)]),
        # A non-registry label: the put-time analyzer has no environment to
        # check random dimensions against, which is exactly what we want here.
        environment="chaos_bench",
        invariant=InvariantUnion([invariant]),
        metadata={"seed": int(seed), "experiment": "chaos"},
    )


def _scenario_corrupt_store(seed: int, workdir: Path) -> Dict[str, Any]:
    from ..store import CorruptArtifactError, ShieldStore

    root = workdir / "store"
    store = ShieldStore(root)
    started = time.perf_counter()
    events: List[Dict[str, Any]] = []
    failures: List[str] = []

    def check(condition: bool, label: str) -> None:
        events.append(
            {
                "site": f"store.{label}",
                "ok": bool(condition),
                "at_seconds": round(time.perf_counter() - started, 4),
            }
        )
        if not condition:
            failures.append(label)

    key = store.put(_tiny_artifact(seed))

    # 1. An injected partial write must fail loudly and leave the committed
    #    object (and a different artifact's absence) untouched.
    plan = FaultPlan(specs=[FaultSpec(site="store.put", kind="partial-write")], seed=seed)
    other = _tiny_artifact(seed + 1)
    with fault_plan(plan):
        try:
            store.put(other)
            check(False, "partial-write-raises")
        except OSError:
            check(True, "partial-write-raises")
    check(len(list(root.glob("objects/*/*.tmp"))) == 1, "partial-write-leaves-tmp")
    store.get(key)  # committed object still loads
    check(True, "committed-object-survives")

    # 2. Re-opening the store sweeps our crashed writer's temp file.
    store = ShieldStore(root)
    check(not list(root.glob("objects/*/*.tmp")), "orphan-tmp-swept")
    other_key = store.put(other)  # the retried write succeeds cleanly

    # 3. An injected corrupt read surfaces as CorruptArtifactError naming the
    #    object; the on-disk bytes are intact, so the retry succeeds.
    plan = FaultPlan(specs=[FaultSpec(site="store.get", kind="corrupt-read")], seed=seed)
    with fault_plan(plan):
        try:
            store.get(key)
            check(False, "corrupt-read-detected")
        except CorruptArtifactError as error:
            check(error.key == key and error.path is not None, "corrupt-read-detected")
    store.get(key)
    check(True, "corrupt-read-transient")

    # 4. Genuine on-disk corruption: fsck finds it, quarantines it, and a
    #    re-put restores the object.
    victim = store._path_for(other_key)
    victim.write_text(victim.read_text()[: victim.stat().st_size // 2])
    recover_started = time.perf_counter()
    try:
        store.get(other_key)
        check(False, "truncated-object-detected")
    except CorruptArtifactError:
        check(True, "truncated-object-detected")
    ok_keys, corrupt = store.fsck(delete_corrupt=True)
    check(
        key in ok_keys
        and len(corrupt) == 1
        and corrupt[0]["key"] == other_key
        and corrupt[0]["quarantined"] is not None
        and Path(corrupt[0]["quarantined"]).exists(),
        "fsck-quarantines",
    )
    check(store.put(other) == other_key, "re-put-restores")
    store.get(other_key)
    time_to_recover = time.perf_counter() - recover_started

    return {
        "scenario": "corrupt-store",
        "seed": seed,
        "ok": not failures,
        "detail": f"failed checks: {', '.join(failures)}" if failures else "",
        "fault_events": events,
        "fault_free_seconds": 0.0,
        "faulty_seconds": round(time.perf_counter() - started, 4),
        "overhead": None,
        "time_to_recover_seconds": round(time_to_recover, 4),
    }


# --------------------------------------------------------------- kill-resume
#: Two cheap Table 1 benchmarks — enough rows that a mid-sweep kill leaves
#: real unfinished work behind.
_KILL_RESUME_BENCHMARKS = ("satellite", "dcmotor")
_SUBPROCESS_TIMEOUT = 300.0


def _sweep_command(journal: Path, resume: bool = False) -> List[str]:
    command = [
        sys.executable,
        "-m",
        "repro",
        "table1",
        *_KILL_RESUME_BENCHMARKS,
        "--scale",
        "smoke",
        "--journal",
        str(journal),
        "--no-timing",
    ]
    if resume:
        command.append("--resume")
    return command


def _subprocess_env() -> Dict[str, str]:
    from .plan import ENV_VAR

    env = dict(os.environ)
    env.pop(ENV_VAR, None)  # the sweep subprocess runs fault-free
    package_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _journal_rows(journal: Path) -> int:
    """Completed data rows in a journal (header line excluded)."""
    try:
        lines = journal.read_text().splitlines()
    except OSError:
        return 0
    return max(0, len([line for line in lines if line.strip()]) - 1)


def _scenario_kill_resume(seed: int, workdir: Path) -> Dict[str, Any]:
    env = _subprocess_env()
    journal = workdir / "table1.journal"
    started = time.perf_counter()

    # Reference: the same sweep, uninterrupted (its own journal file).
    reference = subprocess.run(
        _sweep_command(workdir / "reference.journal"),
        env=env,
        capture_output=True,
        text=True,
        timeout=_SUBPROCESS_TIMEOUT,
    )
    reference_seconds = time.perf_counter() - started
    if reference.returncode != 0:
        return {
            "scenario": "kill-resume",
            "seed": seed,
            "ok": False,
            "detail": f"reference sweep failed: {reference.stderr[-300:]}",
            "fault_events": [],
            "fault_free_seconds": round(reference_seconds, 4),
            "faulty_seconds": 0.0,
            "overhead": None,
            "time_to_recover_seconds": 0.0,
        }

    # The victim: SIGKILL as soon as the first row is journaled.
    kill_started = time.perf_counter()
    victim = subprocess.Popen(
        _sweep_command(journal),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    killed = False
    deadline = time.monotonic() + _SUBPROCESS_TIMEOUT
    while time.monotonic() < deadline:
        if _journal_rows(journal) >= 1:
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)
                killed = True
            break
        if victim.poll() is not None:
            break
        time.sleep(0.05)
    victim.wait(timeout=_SUBPROCESS_TIMEOUT)
    rows_before_kill = _journal_rows(journal)

    # Resume from the journal; only unfinished rows should execute.
    resumed = subprocess.run(
        _sweep_command(journal, resume=True),
        env=env,
        capture_output=True,
        text=True,
        timeout=_SUBPROCESS_TIMEOUT,
    )
    faulty_seconds = time.perf_counter() - kill_started
    reports_match = resumed.returncode == 0 and resumed.stdout == reference.stdout
    ok = killed and rows_before_kill >= 1 and reports_match
    detail = ""
    if not killed:
        detail = "sweep finished before the kill landed"
    elif not reports_match:
        detail = "resumed report differs from the uninterrupted run"
    return {
        "scenario": "kill-resume",
        "seed": seed,
        "ok": ok,
        "detail": detail,
        "fault_events": [
            {
                "site": "sweep.SIGKILL",
                "rows_before_kill": rows_before_kill,
                "at_seconds": round(time.perf_counter() - kill_started, 4),
            }
        ],
        "rows_before_kill": rows_before_kill,
        "reports_match": reports_match,
        "fault_free_seconds": round(reference_seconds, 4),
        "faulty_seconds": round(faulty_seconds, 4),
        "overhead": round(faulty_seconds / reference_seconds, 3)
        if reference_seconds > 0
        else None,
        "time_to_recover_seconds": round(faulty_seconds, 4),
    }


SCENARIOS: Dict[str, Callable[[int, Path], Dict[str, Any]]] = {
    "crash-storm": _scenario_crash_storm,
    "hang": _scenario_hang,
    "flaky-io": _scenario_flaky_io,
    "corrupt-store": _scenario_corrupt_store,
    "kill-resume": _scenario_kill_resume,
}


def scenario_names() -> Sequence[str]:
    return tuple(SCENARIOS)


def run_scenario(
    name: str, seed: int = 0, workdir: Optional[str | Path] = None
) -> Dict[str, Any]:
    """Run one named chaos scenario; returns its JSON-ready result dict."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown chaos scenario {name!r} (known: {', '.join(SCENARIOS)})")
    if workdir is not None:
        path = Path(workdir)
        path.mkdir(parents=True, exist_ok=True)
        return SCENARIOS[name](int(seed), path)
    with tempfile.TemporaryDirectory(prefix=f"repro-chaos-{name}-") as tmp:
        return SCENARIOS[name](int(seed), Path(tmp))
