"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics instead; the spans of that run are written to
``.perfbench_out/trace-<workload>-<seed>.jsonl``.  Human-readable lines come
first; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero, and no
JSON is printed, when the program cannot be imported or a pass raises.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# Pinned before NumPy loads, so forked shard workers inherit it.  Unpinned,
# OpenBLAS threads of two workers oversubscribe two cores (see NOTES.md).
THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"repro was imported from {repro.__file__}, not from this checkout's src/")

import layers  # noqa: E402
from repro.compile import kernel_cache_stats  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up is timed this many times per run (this process plus fresh
#: interpreters) and reported as the median.
SETUP_SAMPLES = 9
OUT_DIR = ROOT / ".perfbench_out"
#: Every metric's unit, from the one list of metrics: BENCHMARK.json.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(args, workload) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": THREAD_PIN,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
    }


def setup_in_fresh_interpreter(args) -> float:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_pass(workload, tracer=None, rep=""):
    """One pass; with a tracer, its wrappers are installed for the pass only."""
    workload.prepare()
    if tracer is None:
        start = time.perf_counter()
        outcome = workload.run_pass()
        return time.perf_counter() - start, outcome
    tracer.rep = rep
    before = kernel_cache_stats()
    layers.install(tracer)
    try:
        with tracer.span("pass") as index:
            outcome = workload.run_pass()
    finally:
        tracer.remove()
    after = kernel_cache_stats()
    for key in ("hits", "misses"):
        tracer.count(f"kernel_cache.{key}", after[key] - before[key])
    record = tracer.spans[index]
    return record.end - record.start, outcome


def percentile_report(samples) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    text = f"median {statistics.median(samples):.4f} s (n={len(samples)})"
    for pct in (99, 95, 90, 75, 50):
        if len(samples) * (100 - pct) / 100 >= 10:
            value = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
            return f"{text}, p{pct} {value:.4f} s"
    return f"{text}, no percentile has ten samples beyond it"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.rep = "setup"
        layers.install(tracer)
        with tracer.span("setup"):
            workload = WORKLOADS[args.workload](args.seed)
        tracer.remove()
    else:
        workload = WORKLOADS[args.workload](args.seed)
    own_setup = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    meta = metadata(args, workload)
    print("# meta " + json.dumps(meta, sort_keys=True), flush=True)
    setup_samples = [own_setup]
    if not args.trace:
        setup_samples += [setup_in_fresh_interpreter(args) for _ in range(SETUP_SAMPLES - 1)]

    # Passes run whole.  After the first two (one untraced/traced pair when
    # tracing), so the checks always compare repetitions, another starts only
    # if it should end within --seconds.
    untraced, traced, outcomes, rounds = [], [], [], []
    min_rounds = 1 if args.trace else 2
    start = time.perf_counter()
    while (
        len(rounds) < min_rounds
        or (time.perf_counter() - start) + statistics.median(rounds) <= args.seconds
    ):
        round_start = time.perf_counter()
        seconds, outcome = timed_pass(workload)
        untraced.append(seconds)
        outcomes.append(outcome)
        print(f"# pass {len(outcomes)}: {seconds:.4f} s", flush=True)
        if args.trace:
            seconds, outcome = timed_pass(workload, tracer, rep=f"pass{len(traced)}")
            traced.append(seconds)
            outcomes.append(outcome)
            print(f"# pass {len(outcomes)} (traced): {seconds:.4f} s", flush=True)
        rounds.append(time.perf_counter() - round_start)

    problems = workload.check(outcomes)
    for problem in problems:
        print(f"# CHECK FAILED {problem}", flush=True)
    unverified = workload.unverified_rows(outcomes[0])
    row_fail_frac = unverified / workload.operations
    attempted = len(outcomes) * workload.operations

    if args.trace:
        metrics = layers.layer_metrics(
            tracer, [f"pass{i}" for i in range(len(traced))], traced, untraced, row_fail_frac
        )
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.dump(trace_path, header=meta)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "pass_s": statistics.median(untraced),
            "peak_rss_mb": peak_rss_mb(),
        }
        label = "deploy_s" if args.workload == "deploy-fleet" else "sweep_s"
        print(f"# setup_s: median {metrics['setup_s']:.4f} s of {setup_samples}")
        print(f"# {label} (pass_s): {percentile_report(untraced)}")
        print(
            f"# row_fail_frac: {row_fail_frac:.4f} ratio "
            f"({unverified}/{workload.operations} unverified)"
        )
        if args.workload == "deploy-fleet":
            steps = workload.protocol.episodes * workload.protocol.steps
            rates = [steps / outcome["shielded_s"] for outcome in outcomes]
            print(f"# shielded_steps_per_s: median {statistics.median(rates):.1f} episode-steps/s")
        print(f"# peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def stop_resource_tracker() -> None:
    """Stop the tracker process the shard pool's shared memory starts, and reap it.

    Left alone, it outlives this process until it notices that its pipe has
    closed, so a run would end with a process of its own still running.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)
