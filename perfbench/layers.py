"""Which public entry points of ``repro`` the traced run wraps, and its metrics.

One span name per layer.  Hooks turn a call's arguments and result into
counters (verdicts, boxes, LP rows, interventions).  :func:`layer_metrics`
folds a traced run into the per-layer metrics listed in ``BENCHMARK.json``:
``<layer>.s`` is the layer's self time and ``<layer>.calls`` its span count,
both per pass (the mean over the run's traced passes); the root ``pass``
span's self time is reported as ``unattributed.s``, so on every workload the
layer self times plus ``unattributed.s`` sum to ``pass.traced_s``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from spans import Tracer, layer_totals

__all__ = ["install", "layer_metrics"]

BACKENDS = ("lyapunov", "sos", "barrier", "farkas")

#: Span layers, in pipeline order.
SPAN_LAYERS = (
    "oracle",
    "alg1",
    "prefilter",
    "replay",
    "probe",
    "cegis",
    "verify",
    *(f"backend.{name}" for name in BACKENDS),
    "lp",
    "bnb",
    "coverage",
    "lint",
    "store.get",
    "compile",
    "shard.pool",
    "shard.campaign",
    "campaign.neural",
    "campaign.shielded",
    "campaign.program",
)

#: Layers that also run during set-up (``deploy-fleet`` loads and compiles there).
SETUP_LAYERS = ("store.get", "compile")

#: ``(counter, base)``: reported as counter ÷ base-layer calls.
RATIOS = (
    ("prefilter.refuted", "prefilter"),
    ("replay.hits", "replay"),
    ("verify.verified", "verify"),
    *((f"backend.{name}.verified", f"backend.{name}") for name in BACKENDS),
    ("lp.feasible", "lp"),
    ("bnb.verified", "bnb"),
)

#: Counters reported per pass as they are.
COUNTS = (
    "alg1.objective_evals",
    "cegis.rounds",
    "cegis.branches",
    "cegis.counterexamples",
    "lp.rows",
    "bnb.boxes",
    "bnb.budget_exhausted",
    "kernel_cache.hits",
    "kernel_cache.misses",
    "shield.interventions",
)

def _counter(name: str, test=lambda result: True):
    def hook(tracer: Tracer, result, args, kwargs) -> None:
        tracer.count(name, bool(test(result)))

    return hook


def _verified(prefix: str):
    return _counter(f"{prefix}.verified", lambda result: result.verified)


def _cegis(tracer: Tracer, result, args, kwargs) -> None:
    tracer.count("cegis.rounds", result.rounds)
    tracer.count("cegis.branches", len(result.branches))
    tracer.count("cegis.counterexamples", result.counterexamples_used)


def _lp(tracer: Tracer, result, args, kwargs) -> None:
    tracer.count("lp.feasible", bool(result.success))
    rows = 0
    for key in ("A_ub", "A_eq"):
        matrix = kwargs.get(key)
        if matrix is not None:
            rows += len(matrix)
    tracer.count("lp.rows", rows)


def _bnb(tracer: Tracer, result, args, kwargs) -> None:
    tracer.count("bnb.verified", bool(result.verified))
    tracer.count("bnb.boxes", result.boxes_explored)
    tracer.count("bnb.budget_exhausted", bool(result.max_depth_reached))


def _campaign_name(args, kwargs) -> str:
    from repro.lang.program import PolicyProgram

    policy = args[1] if len(args) > 1 else kwargs["policy"]
    if kwargs.get("shield") is not None:
        return "campaign.shielded"
    if isinstance(policy, PolicyProgram):
        return "campaign.program"
    return "campaign.neural"


def _campaign(tracer: Tracer, result, args, kwargs) -> None:
    label = _campaign_name(args, kwargs)
    protocol = args[2] if len(args) > 2 else kwargs["protocol"]
    tracer.count(f"{label}.engine_s", result.total_seconds)
    tracer.count(f"{label}.episode_steps", protocol.episodes * protocol.steps)
    if label == "campaign.shielded":
        tracer.count("shield.interventions", result.interventions)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry point (undone by ``tracer.remove()``)."""
    import repro.analysis
    import repro.certificates.barrier
    import repro.certificates.farkas
    import repro.compile
    import repro.core.cegis
    import repro.core.synthesis
    import repro.experiments.table1
    import repro.runtime.batched
    import repro.runtime.simulation
    from repro.certificates.backend import (
        BarrierBackend,
        FarkasBackend,
        LyapunovBackend,
        SOSBackend,
    )
    from repro.certificates.smt import BranchAndBoundVerifier
    from repro.core.replay import CounterexampleCache
    from repro.shard import ShardPool
    from repro.store import ShieldStore

    wrap = tracer.wrap
    wrap(repro.experiments.table1, "train_oracle", "oracle")
    wrap(repro.core.synthesis.ProgramSynthesizer, "synthesize", "alg1")
    wrap(repro.core.synthesis, "program_oracle_distance", None, _counter("alg1.objective_evals"))
    wrap(repro.core.cegis, "statically_refuted", "prefilter",
         _counter("prefilter.refuted", lambda result: result is not None))
    wrap(CounterexampleCache, "replay", "replay",
         _counter("replay.hits", lambda result: result is not None))
    wrap(CounterexampleCache, "probe", "probe")
    wrap(repro.core.cegis.CEGISLoop, "run", "cegis", _cegis)
    wrap(repro.core.cegis, "verify_program", "verify", _verified("verify"))
    for backend in (LyapunovBackend, SOSBackend, BarrierBackend, FarkasBackend):
        name = f"backend.{backend.name}"
        wrap(backend, "verify", name, _verified(name))
    wrap(repro.certificates.barrier, "linprog", "lp", _lp)
    wrap(repro.certificates.farkas, "linprog", "lp", _lp)
    wrap(BranchAndBoundVerifier, "prove_nonpositive", "bnb", _bnb)
    wrap(BranchAndBoundVerifier, "prove_positive", "bnb", _bnb)
    wrap(BranchAndBoundVerifier, "find_uncovered_point", "coverage")
    wrap(repro.analysis, "analyze_artifact", "lint")
    wrap(ShieldStore, "get", "store.get")
    wrap(repro.runtime.batched, "compile_stepper", "compile")
    wrap(repro.compile, "compile_stepper", "compile")
    tracer.wrap_context(ShardPool, "shard.pool")
    wrap(ShardPool, "run_campaign", "shard.campaign")
    wrap(repro.runtime.simulation, "evaluate_policy", _campaign_name, _campaign)


def layer_metrics(
    tracer: Tracer,
    traced_passes: Sequence[str],
    traced_s: List[float],
    untraced_s: List[float],
    row_fail_frac: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run: BENCHMARK.json's ``per_layer`` names.

    ``traced_passes`` are the repetition ids of the traced passes (whose
    spans were recorded with that id, the set-up with ``"setup"``);
    ``traced_s``/``untraced_s`` are the pass wall-clocks of the run.
    """
    n = len(traced_passes)
    totals = layer_totals(tracer.spans, traced_passes)
    setup = layer_totals(tracer.spans, ["setup"])

    def count(name: str) -> float:
        return tracer.counter_total(name, traced_passes)

    metrics: Dict[str, float] = {
        "pass.traced_s": sum(traced_s) / n,
        "pass.untraced_s": statistics.median(untraced_s),
    }
    metrics["trace.overhead_s"] = statistics.median(traced_s) - metrics["pass.untraced_s"]
    metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / metrics["pass.untraced_s"]
    metrics["unattributed.s"] = totals.get("pass", (0.0, 0))[0] / n
    for layer in SPAN_LAYERS:
        seconds, calls = totals.get(layer, (0.0, 0))
        metrics[f"{layer}.s"] = seconds / n
        metrics[f"{layer}.calls"] = calls / n
    for counter, base in RATIOS:
        calls = totals.get(base, (0.0, 0))[1]
        metrics[counter] = count(counter) / calls if calls else 0.0
    for counter in COUNTS:
        metrics[counter] = count(counter) / n
    neural = count("campaign.neural.engine_s")
    shielded = count("campaign.shielded.engine_s")
    metrics["shield.overhead_pct"] = 100.0 * (shielded - neural) / neural if neural else 0.0
    metrics["campaign.shielded_steps_per_s"] = (
        count("campaign.shielded.episode_steps") / shielded if shielded else 0.0
    )
    metrics["row_fail_frac"] = row_fail_frac
    metrics["setup.s"] = sum(seconds for seconds, _ in setup.values())
    metrics["setup.unattributed.s"] = setup.get("setup", (0.0, 0))[0]
    for layer in SETUP_LAYERS:
        seconds, calls = setup.get(layer, (0.0, 0))
        metrics[f"setup.{layer}.s"] = seconds
        metrics[f"setup.{layer}.calls"] = calls
    return metrics
