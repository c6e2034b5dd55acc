"""Tests of the benchmark harness: span arithmetic, wrapper removal, workload checks.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import copy

import pytest

import layers
import run
from spans import Span, Tracer, layer_totals, self_times
from workloads import FleetDeployment, Table1Sweep


def _clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_self_time_subtracts_nested_children():
    tracer = Tracer(clock=_clock(0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 6.0, 10.0))
    with tracer.span("pass"):  # 0 .. 10
        with tracer.span("cegis"):  # 1 .. 6
            with tracer.span("bnb"):  # 2 .. 3
                pass
            with tracer.span("bnb"):  # 4 .. 6
                pass
    assert self_times(tracer.spans) == [5.0, 2.0, 1.0, 2.0]
    assert [span.parent for span in tracer.spans] == [None, 0, 1, 1]
    totals = layer_totals(tracer.spans, [""])
    assert totals == {"pass": (5.0, 1), "cegis": (2.0, 1), "bnb": (3.0, 2)}
    assert sum(seconds for seconds, _ in totals.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 5.0, 0, "r"),
        Span("b", 3.0, 7.0, 0, "r"),
        Span("c", 9.0, 12.0, 0, "r"),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_spans_are_kept_per_repetition_and_closed_in_order():
    tracer = Tracer(clock=_clock(0.0, 1.0, 2.0, 5.0, 6.0, 7.0))
    tracer.rep = "pass0"
    with tracer.span("pass"):
        pass
    tracer.rep = "pass1"
    with tracer.span("pass"):
        tracer.count("bnb.boxes", 7)
    assert layer_totals(tracer.spans, ["pass1"]) == {"pass": (3.0, 1)}
    assert tracer.counter_total("bnb.boxes", ["pass0", "pass1"]) == 7
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def _patched_attributes(tracer):
    return [(owner, attr) for owner, attr, _ in tracer._patches]


def test_removing_wrappers_restores_the_original_functions():
    tracer = Tracer()
    layers.install(tracer)
    patched = _patched_attributes(tracer)
    assert len(patched) >= len(layers.SPAN_LAYERS)
    originals = {(owner, attr): original for owner, attr, original in tracer._patches}
    for owner, attr in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is not originals[(owner, attr)]
    tracer.remove()
    assert tracer._patches == []
    for owner, attr in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is originals[(owner, attr)]


def test_untraced_pass_records_nothing():
    tracer = Tracer()
    layers.install(tracer)
    tracer.remove()
    sweep = Table1Sweep(("satellite",), seed=0)
    run.timed_pass(sweep)
    assert tracer.spans == []


def test_tiny_table1_sweep_passes_every_check_and_traces_every_layer():
    sweep = Table1Sweep(("satellite",), seed=3)
    tracer = Tracer()
    untraced, first = run.timed_pass(sweep)
    traced, second = run.timed_pass(sweep, tracer, rep="pass0")
    assert sweep.check([first, second]) == []
    assert first["satellite"]["program_size"] >= 1
    metrics = layers.layer_metrics(tracer, ["pass0"], [traced], [untraced], 0.0)
    assert set(metrics) == {metric["name"] for metric in run.BENCHMARK["per_layer"]}
    parts = metrics["unattributed.s"] + sum(metrics[f"{layer}.s"] for layer in layers.SPAN_LAYERS)
    assert parts == pytest.approx(metrics["pass.traced_s"], rel=1e-9)
    for layer in ("oracle", "alg1", "prefilter", "replay", "cegis", "verify", "compile"):
        assert metrics[f"{layer}.calls"] >= 1, layer
    assert metrics["alg1.objective_evals"] > 0
    assert metrics["kernel_cache.misses"] > 0  # every pass starts from a cold cache

    blank = copy.deepcopy(first)
    blank["satellite"] = {}
    unsafe = copy.deepcopy(first)
    unsafe["satellite"]["shielded_failures"] = 2
    other = copy.deepcopy(first)
    other["satellite"]["fingerprint"] = "0" * 64
    problems = sweep.check([first, blank, unsafe, other])
    assert any("neither a shield nor an error" in p for p in problems)
    assert any("episodes fail" in p for p in problems)
    assert sum("differ from pass 0" in p for p in problems) == 3


def test_unverified_rows_are_outcomes_not_faults():
    sweep = Table1Sweep(("satellite",), seed=0)
    outcome = {"satellite": {"error": "CEGIS failed to produce a verified program"}}
    assert sweep.unverified_rows(outcome) == 1
    assert sweep.check([outcome, outcome]) == []


def test_tiny_fleet_deployment_passes_every_check():
    fleet = FleetDeployment(seed=0, episodes=48, steps=300, workers=2)
    tracer = Tracer()
    _, first = run.timed_pass(fleet)
    _, second = run.timed_pass(fleet, tracer, rep="pass0")
    assert fleet.check([first, second]) == []
    assert first["bare_failures"] > 0
    spans = {span.name for span in tracer.spans}
    assert {"campaign.neural", "campaign.shielded", "campaign.program", "shard.pool",
            "shard.campaign", "compile"} <= spans
    assert tracer.counter_total("shield.interventions", ["pass0"]) == first["interventions"]

    unsafe = dict(first, shielded_failures=1)
    idle = dict(first, interventions=0)
    drift = dict(first, bare_failures=first["bare_failures"] + 1)
    problems = fleet.check([first, unsafe, idle, drift])
    assert any("shielded episodes failed" in p for p in problems)
    assert any("never intervened" in p for p in problems)
    assert any("bare_failures" in p for p in problems)
