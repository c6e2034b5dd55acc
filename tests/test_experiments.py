"""Integration smoke tests of the experiment modules (scaled-down Table 1/3 rows).

The heavy sweeps live in ``benchmarks/``; these tests only check that the
experiment code paths produce well-formed rows with the paper's qualitative
shape on the cheapest benchmarks.
"""

import pytest

from repro.experiments import (
    ExperimentScale,
    format_table,
    run_benchmark_row,
    run_environment_change,
    run_robustness,
)
from repro.experiments.table1 import TABLE1_BENCHMARKS


TINY = ExperimentScale(
    episodes=3,
    steps=80,
    synthesis_iterations=4,
    synthesis_trajectories=1,
    synthesis_trajectory_length=40,
    max_counterexamples=3,
    oracle_hidden=(24, 16),
)


@pytest.mark.parametrize("failed_first", [False, True])
def test_format_table_renders_every_rows_columns(failed_first):
    ok = {"benchmark": "satellite", "program_size": 1, "interventions": 3}
    failed = {"benchmark": "cartpole", "error": "CEGIS failed: no program"}
    rows = [failed, ok] if failed_first else [ok, failed]
    lines = format_table(rows).splitlines()
    assert set(lines[0].split()) == {"benchmark", "program_size", "interventions", "error"}
    assert any("CEGIS failed: no program" in line for line in lines[2:])
    ok_line = next(line for line in lines[2:] if line.startswith("satellite"))
    assert ok_line.split() == ["satellite", "1", "3"]


def test_table1_benchmark_list_matches_paper():
    assert len(TABLE1_BENCHMARKS) == 15
    assert TABLE1_BENCHMARKS[0] == "satellite"
    assert "8_car_platoon" in TABLE1_BENCHMARKS


@pytest.mark.parametrize("name", ["satellite", "quadcopter"])
def test_table1_row_shape(name):
    row = run_benchmark_row(name, TINY)
    assert row["benchmark"] == name
    assert row["shielded_failures"] == 0
    assert row["program_size"] >= 1
    assert row["vars"] == 2
    # Paper reference numbers are attached for EXPERIMENTS.md comparison.
    assert "paper_overhead_pct" in row


def test_table3_self_driving_obstacle_row():
    row = run_environment_change("self_driving_obstacle", TINY)
    if "error" in row:
        pytest.skip(row["error"])
    assert row["shielded_failures"] == 0
    assert row["program_size"] >= 1


def test_robustness_sweep_rows_well_formed():
    rows = run_robustness(
        benchmarks=["satellite"], kinds=["none", "uniform"], scale=TINY, magnitude=0.03
    )
    assert [row["disturbance"] for row in rows] == ["none", "uniform"]
    for row in rows:
        assert row["benchmark"] == "satellite"
        assert "error" not in row
        assert row["episodes"] == TINY.episodes
        assert "certificate_valid" in row
    # A uniform stress of this magnitude is estimable and within the margin.
    assert rows[1]["estimated_bound"] is not None
    assert rows[1]["certificate_valid"] is True


def test_robustness_sweep_hits_verdict_cache_on_second_run(tmp_path):
    """Acceptance: a second sweep over an unchanged store answers its
    certificate rechecks from the verdict cache, with identical outcomes."""
    store = str(tmp_path / "store")
    kwargs = dict(benchmarks=["satellite"], kinds=["uniform"], scale=TINY, magnitude=0.03)
    first = run_robustness(store=store, **kwargs)
    second = run_robustness(store=store, **kwargs)
    plain = run_robustness(**kwargs)  # no store, no verdict cache

    row1, row2, row0 = first[0], second[0], plain[0]
    assert row1["verdict_misses"] >= 1  # widened-env recheck proved fresh
    assert row2["verdict_hits"] >= 1 and row2["verdict_misses"] == 0
    # Cache-on (hit), cache-on (miss), and cache-off rows agree bit for bit on
    # everything except the counters themselves.
    counters = {"verdict_hits", "verdict_misses"}
    trimmed1 = {k: v for k, v in row1.items() if k not in counters}
    trimmed2 = {k: v for k, v in row2.items() if k not in counters}
    trimmed0 = {k: v for k, v in row0.items() if k not in counters}
    assert trimmed1 == trimmed2 == trimmed0


def test_table1_store_sweep_hits_verdict_cache(tmp_path):
    """Acceptance: `table1 --store` rows carry a kernel certificate recheck
    whose verdicts come from the store-backed cache on every sweep."""
    from repro.experiments.table1 import run_table1

    store = str(tmp_path / "store")
    first = run_table1(["satellite"], TINY, store=store)[0]
    second = run_table1(["satellite"], TINY, store=store)[0]
    assert not first["from_store"] and second["from_store"]
    assert first["certificate_valid"] and second["certificate_valid"]
    # CEGIS itself populated the cache, so even the first sweep's recheck hits;
    # the second sweep re-proves nothing at all.
    assert first["verdict_hits"] >= 1
    assert second["verdict_hits"] >= 1 and second["verdict_misses"] == 0
    assert first["recheck_backends"] == second["recheck_backends"]
