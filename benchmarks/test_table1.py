"""Benchmark: regenerate Table 1 rows (program synthesis, verification, shielding).

Each test produces one row of Table 1 at smoke scale and asserts the paper's
qualitative shape: the shield eliminates all unsafe episodes and intervenes on
only a fraction of decisions.
"""

import pytest

from repro.experiments.table1 import run_benchmark_row

from conftest import run_once

#: Rows exercised by the benchmark harness at smoke scale.  The remaining rows
#: (pendulum, cartpole, platoons, oscillator, ...) are covered by the other
#: benchmark files or by running ``python -m repro table1``.
FAST_ROWS = [
    "satellite",
    "dcmotor",
    "tape",
    "magnetic_pointer",
    "suspension",
    "quadcopter",
    "datacenter",
    "self_driving",
    "lane_keeping",
]


@pytest.mark.parametrize("name", FAST_ROWS)
def test_table1_row(benchmark, smoke_scale, name):
    row = run_once(benchmark, run_benchmark_row, name, smoke_scale)
    assert row["shielded_failures"] == 0, f"shield failed to enforce safety on {name}"
    assert row["program_size"] >= 1
    assert row["interventions"] <= row["vars"] * smoke_scale.episodes * smoke_scale.steps


@pytest.mark.parametrize("name", ["4_car_platoon", "cartpole"])
def test_table1_row_medium_dimension(benchmark, smoke_scale, name):
    row = run_once(benchmark, run_benchmark_row, name, smoke_scale)
    if "error" in row:
        pytest.skip(f"{name}: {row['error']}")
    assert row["shielded_failures"] == 0
