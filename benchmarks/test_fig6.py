"""Benchmark: regenerate Fig. 6 / Example 4.3 (CEGIS trace on the Duffing oscillator)."""

from repro.experiments.fig6 import run_fig6

from conftest import run_once


def test_fig6_duffing_cegis(benchmark, smoke_scale):
    data = run_once(benchmark, run_fig6, smoke_scale)
    # The paper needs two branches; at smoke scale we only require that CEGIS
    # makes substantial progress: several verified branches whose union covers
    # (almost) the entire initial grid.  The full-coverage run is
    # ``python -m repro fig6 --scale medium``.
    assert data["num_branches"] >= 1
    assert data["covered"] or data["init_grid_coverage"] > 0.85
    # Every branch invariant occupies a non-trivial part of the domain.
    for branch in data["branches"]:
        assert branch["grid"].sum() > 0
