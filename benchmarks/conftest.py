"""Shared fixtures for the benchmark harness.

Every benchmark runs the corresponding experiment module at the ``smoke`` scale
(seconds per row) so ``pytest benchmarks/ --benchmark-only`` finishes in
minutes.  Reproducing the paper's full protocol is a matter of switching the
scale, e.g. ``python -m repro table1 --scale paper``.
"""

import pytest

from repro.experiments import ExperimentScale


@pytest.fixture(scope="session")
def smoke_scale() -> ExperimentScale:
    return ExperimentScale.smoke()


def run_once(benchmark, function, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
