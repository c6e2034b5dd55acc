"""Experiment harness: one module per paper table/figure (see the README's "Commands")."""

from .fig3 import run_fig3, run_fig3_variant
from .fig6 import run_fig6
from .reporting import ExperimentScale, format_table
from .robustness import ROBUSTNESS_BENCHMARKS, run_robustness, run_robustness_cell
from .table1 import TABLE1_BENCHMARKS, run_benchmark_row, run_table1
from .table2 import TABLE2_BENCHMARKS, TABLE2_DEGREES, run_degree_row, run_table2
from .table3 import ENVIRONMENT_CHANGES, run_environment_change, run_table3

__all__ = [
    "ExperimentScale",
    "format_table",
    "TABLE1_BENCHMARKS",
    "run_benchmark_row",
    "run_table1",
    "TABLE2_BENCHMARKS",
    "TABLE2_DEGREES",
    "run_degree_row",
    "run_table2",
    "ENVIRONMENT_CHANGES",
    "run_environment_change",
    "run_table3",
    "run_fig3",
    "run_fig3_variant",
    "run_fig6",
    "ROBUSTNESS_BENCHMARKS",
    "run_robustness",
    "run_robustness_cell",
]
