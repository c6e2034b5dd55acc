"""Shared experiment infrastructure: scaled protocols, row formatting, table printing.

Every experiment module accepts an :class:`ExperimentScale` so the same code
runs as a quick CI smoke (default), a medium-fidelity run, or the paper's full
protocol (1000 episodes x 5000 steps, full training budgets).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.cegis import CEGISConfig
from ..core.distance import DistanceConfig
from ..core.synthesis import SynthesisConfig
from ..core.verification import VerificationConfig
from ..faults import RowJournal
from ..runtime.simulation import EvaluationProtocol

__all__ = [
    "ExperimentScale",
    "format_table",
    "Row",
    "TIMING_COLUMNS",
    "normalize_timing",
    "open_row_journal",
    "run_sweep",
]

Row = Dict[str, object]

#: Wall-clock-measured columns across the sweeps.  ``--no-timing`` zeroes them
#: so two runs of the same sweep (e.g. an uninterrupted run and a
#: killed-then-resumed one) render byte-identical reports.
TIMING_COLUMNS = (
    "training_s",
    "synthesis_s",
    "campaign_s",
    "verification_s",
    "overhead_pct",
    "monitor_s",
)


def normalize_timing(row: Row) -> Row:
    """Zero the wall-clock columns of one sweep row (see :data:`TIMING_COLUMNS`).

    Non-numeric markers (``"TO"``, ``"-"``) are kept — they are verdicts, not
    measurements.
    """
    return {
        key: (
            0.0
            if key in TIMING_COLUMNS
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
            else value
        )
        for key, value in row.items()
    }


def open_row_journal(
    journal,
    resume: bool,
    experiment: str,
    scale: "ExperimentScale",
    keys: Sequence[str],
    store=None,
) -> Tuple[Optional[RowJournal], Dict[str, Row]]:
    """Open a sweep's row journal (if any) and return its completed rows.

    The journal is fingerprinted over the experiment name, the full scale
    dataclass, the planned row keys, and whether a store backs the sweep — a
    resume against different work starts fresh instead of splicing in foreign
    rows.
    """
    if journal is None:
        return None, {}
    meta = {
        "experiment": experiment,
        "scale": dataclasses.asdict(scale),
        "keys": list(keys),
        "store": store is not None,
    }
    row_journal = RowJournal(journal, meta=meta)
    return row_journal, row_journal.begin(resume=resume)


def run_sweep(
    experiment: str,
    scale: "ExperimentScale",
    cells: Sequence[Tuple[str, Callable[[], Row]]],
    store=None,
    journal=None,
    resume: bool = False,
    timing: bool = True,
) -> List[Row]:
    """Run a sweep's cells in order through its crash-safe row journal.

    ``cells`` pairs each row key with the call that computes the row.  With a
    ``journal`` every finished row is checkpointed to a
    :class:`~repro.faults.RowJournal`; with ``resume=True`` rows already in
    the journal are reused verbatim and only unfinished cells run, so a
    SIGKILL mid-sweep costs at most one row.  ``timing=False`` zeroes the
    wall-clock columns, making resumed and uninterrupted reports
    byte-identical.
    """
    row_journal, completed = open_row_journal(
        journal, resume, experiment, scale, [key for key, _ in cells], store
    )
    rows: List[Row] = []
    for key, run_cell in cells:
        if key in completed:
            rows.append(completed[key])
            continue
        row = run_cell()
        if not timing:
            row = normalize_timing(row)
        rows.append(row)
        if row_journal is not None:
            row_journal.record(key, row)
    return rows


@dataclass
class ExperimentScale:
    """How much compute an experiment run is allowed to spend."""

    episodes: int = 10
    steps: int = 250
    synthesis_iterations: int = 10
    synthesis_trajectories: int = 2
    synthesis_trajectory_length: int = 80
    max_counterexamples: int = 6
    oracle_method: str = "cloned"
    oracle_hidden: tuple = (64, 48)
    seed: int = 0
    #: Processes that run each evaluation fleet's shards (:mod:`repro.shard`).
    workers: int = 1

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """A seconds-scale configuration for CI and the pytest benchmarks."""
        return cls(episodes=5, steps=150, synthesis_iterations=5, max_counterexamples=8)

    @classmethod
    def medium(cls) -> "ExperimentScale":
        return cls(episodes=50, steps=1000, synthesis_iterations=30, oracle_hidden=(240, 200))

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """The full §5 protocol (hours of compute)."""
        return cls(
            episodes=1000,
            steps=5000,
            synthesis_iterations=120,
            synthesis_trajectories=4,
            synthesis_trajectory_length=200,
            max_counterexamples=12,
            oracle_method="ddpg",
            oracle_hidden=(240, 200),
        )

    # ------------------------------------------------------------ builders
    def protocol(self) -> EvaluationProtocol:
        return EvaluationProtocol(
            episodes=self.episodes,
            steps=self.steps,
            seed=self.seed,
            workers=self.workers,
        )

    def cegis_config(
        self, backend: str = "auto", invariant_degree: int = 2
    ) -> CEGISConfig:
        return CEGISConfig(
            max_counterexamples=self.max_counterexamples,
            synthesis=SynthesisConfig(
                iterations=self.synthesis_iterations,
                distance=DistanceConfig(
                    num_trajectories=self.synthesis_trajectories,
                    trajectory_length=self.synthesis_trajectory_length,
                ),
                seed=self.seed,
            ),
            verification=VerificationConfig(
                backend=backend, invariant_degree=invariant_degree
            ),
            seed=self.seed,
        )


def format_table(rows: Sequence[Row], columns: Sequence[str] | None = None) -> str:
    """Render rows as a fixed-width text table (the harness's stdout output)."""
    if not rows:
        return "(no rows)"
    if columns is None:
        # Union of every row's keys in first-seen order, so a failed row's
        # ``error`` shows next to the successful rows' columns.
        columns = list(dict.fromkeys(key for row in rows for key in row))
    rendered: List[List[str]] = [[_format_cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(width) for col, width in zip(columns, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)
