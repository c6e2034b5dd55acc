"""The ``host`` header every ``BENCH_*.json`` writer records.

``host_metadata()`` says where the rows were measured: the cpus available to
the process, the Python, NumPy and SciPy versions, and the git commit
(``-dirty`` when the tree had changes).  The writers import it as
``from hostinfo import host_metadata``; ``benchmarks/`` is on ``sys.path``
both under pytest and when a writer runs as a script.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]


def host_metadata() -> dict:
    """Where the rows were measured: cpus, library versions, git commit."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        cpus = os.cpu_count() or 1
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() if done.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }
