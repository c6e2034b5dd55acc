"""What importing ``repro`` loads, and when synthesis loads SciPy's solvers.

A process that loads a stored shield and runs campaigns needs no LP or
Riccati solver, so ``import repro`` loads no ``scipy.optimize`` or
``scipy.linalg``; each solver is imported by its first call.  The test
process has SciPy loaded already, so every check runs in a fresh
interpreter.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SOLVERS = ("scipy.optimize", "scipy.linalg")


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_import_repro_loads_no_solver():
    loaded = _fresh(
        """
        import json, sys
        import repro
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
        """
    )
    assert not [name for name in loaded if name.startswith(SOLVERS)]


def test_cli_help_loads_no_solver():
    loaded = _fresh(
        """
        import contextlib, io, json, runpy, sys
        sys.argv = ["repro", "--help"]
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                runpy.run_module("repro", run_name="__main__")
            except SystemExit:
                pass
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
        """
    )
    assert not [name for name in loaded if name.startswith(SOLVERS)]


def test_barrier_search_loads_linprog_and_calls_it_through_the_module_global():
    seen = _fresh(
        """
        import json, sys
        from repro.certificates import SafetyProblem, barrier
        from repro.certificates.barrier import (
            BarrierCertificateSynthesizer, BarrierSynthesisConfig,
        )
        from repro.envs import make_environment
        from repro.lang import AffineProgram
        from repro.lang.sketch import InvariantSketch

        env = make_environment("pendulum")
        problem = SafetyProblem(
            closed_loop=env.closed_loop_polynomials(AffineProgram(gain=[[-12.0, -5.0]])),
            init_box=env.init_region,
            unsafe_boxes=env.unsafe_cover_boxes(),
            safe_box=env.safe_box,
            domain_box=env.domain,
            disturbance_scale=env.dt,
        )

        def search():
            return BarrierCertificateSynthesizer(
                sketch=InvariantSketch(state_dim=2, degree=2),
                problem=problem,
                config=BarrierSynthesisConfig(max_refinements=2),
            ).search()

        before = "scipy.optimize" in sys.modules
        lazy = barrier.linprog
        spied = []

        def spy(*args, **kwargs):
            spied.append(1)
            return lazy(*args, **kwargs)

        barrier.linprog = spy
        search()
        after = "scipy.optimize" in sys.modules
        first = len(spied)

        # Every solve goes through the module global: count the solver's own
        # calls during a second search and compare.
        import scipy.optimize
        solver, solved = scipy.optimize.linprog, []

        def counted(*args, **kwargs):
            solved.append(1)
            return solver(*args, **kwargs)

        scipy.optimize.linprog = counted
        search()
        print(json.dumps({
            "before": before, "after": after, "first": first,
            "spied": len(spied) - first, "solved": len(solved),
        }))
        """
    )
    assert not seen["before"]
    assert seen["after"]
    assert seen["first"] > 0
    assert seen["spied"] == seen["solved"] > 0


def test_forking_cegis_round_loads_the_solvers_before_it_forks():
    seen = _fresh(
        """
        import json, sys
        import numpy as np
        from repro.core import CEGISLoop
        from repro.envs import make_environment
        from repro.faults.runner import Done, ForkRunner

        forked = []

        def run(self, tasks, log, started_at, on_done=None):
            forked.append({
                "forks": self.forks(len(tasks)),
                "loaded": [name in sys.modules for name in ("scipy.optimize", "scipy.linalg")],
            })
            return {index: Done("inline", None, {}) for index in tasks}

        ForkRunner.run = run
        env = make_environment("satellite")
        loop = CEGISLoop(env, lambda state: np.zeros(env.action_dim))
        origin = np.zeros(env.state_dim)
        loop._run_round([origin], first_round_index=0)
        loop._run_round([origin, origin], first_round_index=1)
        print(json.dumps(forked))
        """
    )
    inline, parallel = seen
    assert inline == {"forks": False, "loaded": [False, False]}
    assert parallel == {"forks": True, "loaded": [True, True]}


@pytest.mark.skipif(sys.version_info < (3, 10), reason="needs sys.stdlib_module_names")
def test_every_third_party_import_is_a_declared_dependency():
    """``pip install .`` brings every package that ``src/`` imports."""
    block = re.search(
        r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(), re.M | re.S
    )
    declared = {re.split(r"[<>=!~ ]", name)[0] for name in re.findall(r'"([^"]+)"', block[1])}
    imported = set()
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    assert {"numpy", "scipy"} <= third_party
    assert third_party <= declared, sorted(third_party - declared)
