"""``repro.reference`` stays out of product code.

The reference engines are differential oracles for the tests, the benchmarks,
the examples and ``repro fuzz``.  No product module imports them, and
``repro fuzz`` imports them only inside the functions that need them, so
``import repro`` — paid by every CLI command and deployment — never loads
them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _imported_names(node, package):
    """Absolute module names an import statement inside ``package`` may load."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level:
        parts = package.split(".")
        parts = parts[: len(parts) - node.level + 1] + ([node.module] if node.module else [])
        base = ".".join(parts)
    else:
        base = node.module
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def _reference_imports():
    """``(module, line, inside_function)`` for every import of ``repro.reference``."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
            package = ".".join(parts)
        else:
            package = ".".join(parts[:-1])
        module = ".".join(parts)

        def visit(node, inside_function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)) and any(
                    name == "repro.reference" or name.startswith("repro.reference.")
                    for name in _imported_names(child, package)
                ):
                    found.append((module, child.lineno, inside_function))
                visit(
                    child,
                    inside_function
                    or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)),
                )

        visit(ast.parse(path.read_text(), filename=str(path)), False)
    return found


def test_reference_imported_only_by_itself_and_inside_fuzz_functions():
    imports = _reference_imports()
    # The fuzzer's own imports are allowed; seeing them proves the scan works.
    assert any(module.startswith("repro.fuzz.") for module, _, _ in imports)
    offenders = [
        f"{module}:{line}"
        for module, line, inside_function in imports
        if module.split(".")[:2] != ["repro", "reference"]
        and not (module.split(".")[:2] == ["repro", "fuzz"] and inside_function)
    ]
    assert offenders == []


def test_import_repro_leaves_reference_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print('repro.reference' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert result.stdout.strip() == "False"


def test_scalar_objective_lives_only_in_reference():
    import repro.core
    import repro.core.distance
    import repro.reference

    for name in ("trajectory_distance", "program_oracle_distance_scalar"):
        assert getattr(repro.reference, name).__module__ == "repro.reference.distance"
        assert not hasattr(repro.core, name)
        assert not hasattr(repro.core.distance, name)
    definitions = [
        path.name
        for path in (SRC / "repro" / "core").rglob("*.py")
        if "def trajectory_distance" in path.read_text()
    ]
    assert definitions == []
