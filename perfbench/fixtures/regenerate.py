"""Regenerate the ``deploy-fleet`` fixture: the seed-0 pendulum shield of Table 1.

The shield is synthesized exactly as the ``table1`` workload's pendulum row
synthesizes it (``ExperimentScale.smoke()``, cloned oracle, seed 0) and stored
as a :class:`~repro.store.ShieldStore` artifact under ``fixtures/pendulum``.
Wall-clock provenance is zeroed, so the store key is a function of the program
and invariant alone: regenerating after an unrelated change reproduces the
same key, and a synthesis change shows up as a new key.

Run from the repository root (takes about 20 s)::

    python3 perfbench/fixtures/regenerate.py

It prints the new key; ``FIXTURE_KEY`` in ``perfbench/workloads.py`` must
name it, or the benchmark refuses to load the fixture.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.envs.registry import get_benchmark  # noqa: E402
from repro.experiments.reporting import ExperimentScale  # noqa: E402
from repro.rl.training import train_oracle  # noqa: E402
from repro.store import ShieldStore, SynthesisService  # noqa: E402

STORE_DIR = HERE / "pendulum"
TIMING_METADATA = ("synthesis_seconds", "total_seconds")


def regenerate(store_dir: Path = STORE_DIR) -> str:
    scale = ExperimentScale.smoke()
    spec = get_benchmark("pendulum")
    env = spec.make()
    oracle = train_oracle(
        env, method=scale.oracle_method, hidden_sizes=scale.oracle_hidden, seed=scale.seed
    ).policy
    config = scale.cegis_config(
        backend=spec.certificate_backend, invariant_degree=spec.invariant_degree
    )
    result = SynthesisService().synthesize(
        env, oracle, config=config, environment="pendulum",
        extra_metadata={"experiment": "table1"},
    )
    artifact = result.artifact
    for key in TIMING_METADATA:
        artifact.metadata[key] = 0.0
    store = ShieldStore(store_dir)
    for entry in store.list():
        store.delete(entry.key)
    return store.put(artifact)


if __name__ == "__main__":
    print(regenerate())
