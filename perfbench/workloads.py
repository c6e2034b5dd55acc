"""The benchmark's workloads: a Table 1 sweep and a shielded fleet deployment.

A workload is built once (its set-up), then runs ``prepare()`` and
``run_pass()`` repeatedly; each pass performs ``operations`` operations (Table 1 rows, or one fleet
deployment) and returns their outputs.  ``check(outcomes)`` lists every way
the passes of one run went wrong (empty means correct), and
``unverified_rows(outcome)`` counts rows that ended without a shield.

The workload seed draws inputs that do not change what is synthesized:
synthesis itself always runs at the Table 1 seed 0, because its cost moves
by up to 2.7x across synthesis seeds (pendulum 18.5, 13.3 and 6.8 s at seeds
0, 1 and 2), which would drown any change worth measuring.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence

import repro.compile
from repro.envs import make_environment
from repro.experiments.reporting import ExperimentScale
from repro.experiments.table1 import run_benchmark_row
from repro.lang.serialize import program_fingerprint
from repro.runtime.simulation import EvaluationProtocol, compare_shielded
from repro.store import ShieldStore, SynthesisService

__all__ = ["WORKLOADS", "Table1Sweep", "FleetDeployment"]

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "pendulum"
#: Store key of the committed pendulum shield; ``fixtures/regenerate.py`` prints it.
FIXTURE_KEY = "5ff41ebebc94ad7d450d85dfbdb562dab5b71a1ddda70292f7907d62168e4ba4"

#: The 7 smoke rows that verify, where branch-and-bound mostly proves, then
#: cartpole, which ends unverified with branch-and-bound mostly refuting.
#: 4_car_platoon ends the same way but is left out: its 41-57 s alone would
#: push a traced run, an untraced plus a traced pass, toward the 180 s a run
#: may take.
TABLE1_ROWS = (
    "satellite", "tape", "suspension", "datacenter", "quadcopter", "self_driving", "pendulum",
    "cartpole",
)
#: How CEGIS reports that no verified program exists for a row.
UNVERIFIED = "CEGIS failed"

Outcome = Dict[str, object]


class _CampaignSeedScale(ExperimentScale):
    """Table 1 smoke scale whose campaigns draw initial states from another seed."""

    campaign_seed: int = 0

    def protocol(self) -> EvaluationProtocol:
        protocol = super().protocol()
        protocol.seed = self.campaign_seed
        return protocol


class _RecordingService(SynthesisService):
    """A plain synthesis service that keeps its last result for the checks."""

    result = None

    def synthesize(self, *args, **kwargs):
        self.result = super().synthesize(*args, **kwargs)
        return self.result


class Table1Sweep:
    """``run_benchmark_row`` over fixed rows, each pass from cold caches.

    The seed draws the initial states of every row's three campaigns.  A row
    either yields a shield or ends in CEGIS's "no verified program" verdict;
    both are outcomes the checks hold fixed across passes.  Any other
    exception is a fault and propagates.
    """

    def __init__(self, rows: Sequence[str], seed: int) -> None:
        self.rows = tuple(rows)
        self.operations = len(self.rows)
        self.scale = _CampaignSeedScale(**vars(ExperimentScale.smoke()))
        self.scale.campaign_seed = seed
        self.params = {
            "rows": list(self.rows), "scale": "smoke", "synthesis_seed": 0, "campaign_seed": seed
        }

    def prepare(self) -> None:
        repro.compile.clear_kernel_cache()

    def run_pass(self) -> Dict[str, Outcome]:
        outcomes: Dict[str, Outcome] = {}
        for name in self.rows:
            service = _RecordingService()
            try:
                row = run_benchmark_row(name, self.scale, service=service)
            except RuntimeError as error:
                if not str(error).startswith(UNVERIFIED):
                    raise
                outcomes[name] = {"error": str(error)}
                continue
            outcomes[name] = {
                "fingerprint": program_fingerprint(service.result.program),
                "program_size": row["program_size"],
                "shielded_failures": row["shielded_failures"],
                "interventions": row["interventions"],
            }
        return outcomes

    def unverified_rows(self, outcome: Dict[str, Outcome]) -> int:
        return sum("error" in row for row in outcome.values())

    def check(self, passes: List[Dict[str, Outcome]]) -> List[str]:
        problems = []
        for index, outcome in enumerate(passes):
            for name in self.rows:
                row = outcome.get(name) or {}
                if not row.get("error") and not row.get("fingerprint"):
                    problems.append(f"pass {index}: {name} has neither a shield nor an error")
                if row.get("shielded_failures", 0) != 0:
                    problems.append(
                        f"pass {index}: {name} shield let {row['shielded_failures']} episodes fail"
                    )
            if outcome != passes[0]:
                problems.append(f"pass {index}: outcomes differ from pass 0")
        return problems


class FleetDeployment:
    """``compare_shielded`` at fleet scale around the committed pendulum shield.

    The shield guards a deliberately weak network (5 epochs of behaviour
    cloning from LQR, seed 0), so it really intervenes: other training seeds
    can yield a network that never needs the shield (seed 1 does).  The
    workload seed draws the fleet's initial states.  Set-up loads the fixture
    through the store and compiles the three campaigns' steppers once, as a
    long-lived deployment does.
    """

    operations = 1

    def __init__(
        self, seed: int, episodes: int = 4000, steps: int = 1000, workers: int = 2
    ) -> None:
        from repro.baselines import make_lqr_policy
        from repro.rl import behaviour_clone

        artifact = ShieldStore(FIXTURE_DIR).get(FIXTURE_KEY)
        self.env = make_environment(artifact.environment, **artifact.environment_overrides)
        self.network = behaviour_clone(self.env, make_lqr_policy(self.env), epochs=5, seed=0)
        self.shield = artifact.build_shield(self.env, self.network)
        for stepper in (
            repro.compile.compile_stepper(self.env, policy=self.network),
            repro.compile.compile_stepper(self.env, shield=self.shield),
            repro.compile.compile_stepper(self.env, policy=self.shield.program),
        ):
            if stepper is None:
                raise RuntimeError("deployment campaigns did not compile")
        self.protocol = EvaluationProtocol(
            episodes=episodes, steps=steps, seed=seed, workers=workers
        )
        self.params = {
            "fixture": FIXTURE_KEY, "episodes": episodes, "steps": steps, "workers": workers,
            "network_seed": 0, "fleet_seed": seed,
        }

    def prepare(self) -> None:
        """Nothing to reset: a deployment keeps its compiled kernels warm."""

    def run_pass(self) -> Outcome:
        comparison = compare_shielded(self.env, self.network, self.shield, self.protocol)
        return {
            "bare_failures": comparison.neural.failures,
            "shielded_failures": comparison.shielded.failures,
            "interventions": comparison.shielded.interventions,
            "shielded_s": comparison.shielded.total_seconds,
        }

    def unverified_rows(self, outcome: Outcome) -> int:
        return 0

    def check(self, passes: List[Outcome]) -> List[str]:
        problems = []
        for index, outcome in enumerate(passes):
            failures = outcome["shielded_failures"]
            if failures != 0:
                problems.append(f"pass {index}: {failures} shielded episodes failed")
            if outcome["interventions"] == 0:
                problems.append(f"pass {index}: the shield never intervened, so its fallback "
                                "went unmeasured")
            for key in ("bare_failures", "interventions"):
                if outcome[key] != passes[0][key]:
                    problems.append(
                        f"pass {index}: {key} {outcome[key]} != {passes[0][key]} of pass 0"
                    )
        return problems


WORKLOADS = {
    "table1": lambda seed: Table1Sweep(TABLE1_ROWS, seed),
    "deploy-fleet": lambda seed: FleetDeployment(seed),
}
