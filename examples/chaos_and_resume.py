"""Chaos testing and crash-safe resume: break a campaign on purpose, recover it.

``repro.faults`` scripts the failures long campaigns actually die of — a
worker killed mid-shard, a hang, a flaky disk — and the recovery machinery
(per-shard retries under a ``RetryPolicy``, the guaranteed inline lane,
fsynced checkpoint journals) puts the run back together *bit-identically*.
This walkthrough:

1. runs a sharded campaign fault-free, then again under an injected worker
   crash and a transient ``OSError``, and diffs every counter;
2. checkpoints a campaign to a shard manifest, truncates the manifest as a
   SIGKILL would, and resumes — only the missing shards re-execute;
3. corrupts a stored shield artifact on disk and fscks the store back to
   health.

Run with: ``PYTHONPATH=src python examples/chaos_and_resume.py``
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro import make_environment
from repro.core import Shield
from repro.faults import FaultPlan, FaultSpec, RetryPolicy, fault_plan
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantUnion
from repro.polynomials import Polynomial
from repro.rl.networks import MLP
from repro.rl.policies import NeuralPolicy
from repro.shard import ShardPool
from repro.store import CorruptArtifactError, ShieldStore

FIELDS = ("total_rewards", "unsafe_counts", "intervention_counts", "steady_at")


def make_shield(env, seed=0):
    rng = np.random.default_rng(seed)
    scale = env.action_high if env.action_high is not None else np.ones(env.action_dim)
    network = MLP(env.state_dim, (48, 32), env.action_dim, output_scale=scale, seed=seed)
    program = AffineProgram(
        gain=rng.normal(scale=0.2, size=(env.action_dim, env.state_dim)),
        names=env.state_names,
    )
    invariant = Invariant(
        barrier=Polynomial.quadratic_form(np.eye(env.state_dim)) - 0.5,
        names=env.state_names,
    )
    return Shield(
        env=env,
        neural_policy=NeuralPolicy(network),
        program=GuardedProgram(branches=[(invariant, program)], names=env.state_names),
        invariant=InvariantUnion([invariant]),
        measure_time=False,
    )


def campaign(env, checkpoint=None, resume=False):
    retry = RetryPolicy(max_attempts=3, backoff_seconds=0.05)
    with ShardPool(env, shield=make_shield(env), workers=2, shards=4, retry=retry) as pool:
        return pool.run_campaign(400, 60, seed=0, checkpoint=checkpoint, resume=resume)


def identical(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in FIELDS)


def main():
    env = make_environment("pendulum")
    baseline = campaign(env)
    print(f"fault-free: failures={baseline.failures}, "
          f"interventions={baseline.interventions}")

    # 1. Crash a worker mid-shard, then inject a transient OSError.  Recovery
    #    retries only the failed shard; the counters come out bit-identical.
    for kind, index in (("crash", 2), ("oserror", 0)):
        plan = FaultPlan(specs=[FaultSpec(site="shard.worker", kind=kind, index=index)])
        with fault_plan(plan), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # recovery warns
            recovered = campaign(env)
        events = recovered.stats["faults"]
        print(f"{kind:>8} at shard {index}: bit-identical={identical(baseline, recovered)}, "
              f"executions={recovered.stats['shard_executions']}, "
              f"recovery={[e['outcome'] for e in events]}")

    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)

        # 2. Checkpoint each completed shard; truncate the manifest as a
        #    SIGKILL would; resume re-executes only what is missing.
        manifest = workdir / "campaign.manifest"
        campaign(env, checkpoint=manifest)
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:-2]) + "\n")  # lose the last 2 shards
        resumed = campaign(env, checkpoint=manifest, resume=True)
        print(f"resume after kill: bit-identical={identical(baseline, resumed)}, "
              f"origins={resumed.stats['shard_origins']}, "
              f"executions={resumed.stats['shard_executions']}")

        # 3. Corrupt a stored artifact on disk; fsck detects it, names the
        #    damaged path and expected key, and quarantines the bad object.
        store = ShieldStore(workdir / "store")
        key = store.put(make_artifact(env))
        path = store._path_for(key)
        path.write_text(path.read_text()[:50])
        try:
            store.get(key)
        except CorruptArtifactError as error:
            print(f"corrupt read: {error}")
        ok, corrupt = store.fsck(delete_corrupt=True)
        print(f"fsck: {len(ok)} ok, quarantined={[c['key'][:12] for c in corrupt]}")


def make_artifact(env):
    from repro.lang import ShieldArtifact

    invariant = Invariant(
        barrier=Polynomial.quadratic_form(np.eye(env.state_dim)) - 0.5,
        names=env.state_names,
    )
    program = AffineProgram(
        gain=np.zeros((env.action_dim, env.state_dim)), names=env.state_names
    )
    return ShieldArtifact(
        program=GuardedProgram(branches=[(invariant, program)], names=env.state_names),
        invariant=InvariantUnion([invariant]),
        environment="chaos_example",  # non-registry label: nothing to lint against
    )


if __name__ == "__main__":
    main()
