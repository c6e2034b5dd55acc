"""Sharded fleet execution: the same campaign, one process vs. a worker pool.

``repro.shard`` splits an ``(episodes, state_dim)`` fleet into contiguous
episode shards, runs each shard's fused closed-loop kernel in a persistent
pool of fork-inherited worker processes writing into one shared-memory arena,
and merges the per-episode arrays, process-wide counters, and disturbance
residual moments deterministically.  The shard plan is independent of the
worker count, so the counters below come out *bit-identical* whether one
process drains every shard or a pool of workers splits them.

Run with: ``PYTHONPATH=src python examples/sharded_fleet.py``
"""

import numpy as np

from repro import make_environment
from repro.core import Shield
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantUnion
from repro.polynomials import Polynomial
from repro.rl.networks import MLP
from repro.rl.policies import NeuralPolicy
from repro.shard import ShardPool


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


def main():
    env = make_environment("pendulum")
    episodes, steps = 2000, 100

    # 1. The same shielded campaign at two worker counts — identical counters.
    results = {}
    for workers in (1, 4):
        with ShardPool(env, shield=make_shield(env), workers=workers) as pool:
            result = pool.run_campaign(episodes, steps, seed=0)
        results[workers] = result
        print(
            f"workers={workers} ({result.stats['mode']:>10}): "
            f"{result.episodes_per_second:8.0f} episodes/s, "
            f"failures={result.failures}, interventions={result.total_interventions}, "
            f"shards={result.stats['shard_episodes']}"
        )
    assert np.array_equal(results[1].total_rewards, results[4].total_rewards)
    assert np.array_equal(results[1].unsafe_counts, results[4].unsafe_counts)
    print("counters bit-identical across worker counts\n")

    # 2. A pool kept open amortises worker fork + kernel compilation across
    #    runs — the natural shape for sweeping seeds or fleet widths.
    with ShardPool(env, shield=make_shield(env), workers=4) as pool:
        for seed in range(3):
            result = pool.run_campaign(episodes, steps, seed=seed)
            print(
                f"seed={seed}: mean return {np.mean(result.total_rewards):10.2f}, "
                f"{result.episodes_per_second:8.0f} episodes/s"
            )
    print()

    # 3. Monitored fleets shard too: residual moments merge in shard order, so
    #    the disturbance estimate matches the single-process fit exactly.
    with ShardPool(env, shield=make_shield(env), workers=4) as pool:
        report = pool.run_monitored(episodes, steps, seed=0)
    estimate = report.disturbance_estimate
    print(
        f"monitored: interventions={report.total_interventions}, "
        f"mismatches={report.total_model_mismatches}, "
        f"estimate over {estimate.samples if estimate else 0} residuals"
    )

    # 4. Float32 workspaces halve rollout memory traffic; safety counters stay
    #    validated against the float64 reference in tests/test_shard.py.
    with ShardPool(env, shield=make_shield(env), workers=4, dtype=np.float32) as pool:
        f32 = pool.run_campaign(episodes, steps, seed=0)
    print(f"float32: {f32.episodes_per_second:.0f} episodes/s (dtype={f32.stats['dtype']})")


if __name__ == "__main__":
    main()
