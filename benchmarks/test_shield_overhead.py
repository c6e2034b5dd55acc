"""Ablation: per-decision cost of the paper's shield against the bare network.

Table 1's "Overhead" column reports the relative cost of running the shielded
network instead of the bare network.  These micro-benchmarks break that down to
per-decision latency of the bare neural policy, the paper's shield (invariant
membership check + one-step model prediction) and the program alone.
"""

import numpy as np
import pytest

from repro.core import Shield
from repro.envs import make_environment
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantUnion
from repro.polynomials import Polynomial
from repro.rl import train_oracle


@pytest.fixture(scope="module")
def pendulum():
    return make_environment("pendulum")


@pytest.fixture(scope="module")
def oracle(pendulum):
    return train_oracle(pendulum, hidden_sizes=(48, 32), seed=0).policy


@pytest.fixture(scope="module")
def shield(pendulum, oracle):
    program = AffineProgram(gain=[[-12.05, -5.87]], names=pendulum.state_names)
    invariant = Invariant(
        barrier=Polynomial.quadratic_form(np.diag([1.0, 0.5])) - 0.2,
        names=pendulum.state_names,
    )
    guarded = GuardedProgram(branches=[(invariant, program)], names=pendulum.state_names)
    return Shield(
        env=pendulum,
        neural_policy=oracle,
        program=guarded,
        invariant=InvariantUnion([invariant]),
        measure_time=False,
    )


_STATES = [np.array([0.1, 0.0]), np.array([0.2, -0.1]), np.array([0.05, 0.15])]


def test_bare_network_decision_latency(benchmark, oracle):
    benchmark(lambda: [oracle(state) for state in _STATES])


def test_shielded_decision_latency(benchmark, shield):
    benchmark(lambda: [shield(state) for state in _STATES])


def test_programmatic_decision_latency(benchmark, shield):
    program = shield.program
    benchmark(lambda: [program.act(state) for state in _STATES])


def test_shield_overhead_relative_to_bare_network(benchmark, pendulum, oracle, shield):
    """End-to-end episode cost ratio, the quantity reported in Table 1."""
    import time

    def run():
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        pendulum.simulate(oracle, steps=500, rng=rng, initial_state=np.array([0.15, 0.0]))
        bare = time.perf_counter() - start
        start = time.perf_counter()
        pendulum.simulate(shield, steps=500, rng=rng, initial_state=np.array([0.15, 0.0]))
        shielded = time.perf_counter() - start
        return (shielded - bare) / bare

    overhead = benchmark.pedantic(run, rounds=1, iterations=1)
    # The overhead must stay modest (the paper reports a few percent on its
    # testbed; the exact number depends on the host and the oracle size).
    assert overhead < 2.0


def test_batched_shielded_campaign_throughput(benchmark, pendulum, shield):
    """Whole-campaign cost on the batched rollout engine (100 x 250 shielded)."""
    from repro.runtime import EvaluationProtocol, evaluate_policy

    protocol = EvaluationProtocol(episodes=100, steps=250, seed=0)

    def run():
        shield.reset_statistics()
        return evaluate_policy(pendulum, shield, protocol, shield=shield)

    metrics = benchmark.pedantic(run, rounds=3, iterations=1)
    assert metrics.num_episodes == 100
    assert metrics.total_decisions == 100 * 250
