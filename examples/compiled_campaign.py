"""Compiled execution layer: the same campaign, interpreted vs. compiled.

``repro.compile`` lowers a shield's program, invariants, and (where needed)
the environment's symbolic dynamics into fused NumPy kernels, then advances
the whole ``(episodes, state_dim)`` fleet one step per kernel call.  This
example runs one shielded campaign through both engines, shows the wall-clock
ratio and the identical safety counters, and peeks at the lowered artifact
tables and the process-wide kernel cache.

Run with: ``PYTHONPATH=src python examples/compiled_campaign.py``
"""

import time

import numpy as np

from repro import make_environment
from repro.compile import compiled_program_for, kernel_cache_stats, lower_program
from repro.core import Shield
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantUnion
from repro.polynomials import Polynomial
from repro.reference import evaluate_policy_interpreted
from repro.rl.networks import MLP
from repro.rl.policies import NeuralPolicy
from repro.runtime import EvaluationProtocol, evaluate_policy


def make_shield(env):
    scale = env.action_high if env.action_high is not None else np.ones(env.action_dim)
    network = MLP(env.state_dim, (48, 32), env.action_dim, output_scale=scale, seed=0)
    program = AffineProgram(
        gain=np.full((env.action_dim, env.state_dim), -0.4), names=env.state_names
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
    env = make_environment("8_car_platoon")
    protocol = EvaluationProtocol(episodes=100, steps=250, seed=0)

    # 1. The interpreted reference (repro.reference): the lockstep loop over
    #    tree-walking programs and barrier tables.
    shield = make_shield(env)
    start = time.perf_counter()
    slow = evaluate_policy_interpreted(env, shield, protocol, shield=shield)
    interpreted_seconds = time.perf_counter() - start

    # 2. The compiled engine (the product path): one fused kernel per step.
    shield = make_shield(env)
    start = time.perf_counter()
    fast = evaluate_policy(env, shield, protocol, shield=shield)
    compiled_seconds = time.perf_counter() - start

    print(f"environment:            {env.name} (n={env.state_dim}, m={env.action_dim})")
    print(f"interpreted campaign:   {interpreted_seconds * 1000:7.1f} ms")
    print(f"compiled campaign:      {compiled_seconds * 1000:7.1f} ms")
    print(f"speedup:                {interpreted_seconds / compiled_seconds:7.2f}x")
    print(f"interventions:          {slow.interventions} == {fast.interventions}")
    unsafe_slow = sum(e.unsafe_steps for e in slow.episodes)
    unsafe_fast = sum(e.unsafe_steps for e in fast.episodes)
    print(f"unsafe steps:           {unsafe_slow} == {unsafe_fast}")

    # 3. What the lowering pass produced for the shield's fallback program.
    kernel = lower_program(shield.program)
    guard_block = kernel.guards._block
    exponents, coefficients, intercept = guard_block.table()
    print("\nlowered guard block:")
    print(f"  monomial table shape: {exponents.shape} (degree {guard_block.degree})")
    print(f"  coefficients shape:   {coefficients.shape}, intercept {intercept}")

    # 4. The process-wide kernel cache: compiled once, reused everywhere.
    compiled_program_for(shield.program)  # second lookup -> pure cache hit
    print(f"\nkernel cache:           {kernel_cache_stats()}")


if __name__ == "__main__":
    main()
