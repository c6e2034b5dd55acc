"""Ablation: certificate backends and decision procedures (README, "Verification kernel").

Compares, on the same verification problems,

* the exact quadratic Lyapunov backend vs. the sampled-LP barrier backend
  (which the paper's Mosek/SOS pipeline corresponds to), and
* the interval branch-and-bound decision procedure vs. the Handelman/Farkas LP
  prover on condition-(8)/(9)-style queries.
"""

import numpy as np
import pytest

from repro.baselines import make_lqr_policy
from repro.certificates import Box, BranchAndBoundVerifier, FarkasVerifier
from repro.core import VerificationConfig, verify_program
from repro.envs import make_environment
from repro.lang import AffineProgram
from repro.polynomials import Polynomial

from conftest import run_once


@pytest.mark.parametrize("backend", ["lyapunov", "barrier"])
def test_backend_verification_time(benchmark, backend):
    """Wall-clock cost of certifying the same program with each backend."""
    env = make_environment("satellite")
    program = AffineProgram(
        gain=make_lqr_policy(env).gain, action_low=env.action_low, action_high=env.action_high
    )

    def run():
        return verify_program(
            env, program, config=VerificationConfig(backend=backend, invariant_degree=2)
        )

    outcome = run_once(benchmark, run)
    assert outcome.verified
    assert outcome.backend == backend


@pytest.mark.parametrize("prover", ["bnb", "farkas"])
def test_decision_procedure_cost(benchmark, prover):
    """Branch-and-bound vs. Handelman LP on a batch of condition-(8) style queries.

    Each query asks whether a quadratic barrier is positive on a far-away unsafe
    box — the shape discharged once per unsafe cover box in every CEGIS round.
    """
    rng = np.random.default_rng(0)
    barrier_matrices = [np.diag(rng.uniform(0.5, 2.0, size=2)) for _ in range(10)]
    unsafe = Box((2.0, -1.0), (3.0, 1.0))
    bnb = BranchAndBoundVerifier(tolerance=1e-9)
    farkas = FarkasVerifier(max_degree=2)

    def run():
        proved = 0
        for matrix in barrier_matrices:
            barrier = Polynomial.quadratic_form(matrix) - 1.0
            if prover == "bnb":
                proved += bool(bnb.prove_positive(barrier, [unsafe]).verified)
            else:
                proved += bool(farkas.prove_positive(barrier, [unsafe]).proved)
        return proved

    proved = run_once(benchmark, run)
    assert proved == len(barrier_matrices)


@pytest.mark.parametrize("degree", [2, 4])
def test_barrier_backend_degree_cost_on_nonlinear_plant(benchmark, degree):
    """Invariant-degree cost on a polynomial (Duffing) closed loop — the Table 2 axis.

    The initial region is the shrunk box Algorithm 2 would hand to the verifier
    for the first synthesized policy of Example 4.3 (a single linear program is
    *not* verifiable over the whole ``S0`` — that is why CEGIS needs a second
    branch, cf. ``benchmarks/test_fig6.py``).
    """
    env = make_environment("duffing")
    program = AffineProgram(gain=[[0.39, -1.41]], names=env.state_names)
    shrunk_init = Box((-1.0, -0.8), (1.0, 0.8))

    def run():
        return verify_program(
            env,
            program,
            init_box=shrunk_init,
            config=VerificationConfig(backend="barrier", invariant_degree=degree),
        )

    outcome = run_once(benchmark, run)
    assert outcome.backend == "barrier"
    assert outcome.verified, outcome.failure_reason
