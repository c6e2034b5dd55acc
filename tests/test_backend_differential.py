"""Differential suite: every certificate backend that supports a query must agree
with the branch-and-bound SMT checker on SAFE/UNSAFE — no backend may ever
return a false SAFE.

For each registry environment (including disturbed variants) and each
registered backend that supports the query:

* an *unsafe* (destabilising) program must never be certified — the
  branch-and-bound ground truth cannot derive a certificate for it, so a SAFE
  verdict from any backend would be unsound;
* a *safe* (stabilising) program may be certified or not (the backends are
  incomplete), but every SAFE verdict's invariant must survive an independent
  branch-and-bound audit of conditions (8)-(10), and on disturbed
  environments the invariant must additionally be empirically inductive under
  every disturbance corner.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import make_lqr_policy
from repro.certificates import Box, audit_invariant, available_backends, is_disturbed
from repro.core import VerificationConfig, verify_program
from repro.envs import make_environment
from repro.lang import AffineProgram

#: (environment name, constructor overrides, init box override, good gain,
#: backend allowlist).  ``None`` gains mean "use the LQR teacher"; the duffing
#: rows shrink the initial box because no single affine program covers its
#: full S0; the allowlist keeps the sweep's wall-clock sane — the sampled-LP
#: search is quadratic-sketch-incomplete on the wider 3-dim plants and burns
#: its whole refinement budget before (soundly) giving up, so those rows pin
#: the exact backends instead (``None`` = every backend that supports the query).
CASES = [
    ("satellite", {}, None, None, None),
    ("satellite", {"disturbance_bound": [0.01, 0.01]}, None, None, None),
    ("tape", {}, None, None, ("lyapunov", "sos")),
    ("duffing", {}, Box([-0.5, -0.5], [0.5, 0.5]), [[-1.0, -1.5]], None),
    (
        "duffing",
        {"disturbance_bound": [0.02, 0.02]},
        Box([-0.5, -0.5], [0.5, 0.5]),
        [[-1.0, -1.5]],
        None,
    ),
]

CASE_IDS = [
    f"{name}{'-disturbed' if overrides else ''}" for name, overrides, _, _, _ in CASES
]

def _config(backend_name):
    """Per-backend config with the (always sound) give-up path bounded so
    refuting rows fail in seconds, not minutes."""
    config = VerificationConfig(backend=backend_name)
    config.barrier.max_refinements = 4
    return config


def _case(name, overrides, init_box, gains):
    env = make_environment(name, **overrides)
    if gains is None:
        good = AffineProgram(gain=make_lqr_policy(env).gain)
    else:
        good = AffineProgram(gain=np.array(gains, dtype=float))
    bad = AffineProgram(gain=5.0 * np.ones((env.action_dim, env.state_dim)))
    return env, init_box, good, bad


def _eligible_backends(env, program, only):
    return [
        backend
        for backend in available_backends()
        if backend.supports(env, program) and (only is None or backend.name in only)
    ]


def _one_step_inductive(env, invariant, program, rng, samples=4000):
    """Empirical condition (10): the disturbance-free successor of every
    sampled invariant state stays inside the invariant."""
    states = env.safe_box.sample(rng, samples)
    states = states[invariant.value_batch(states) <= 0.0]
    if not len(states):
        return True
    actions = np.stack([program.act(state) for state in states], axis=0)
    successors = env.predict_batch(states, actions)
    return not np.any(invariant.value_batch(successors) > 1e-6)


def _corner_inductive(env, invariant, program, rng, samples=4000):
    """Empirical condition (10) under every disturbance corner vector."""
    states = env.safe_box.sample(rng, samples)
    inside = invariant.value_batch(states) <= 0.0
    states = states[inside]
    if not len(states):
        return True
    actions = np.stack([program.act(state) for state in states], axis=0)
    nominal = env.predict_batch(states, actions)
    bound = np.asarray(env.disturbance_bound, dtype=float)
    from itertools import product

    for signs in product((-1.0, 1.0), repeat=bound.size):
        successors = nominal + env.dt * (np.asarray(signs) * bound)
        if np.any(invariant.value_batch(successors) > 1e-6):
            return False
    return True


@pytest.mark.parametrize("name,overrides,init_box,gains,only", CASES, ids=CASE_IDS)
def test_no_backend_certifies_an_unsafe_program(name, overrides, init_box, gains, only):
    env, init_box, _good, bad = _case(name, overrides, init_box, gains)
    for backend in _eligible_backends(env, bad, only):
        outcome = verify_program(
            env, bad, init_box=init_box, config=_config(backend.name)
        )
        assert not outcome.verified, (
            f"backend {backend.name} returned a false SAFE for a destabilising "
            f"program on {name} ({overrides})"
        )
        assert outcome.failure_reason


@pytest.mark.parametrize("name,overrides,init_box,gains,only", CASES, ids=CASE_IDS)
def test_safe_verdicts_survive_branch_and_bound_audit(name, overrides, init_box, gains, only):
    env, init_box, good, _bad = _case(name, overrides, init_box, gains)
    rng = np.random.default_rng(0)
    verdicts = {}
    for backend in _eligible_backends(env, good, only):
        outcome = verify_program(
            env, good, init_box=init_box, config=_config(backend.name)
        )
        verdicts[backend.name] = outcome
        if not outcome.verified:
            continue
        # Independent ground truth: the branch-and-bound SMT checker re-derives
        # conditions (8) and (10) from scratch for the claimed invariant.  A
        # SAFE verdict is falsified only by a *concrete* counterexample — an
        # exhausted exploration budget is inconclusive, in which case the
        # one-step empirical induction check below must still hold.
        report = audit_invariant(env, good, outcome.invariant, max_boxes=10_000)
        assert report.unsafe_positive, (backend.name, report.details)
        if not report.inductive:
            assert report.counterexample is None or any(
                "inconclusive" in detail for detail in report.details
            ), (backend.name, report.details)
            assert _one_step_inductive(env, outcome.invariant, good, rng), backend.name
        if is_disturbed(env):
            assert outcome.disturbance_aware
            assert _corner_inductive(env, outcome.invariant, good, rng), (
                f"{backend.name} certificate violates condition (10) under an "
                "admissible disturbance corner"
            )
    # The suite is vacuous if nothing verifies the stabilising program.
    assert any(outcome.verified for outcome in verdicts.values()), verdicts
