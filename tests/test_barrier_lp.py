"""The cutting-plane barrier LP against the full-row reference LP.

``BarrierCertificateSynthesizer._solve_lp`` hands HiGHS a small working set
of the sampled rows and adds violated rows until every row holds.  Its
differential oracle, :func:`repro.reference.solve_barrier_lp_full`, solves
the same LP over every row at once.  The LP may have several optimal
coefficient vectors, so the suite compares what every optimum shares: the
margin ``γ``, and that each sampled row holds at the returned candidate.  It
also pins the row cache (a refinement's block equals a from-scratch build),
the single time budget per solve, and the single ``solver.lp`` fault check.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from scipy.optimize import linprog

import repro.faults
from repro.baselines import make_lqr_policy
from repro.certificates import Box, BranchAndBoundVerifier, SafetyProblem
from repro.certificates import barrier as barrier_module
from repro.certificates.barrier import BarrierCertificateSynthesizer, BarrierSynthesisConfig
from repro.envs import make_environment
from repro.faults import FaultPlan, FaultSpec, fault_plan
from repro.lang import AffineProgram
from repro.lang.sketch import InvariantSketch
from repro.reference import full_lp_rows, solve_barrier_lp_full

#: HiGHS's default primal feasibility tolerance: how far a returned
#: solution may violate a row it was given.
FEASIBILITY_TOLERANCE = 1e-7

#: (environment, invariant degree of its Table 1 row)
SKETCHES = [("pendulum", 4), ("cartpole", 2), ("quadcopter", 2)]


def _synthesizer(
    name, degree, disturbance_bound=None, config=None, verifier=None, init_fraction=1.0
):
    env = make_environment(name)
    program = AffineProgram(gain=make_lqr_policy(env).gain)
    init = env.init_region
    problem = SafetyProblem(
        closed_loop=env.closed_loop_polynomials(program),
        init_box=Box(
            tuple(init_fraction * np.asarray(init.low)),
            tuple(init_fraction * np.asarray(init.high)),
        ),
        unsafe_boxes=env.unsafe_cover_boxes(),
        safe_box=env.safe_box,
        domain_box=env.domain,
        disturbance_bound=disturbance_bound,
        disturbance_scale=env.dt,
    )
    return BarrierCertificateSynthesizer(
        sketch=InvariantSketch(state_dim=env.state_dim, degree=degree),
        problem=problem,
        config=config,
        verifier=verifier,
    )


def _samples(synthesizer, scale=1.0):
    rng = synthesizer._rng
    return [
        synthesizer.problem.init_box.sample(rng, int(barrier_module.SAMPLES_INIT * scale)),
        synthesizer._sample_unsafe(int(barrier_module.SAMPLES_UNSAFE * scale)),
        synthesizer.problem.safe_box.sample(rng, int(barrier_module.SAMPLES_INDUCTION * scale)),
    ]


def _refine(synthesizer, samples, step):
    """Append a counterexample cloud to one sample set, as ``search`` does."""
    kinds = ("init", "unsafe", "induction")
    index = step % 3
    source = samples[index] if len(samples[index]) else samples[2]
    point = source[synthesizer._rng.integers(len(source))]
    cloud = synthesizer._jitter_cloud(point, kinds[index])
    samples[index] = np.concatenate([samples[index], cloud], axis=0)


@pytest.mark.parametrize("name,degree", SKETCHES)
def test_cutting_plane_reaches_the_full_lp_optimum(name, degree):
    synthesizer = _synthesizer(name, degree)
    samples = _samples(synthesizer)
    for step in range(4):
        if step:
            _refine(synthesizer, samples, step)
        coefficients, gamma = synthesizer._solve_lp(*samples)
        _reference_coefficients, reference_gamma = solve_barrier_lp_full(synthesizer, *samples)
        assert coefficients is not None
        assert gamma == pytest.approx(reference_gamma, abs=1e-9)
        a_ub, column_scale = full_lp_rows(synthesizer, *samples)
        solution = np.concatenate([coefficients * column_scale, [gamma]])
        assert np.max(a_ub @ solution) <= FEASIBILITY_TOLERANCE


@pytest.mark.parametrize("disturbed", [False, True], ids=["undisturbed", "disturbed"])
def test_cached_rows_equal_a_from_scratch_build(disturbed):
    bound = [0.05, 0.05] if disturbed else None
    synthesizer = _synthesizer("pendulum", 4, disturbance_bound=bound)
    samples = _samples(synthesizer, scale=0.5)
    evaluated = []
    row_blocks = synthesizer._row_blocks

    def spy(kind, kind_samples):
        evaluated.append(len(kind_samples))
        return row_blocks(kind, kind_samples)

    synthesizer._row_blocks = spy
    corners = len(synthesizer._disturbance_corners())
    assert corners == (4 if disturbed else 0)
    for step in range(5):
        if step:
            _refine(synthesizer, samples, step)
        evaluated.clear()
        a_ub, column_scale = synthesizer._lp_rows(*samples)
        cached_build = sorted(evaluated)
        fresh_a_ub, fresh_scale = full_lp_rows(synthesizer, *samples)
        assert np.array_equal(a_ub, fresh_a_ub)
        assert np.array_equal(column_scale, fresh_scale)
        induction_rows = len(samples[2]) * (1 + corners)
        assert a_ub.shape[0] == len(samples[0]) + len(samples[1]) + induction_rows
        if step:
            # only the new cloud is evaluated; the other sets are all cached
            cloud = barrier_module.COUNTEREXAMPLE_CLOUD + 1
            assert cached_build == [0, 0, cloud]


def test_search_matches_search_over_the_full_lp():
    """The same refinement path as a search over the full LP.

    Where the sampled LP's optimum is not unique, HiGHS may return another
    optimal vertex over the working set than over all rows, and the search
    then follows another, equally valid, path: with half the pendulum's
    ``S0`` as the init box the candidates part at the second refinement.
    With this init box they agree at every refinement, and so does the
    search.
    """

    def make():
        return _synthesizer(
            "pendulum",
            4,
            verifier=BranchAndBoundVerifier(max_boxes=20_000, min_width=0.05),
            init_fraction=0.7,
        )

    cutting = make()
    solve = cutting._solve_lp
    gaps = []

    def solve_and_compare(*samples):
        coefficients, gamma = solve(*samples)
        reference_coefficients, _gamma = solve_barrier_lp_full(cutting, *samples)
        gaps.append(np.max(np.abs(coefficients - reference_coefficients)))
        return coefficients, gamma

    cutting._solve_lp = solve_and_compare
    result = cutting.search()
    reference = make()
    reference._solve_lp = functools.partial(solve_barrier_lp_full, reference)
    full = reference.search()
    assert result.verified and result.iterations >= 5
    assert max(gaps) < 1e-9
    assert (result.verified, result.iterations, result.failure_reason) == (
        full.verified,
        full.iterations,
        full.failure_reason,
    )


def _count_solves(monkeypatch, synthesizer, samples, on_call=None):
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("options"))
        if on_call is not None:
            on_call()
        return linprog(*args, **kwargs)

    monkeypatch.setattr(barrier_module, "linprog", spy)
    return synthesizer._solve_lp(*samples), calls


class _Clock:
    """A stand-in for the ``time`` module whose clock moves only when told."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_lp_time_limit_is_one_budget_for_all_resolves(monkeypatch):
    synthesizer = _synthesizer("cartpole", 2)
    samples = _samples(synthesizer)
    (_coefficients, _gamma), calls = _count_solves(monkeypatch, synthesizer, samples)
    assert len(calls) >= 3, "the cold start should need several solves"

    budget = 10.0
    clock = _Clock()
    monkeypatch.setattr(barrier_module, "time", clock)
    fresh = _synthesizer(
        "cartpole", 2, config=BarrierSynthesisConfig(lp_time_limit_seconds=budget)
    )

    def tick():
        clock.now += 0.6 * budget

    result, calls = _count_solves(monkeypatch, fresh, samples, on_call=tick)
    # each re-solve gets what is left; the third would start past the budget
    assert [options["time_limit"] for options in calls] == pytest.approx([budget, 0.4 * budget])
    assert result[0] is None and result[1] == float("-inf")


def test_one_fault_site_check_per_lp(monkeypatch):
    synthesizer = _synthesizer("cartpole", 2)
    samples = _samples(synthesizer)
    sites = []
    real_site = repro.faults.fault_site

    def spy_site(site, *args, **kwargs):
        sites.append(site)
        return real_site(site, *args, **kwargs)

    monkeypatch.setattr(repro.faults, "fault_site", spy_site)
    (coefficients, _gamma), calls = _count_solves(monkeypatch, synthesizer, samples)
    assert coefficients is not None
    assert len(calls) >= 2
    assert sites == ["solver.lp"]

    # an injected timeout ends the solve before HiGHS runs
    sites.clear()
    plan = FaultPlan(specs=[FaultSpec(site="solver.lp", kind="lp-timeout", index=None)])
    with fault_plan(plan, export=False):
        (coefficients, gamma), calls = _count_solves(monkeypatch, synthesizer, samples)
    assert coefficients is None and gamma == float("-inf")
    assert calls == [] and sites == ["solver.lp"]
