"""Differential tests: the compiled execution layer vs. the tree interpreter.

The compiled kernels (``repro.compile``) must be observationally equivalent to
the interpreted reference everywhere the toolchain routes through them:

* lowered polynomial blocks agree with ``Polynomial.evaluate_batch``,
* compiled programs agree with ``act``/``act_batch`` over random sketch
  instantiations (the ``test_serialize`` generators) and hand-built guarded
  programs exercising fallback / lenient / strict dispatch,
* compiled shielded campaigns reproduce the interpreted engine's
  (``repro.reference``) intervention, unsafe, and steady counters
  *identically* — with matching rewards — across every registry benchmark,
  multiple seeds, and disturbed fleets,
* the fused monitored campaign reproduces every fleet-report counter,
* the scalar fast paths (``Expr.evaluate``, ``GuardedProgram.act``) agree with
  the pure tree walks ``Expr.evaluate_interpreted`` and
  ``GuardedProgram.act_interpreted``,
* the kernel cache compiles a stored shield once per process: the second
  campaign over the same artifact is a pure cache hit.
"""

import numpy as np
import pytest

from repro.compile import (
    KernelCache,
    PolyBlock,
    clear_kernel_cache,
    compiled_program_for,
    kernel_cache_stats,
    lower_program,
)
from repro.compile.lowering import LoweringError
from repro.core import Shield
from repro.core.replay import batch_reaches_unsafe
from repro.envs import make_environment
from repro.envs.base import EnvironmentContext
from repro.envs.disturbance import SinusoidalDisturbance
from repro.envs.fleet import FleetStep
from repro.envs.registry import BENCHMARKS
from repro.lang import (
    AffineProgram,
    AffineSketch,
    GuardedProgram,
    Invariant,
    InvariantUnion,
    PolynomialSketch,
    TrueInvariant,
    UnreachableBranchError,
)
from repro.polynomials import Monomial, Polynomial
from repro.reference import evaluate_policy_interpreted, monitor_fleet_interpreted
from repro.rl.networks import MLP
from repro.rl.policies import NeuralPolicy
from repro.runtime import EvaluationProtocol, evaluate_policy
from repro.runtime.monitored import monitor_fleet

ALL_BENCHMARKS = tuple(BENCHMARKS)


def _random_polynomial(rng, num_vars, degree=3, terms=6):
    poly = Polynomial.zero(num_vars)
    for _ in range(terms):
        exponents = tuple(int(e) for e in rng.integers(0, degree + 1, size=num_vars))
        if sum(exponents) > degree:
            continue
        poly = poly + Polynomial(
            num_vars, {Monomial(exponents): float(rng.normal(scale=2.0))}
        )
    return poly


def _random_program(rng):
    state_dim = int(rng.integers(1, 5))
    action_dim = int(rng.integers(1, 3))
    if rng.random() < 0.5:
        sketch = AffineSketch(
            state_dim=state_dim,
            action_dim=action_dim,
            include_bias=bool(rng.random() < 0.5),
            action_low=-np.ones(action_dim) if rng.random() < 0.3 else None,
            action_high=np.ones(action_dim) if rng.random() < 0.3 else None,
        )
    else:
        sketch = PolynomialSketch(
            state_dim=state_dim, action_dim=action_dim, degree=int(rng.integers(1, 4))
        )
    return sketch.instantiate(rng.normal(scale=2.5, size=sketch.num_parameters))


def _act_interpreted(program, state):
    """``program.act`` by pure tree walk (affine programs have no tree to walk)."""
    exprs = getattr(program, "exprs", None)
    if exprs is None:
        return program.act(state)
    return np.array([expr.evaluate_interpreted(state) for expr in exprs])


def _make_shield(env, seed=0, measure_time=False):
    rng = np.random.default_rng(seed)
    d, m = env.state_dim, env.action_dim
    scale = env.action_high if env.action_high is not None else np.ones(m)
    network = MLP(d, (24, 16), m, output_scale=scale, seed=seed)
    program = AffineProgram(
        gain=rng.normal(scale=0.2, size=(m, d)), names=env.state_names
    )
    invariant = Invariant(
        barrier=Polynomial.quadratic_form(np.eye(d)) - 0.5, names=env.state_names
    )
    guarded = GuardedProgram(branches=[(invariant, program)], names=env.state_names)
    return Shield(
        env=env,
        neural_policy=NeuralPolicy(network),
        program=guarded,
        invariant=InvariantUnion([invariant]),
        measure_time=measure_time,
    )


def _campaign_signature(metrics):
    return (
        metrics.steps,
        metrics.unsafe_counts.tolist(),
        metrics.intervention_counts.tolist(),
        metrics.steady_at.tolist(),
    )


# ------------------------------------------------------------------- lowering
class TestPolyBlockLowering:
    def test_block_matches_evaluate_batch_over_random_polynomials(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            num_vars = int(rng.integers(1, 6))
            polys = [
                _random_polynomial(rng, num_vars, degree=int(rng.integers(1, 5)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            block = PolyBlock.from_polynomials(polys)
            points = rng.normal(scale=1.5, size=(40, num_vars))
            values = block.evaluate(points)
            for column, poly in enumerate(polys):
                np.testing.assert_allclose(
                    values[:, column],
                    poly.evaluate_batch(points),
                    rtol=1e-9,
                    atol=1e-12,
                )

    def test_constant_and_zero_polynomials(self):
        block = PolyBlock.from_polynomials(
            [Polynomial.constant(3.5, 2), Polynomial.zero(2)]
        )
        points = np.random.default_rng(1).normal(size=(7, 2))
        values = block.evaluate(points)
        np.testing.assert_array_equal(values[:, 0], np.full(7, 3.5))
        np.testing.assert_array_equal(values[:, 1], np.zeros(7))

    def test_affine_and_quadratic_fast_paths_are_selected(self):
        affine = PolyBlock.from_polynomials([Polynomial.affine([1.0, -2.0], 0.5, 2)])
        assert affine.degree == 1 and affine._affine_weights is not None
        quadratic = PolyBlock.from_polynomials(
            [Polynomial.quadratic_form(np.array([[2.0, 1.0], [0.0, 3.0]]))]
        )
        assert quadratic.degree == 2 and quadratic._quad_matrices is not None
        rng = np.random.default_rng(2)
        points = rng.normal(size=(25, 2))
        np.testing.assert_allclose(
            quadratic.evaluate(points)[:, 0],
            Polynomial.quadratic_form(np.array([[2.0, 1.0], [0.0, 3.0]])).evaluate_batch(
                points
            ),
            rtol=1e-9,
        )

    def test_mixed_variable_count_rejected(self):
        with pytest.raises(LoweringError):
            PolyBlock.from_polynomials([Polynomial.zero(2), Polynomial.zero(3)])

    @staticmethod
    def _folded_design_matrix(block, states):
        """Each monomial's column as a left fold of its powers in variable
        order, each power a multiplication chain ``x^(e-1) * x``."""
        design = np.empty((states.shape[0], block.exponents.shape[0]))
        for column, exponents in enumerate(block.exponents):
            value = None
            for var, exp in enumerate(exponents):
                if not exp:
                    continue
                power = states[:, var]
                for _ in range(int(exp) - 1):
                    power = power * states[:, var]
                value = power if value is None else value * power
            design[:, column] = value
        return design

    def test_design_matrix_is_bit_equal_to_the_per_monomial_fold(self):
        rng = np.random.default_rng(7)
        specials = np.array([0.0, -0.0, -1.5, 2.0, np.inf, -np.inf])
        for _ in range(60):
            num_vars = int(rng.integers(1, 7))
            polys = [
                _random_polynomial(rng, num_vars, degree=int(rng.integers(1, 7)), terms=8)
                for _ in range(int(rng.integers(1, 4)))
            ]
            try:
                block = PolyBlock.from_polynomials(polys)
            except LoweringError:
                continue
            if block.degree < 1:
                # No monomials: evaluate returns the intercept without a design matrix.
                continue
            points = rng.normal(scale=1.5, size=(30, num_vars))
            points[:10] = rng.choice(specials, size=(10, num_vars))
            with np.errstate(invalid="ignore", over="ignore"):
                fast = block._design_matrix(points)
                slow = self._folded_design_matrix(block, points)
            assert fast.dtype == np.float64
            np.testing.assert_array_equal(fast, slow)
            assert np.array_equal(np.signbit(fast), np.signbit(slow))


class TestCompiledPrograms:
    def test_random_sketch_instantiations_agree_with_interpreter(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            program = _random_program(rng)
            kernel = lower_program(program)
            states = rng.normal(scale=1.5, size=(30, program.state_dim))
            expected = program.act_batch(states)
            np.testing.assert_allclose(kernel.act(np.array(states)), expected, rtol=1e-9, atol=1e-11)
            # Scalar path agrees row by row as well.
            row = _act_interpreted(program, states[0])
            np.testing.assert_allclose(kernel.act(states[:1])[0], row, rtol=1e-9, atol=1e-11)

    def test_guarded_dispatch_matches_interpreter(self):
        rng = np.random.default_rng(5)
        inner = Invariant(barrier=Polynomial.quadratic_form(np.eye(2)) - 0.25)
        outer = Invariant(barrier=Polynomial.quadratic_form(np.eye(2)) - 1.0)
        program = GuardedProgram(
            branches=[
                (inner, AffineProgram(gain=[[1.0, 2.0]])),
                (outer, AffineProgram(gain=[[-3.0, 0.5]], bias=[0.1])),
            ],
        )
        kernel = lower_program(program)
        states = rng.normal(scale=0.8, size=(200, 2))
        expected = program.act_batch(states)
        np.testing.assert_allclose(kernel.act(np.array(states)), expected, rtol=1e-12)
        # Rows outside both invariants exercise the lenient closest-branch rule.
        far = rng.normal(scale=4.0, size=(50, 2))
        far = far[~outer.holds_batch(far)]
        assert far.shape[0] > 0
        expected_far = program.act_batch(far)
        np.testing.assert_allclose(kernel.act(np.array(far)), expected_far, rtol=1e-12)

    def test_guarded_fallback_true_invariant_and_strict(self):
        fallback = AffineProgram(gain=[[0.5, -0.5]])
        with_fallback = GuardedProgram(
            branches=[
                (
                    Invariant(barrier=Polynomial.quadratic_form(np.eye(2)) - 0.1),
                    AffineProgram(gain=[[1.0, 0.0]]),
                )
            ],
            fallback=fallback,
        )
        states = np.array([[0.1, 0.1], [3.0, 3.0]])
        kernel = lower_program(with_fallback)
        expected = with_fallback.act_batch(states)
        np.testing.assert_allclose(kernel.act(states.copy()), expected, rtol=1e-12)

        with_true = GuardedProgram(
            branches=[
                (
                    Invariant(barrier=Polynomial.quadratic_form(np.eye(2)) - 0.1),
                    AffineProgram(gain=[[1.0, 0.0]]),
                ),
                (TrueInvariant(2), AffineProgram(gain=[[0.0, 1.0]])),
            ],
        )
        kernel = lower_program(with_true)
        expected = with_true.act_batch(states)
        np.testing.assert_allclose(kernel.act(states.copy()), expected, rtol=1e-12)

        strict = GuardedProgram(
            branches=[
                (
                    Invariant(barrier=Polynomial.quadratic_form(np.eye(2)) - 0.1),
                    AffineProgram(gain=[[1.0, 0.0]]),
                ),
                (
                    Invariant(barrier=Polynomial.quadratic_form(np.eye(2)) - 0.2),
                    AffineProgram(gain=[[0.0, 1.0]]),
                ),
            ],
            strict=True,
        )
        kernel = lower_program(strict)
        with pytest.raises(UnreachableBranchError):
            kernel.act(np.array([[5.0, 5.0]]))


# ------------------------------------------------------- scalar fast paths
class TestScalarFastPaths:
    def test_guarded_act_matches_interpreted_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            program = GuardedProgram(
                branches=[
                    (
                        Invariant(barrier=_random_polynomial(rng, 3, degree=2) - 0.5),
                        _random_program_with_dims(rng, 3, 2),
                    ),
                    (TrueInvariant(3), _random_program_with_dims(rng, 3, 2)),
                ]
            )
            state = rng.normal(size=3)
            compiled_action = program.act(state)
            interpreted_action = program.act_interpreted(state)
            np.testing.assert_allclose(
                compiled_action, interpreted_action, rtol=1e-9, atol=1e-11
            )

    def test_expr_evaluate_matches_tree_walk(self):
        rng = np.random.default_rng(8)
        from repro.lang import expr_from_polynomial

        for _ in range(25):
            num_vars = int(rng.integers(1, 5))
            expr = expr_from_polynomial(_random_polynomial(rng, num_vars))
            state = rng.normal(size=num_vars)
            fast = expr.evaluate(state)
            slow = expr.evaluate_interpreted(state)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-11)


def _random_program_with_dims(rng, state_dim, action_dim):
    sketch = AffineSketch(state_dim=state_dim, action_dim=action_dim, include_bias=True)
    return sketch.instantiate(rng.normal(scale=1.5, size=sketch.num_parameters))


# ----------------------------------------------------------------- dynamics
def _lowered_rate(env):
    """The symbolic ``rate`` over joint ``(state, action)`` variables as one block."""
    joint = env.state_dim + env.action_dim
    state_vars = [Polynomial.variable(i, joint) for i in range(env.state_dim)]
    action_vars = [Polynomial.variable(env.state_dim + j, joint) for j in range(env.action_dim)]
    entries = [
        entry if isinstance(entry, Polynomial) else Polynomial.constant(float(entry), joint)
        for entry in env.rate(state_vars, action_vars)
    ]
    return PolyBlock.from_polynomials(entries)


class _RateOnlyEnv(EnvironmentContext):
    """A nonlinear env that writes only ``rate``."""

    def __init__(self):
        from repro.certificates.regions import Box

        super().__init__(
            state_dim=2,
            action_dim=1,
            init_region=Box((-0.2, -0.2), (0.2, 0.2)),
            safe_box=Box((-1.0, -1.0), (1.0, 1.0)),
            domain=Box((-2.0, -2.0), (2.0, 2.0)),
            dt=0.01,
            action_low=[-5.0],
            action_high=[5.0],
        )
        self.name = "custom_rate_only"

    def rate(self, state, action):
        x, y = state
        return [y, -0.5 * y - x - x * x * x + action[0]]


class _RateAndCostEnv(_RateOnlyEnv):
    """A bare-constant ``rate`` entry (a constant drift) and its own ``cost``."""

    def __init__(self):
        super().__init__()
        self.name = "custom_rate_and_cost"

    def rate(self, state, action):
        x, y = state
        return [0.2, -0.5 * y - x - x * x * y + action[0]]

    def cost(self, state, action):
        x, y = state
        return 2.0 * (x * x) + y * y * y * y + 0.05 * (action[0] * action[0]) + 0.3


class _ShortRateEnv(_RateOnlyEnv):
    """A ``rate`` that leaves out the second state entry."""

    def rate(self, state, action):
        return [state[1]]


class TestColumnDynamics:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_rate_batch_matches_lowered_rate(self, name):
        env = make_environment(name)
        block = _lowered_rate(env)
        rng = np.random.default_rng(11)
        states = env.init_region.sample(rng, 20)
        actions = rng.normal(scale=1.0, size=(20, env.action_dim))
        np.testing.assert_allclose(
            block.evaluate(np.concatenate([states, actions], axis=1)),
            env.rate_batch(states, actions),
            rtol=1e-9,
            atol=1e-11,
        )

    @pytest.mark.parametrize("name", ALL_BENCHMARKS + ("rate_and_cost",))
    def test_fleet_step_equals_the_batch_methods(self, name):
        env = _RateAndCostEnv() if name == "rate_and_cost" else make_environment(name)
        rng = np.random.default_rng(12)
        states = env.domain.sample(rng, 30)
        actions = rng.normal(scale=3.0, size=(30, env.action_dim))
        for rowwise in (False, True):
            step = FleetStep(env, rowwise=rowwise)
            np.testing.assert_array_equal(step.unsafe(states), env.is_unsafe_batch(states))
            clipped = step.clip(actions, np.empty_like(actions))
            np.testing.assert_array_equal(clipped, env.clip_action_batch(actions))
            rates = step.rate(states, clipped)
            if rowwise:
                expected = [env.rate_numeric(s, a) for s, a in zip(states, clipped)]
            else:
                expected = env.rate_batch(states, clipped)
            np.testing.assert_array_equal(rates, expected)

    def test_fleet_step_rejects_a_rate_with_too_few_entries(self):
        env = _ShortRateEnv()
        states = env.init_region.sample(np.random.default_rng(13), 5)
        actions = np.zeros((5, env.action_dim))
        for rowwise in (False, True):
            with pytest.raises(ValueError, match="one entry per state dimension"):
                FleetStep(env, rowwise=rowwise).rate(states, actions)
        with pytest.raises(ValueError, match="one entry per state dimension"):
            batch_reaches_unsafe(env, AffineProgram(gain=np.zeros((1, 2))), states, horizon=3)

    @pytest.mark.parametrize(
        "env_class", [_RateOnlyEnv, _RateAndCostEnv], ids=["rate_only", "rate_and_cost"]
    )
    def test_custom_env_campaign_matches_interpreted(self, env_class):
        env = env_class()
        shield = _make_shield(env, seed=3)
        protocol = EvaluationProtocol(episodes=12, steps=40, seed=4)
        shield.reset_statistics()
        slow = evaluate_policy_interpreted(env, shield, protocol, shield=shield)
        shield.reset_statistics()
        fast = evaluate_policy(env, shield, protocol, shield=shield)
        assert slow.intervention_counts.tolist() == fast.intervention_counts.tolist()
        np.testing.assert_allclose(
            slow.total_rewards,
            fast.total_rewards,
            rtol=1e-8,
        )


# ------------------------------------------------------------- campaign parity
class TestCampaignEquivalence:
    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_shielded_campaign_counters_identical(self, name):
        env = make_environment(name)
        protocol = EvaluationProtocol(episodes=20, steps=60, seed=0)

        shield = _make_shield(env, seed=0)
        slow = evaluate_policy_interpreted(env, shield, protocol, shield=shield)
        slow_stats = (shield.statistics.decisions, shield.statistics.interventions)

        shield = _make_shield(env, seed=0)
        fast = evaluate_policy(env, shield, protocol, shield=shield)
        fast_stats = (shield.statistics.decisions, shield.statistics.interventions)

        assert _campaign_signature(slow) == _campaign_signature(fast)
        assert slow_stats == fast_stats
        np.testing.assert_allclose(
            slow.total_rewards,
            fast.total_rewards,
            rtol=1e-9,
        )

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("name", ["pendulum", "cartpole", "8_car_platoon"])
    def test_campaign_parity_across_seeds(self, name, seed):
        env = make_environment(name)
        protocol = EvaluationProtocol(episodes=15, steps=50, seed=seed)
        shield = _make_shield(env, seed=seed)
        slow = evaluate_policy_interpreted(env, shield, protocol, shield=shield)
        shield = _make_shield(env, seed=seed)
        fast = evaluate_policy(env, shield, protocol, shield=shield)
        assert _campaign_signature(slow) == _campaign_signature(fast)

    def test_disturbed_fleet_campaign_parity(self):
        # lane_keeping carries a built-in bounded disturbance: the compiled
        # stepper must consume the generator stream exactly like step_batch.
        env = make_environment("lane_keeping")
        assert env.disturbance_bound is not None
        protocol = EvaluationProtocol(episodes=18, steps=60, seed=3)
        shield = _make_shield(env, seed=3)
        slow = evaluate_policy_interpreted(env, shield, protocol, shield=shield)
        shield = _make_shield(env, seed=3)
        fast = evaluate_policy(env, shield, protocol, shield=shield)
        assert _campaign_signature(slow) == _campaign_signature(fast)
        np.testing.assert_allclose(
            slow.total_rewards,
            fast.total_rewards,
            rtol=1e-9,
        )

    def test_unshielded_policy_campaign_parity(self):
        env = make_environment("satellite")
        protocol = EvaluationProtocol(episodes=16, steps=60, seed=2)
        policy = NeuralPolicy(
            MLP(env.state_dim, (16, 12), env.action_dim, output_scale=env.action_high, seed=2)
        )
        slow = evaluate_policy_interpreted(env, policy, protocol)
        fast = evaluate_policy(env, policy, protocol)
        assert _campaign_signature(slow) == _campaign_signature(fast)
        np.testing.assert_allclose(
            slow.total_rewards,
            fast.total_rewards,
            rtol=1e-9,
        )

    def test_program_policy_campaign_parity(self):
        env = make_environment("pendulum")
        protocol = EvaluationProtocol(episodes=16, steps=60, seed=5)
        program = _make_shield(env, seed=5).program
        slow = evaluate_policy_interpreted(env, program, protocol)
        fast = evaluate_policy(env, program, protocol)
        assert _campaign_signature(slow) == _campaign_signature(fast)


# ------------------------------------------------------------ monitored parity
class TestMonitoredEquivalence:
    @pytest.mark.parametrize("name", ["satellite", "pendulum", "cartpole"])
    def test_monitored_fleet_report_identical(self, name):
        env = make_environment(name)
        shield = _make_shield(env, seed=1)
        slow = monitor_fleet_interpreted(
            shield, episodes=15, steps=50, rng=np.random.default_rng(9)
        )
        shield = _make_shield(env, seed=1)
        fast = monitor_fleet(shield, episodes=15, steps=50, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(slow.interventions, fast.interventions)
        np.testing.assert_array_equal(slow.model_mismatches, fast.model_mismatches)
        np.testing.assert_array_equal(slow.invariant_excursions, fast.invariant_excursions)
        np.testing.assert_array_equal(slow.unsafe_steps, fast.unsafe_steps)
        np.testing.assert_allclose(
            slow.peak_barrier_values, fast.peak_barrier_values, rtol=1e-9
        )
        np.testing.assert_allclose(slow.final_states, fast.final_states, rtol=1e-9)
        if slow.disturbance_estimate is not None:
            np.testing.assert_allclose(
                slow.disturbance_estimate.bound,
                fast.disturbance_estimate.bound,
                rtol=1e-9,
            )

    def test_monitored_with_explicit_disturbance_model(self):
        env = make_environment("satellite")
        shield = _make_shield(env, seed=2)
        disturbance = SinusoidalDisturbance(
            amplitude=np.array([0.05, 0.05]), period=40.0, jitter=0.01
        )
        slow = monitor_fleet_interpreted(
            shield,
            episodes=12,
            steps=40,
            rng=np.random.default_rng(3),
            disturbance=disturbance,
        )
        shield = _make_shield(env, seed=2)
        fast = monitor_fleet(
            shield,
            episodes=12,
            steps=40,
            rng=np.random.default_rng(3),
            disturbance=SinusoidalDisturbance(
                amplitude=np.array([0.05, 0.05]), period=40.0, jitter=0.01
            ),
        )
        np.testing.assert_array_equal(slow.interventions, fast.interventions)
        np.testing.assert_array_equal(slow.unsafe_steps, fast.unsafe_steps)
        np.testing.assert_allclose(slow.final_states, fast.final_states, rtol=1e-9)


# --------------------------------------------------------------- other kernels
class TestAuxiliaryKernels:
    def test_ars_fused_returns_match_simulate_batch(self):
        from repro.rl.random_search import _environment_return
        from repro.rl.policies import LinearPolicy

        env = make_environment("satellite")
        policy = LinearPolicy(
            gain=np.array([[-1.0, -0.5]]),
            action_low=env.action_low,
            action_high=env.action_high,
        )
        trajectories = env.simulate_batch(
            policy, episodes=6, steps=40, rng=np.random.default_rng(4)
        )
        slow = float(np.mean(trajectories.total_rewards))
        fast = _environment_return(env, policy, 6, 40, np.random.default_rng(4))
        assert slow == pytest.approx(fast, rel=1e-10)

    def test_batch_reaches_unsafe_matches_interpreter(self):
        from repro.core.replay import batch_reaches_unsafe

        env = make_environment("pendulum")
        program = _make_shield(env, seed=6).program

        class Unlowerable:
            """No fingerprint, so replay adapts it through ``as_batch_policy``."""

            def act_batch(self, states):
                return program.act_batch(states)

        rng = np.random.default_rng(6)
        states = env.domain.sample(rng, 40)
        slow = batch_reaches_unsafe(env, Unlowerable(), states, horizon=60)
        fast = batch_reaches_unsafe(env, program, states, horizon=60)
        np.testing.assert_array_equal(slow, fast)


# ----------------------------------------------------------------- kernel cache
class TestKernelCache:
    def test_second_campaign_over_stored_shield_hits_cache(self):
        from repro.store import ShieldStore

        store = ShieldStore("tests/data/counterexamples/store")
        entries = store.find(environment="satellite")
        assert entries, "regression corpus must contain a satellite shield"
        artifact = store.get(entries[0].key)
        env = make_environment("satellite")
        policy = NeuralPolicy(
            MLP(env.state_dim, (16, 12), env.action_dim, output_scale=env.action_high, seed=0)
        )
        protocol = EvaluationProtocol(episodes=8, steps=30, seed=0)

        clear_kernel_cache()
        shield = artifact.build_shield(env, policy)
        first = evaluate_policy(env, shield, protocol, shield=shield)
        after_first = kernel_cache_stats()
        assert after_first["misses"] >= 1  # the artifact compiled exactly once

        shield = artifact.build_shield(env, policy)
        second = evaluate_policy(env, shield, protocol, shield=shield)
        after_second = kernel_cache_stats()
        assert after_second["misses"] == after_first["misses"]
        assert after_second["hits"] > after_first["hits"]
        assert _campaign_signature(first) == _campaign_signature(second)

    def test_unlowerable_program_falls_back_to_interpreter(self):
        class OpaqueProgram(AffineProgram):
            """Subclass the serializer does not recognise."""

        # program_to_dict serialises subclasses of AffineProgram fine, so use
        # a genuinely foreign object instead.
        class ForeignProgram:
            state_dim = 2
            action_dim = 1

            def act(self, state):
                return np.zeros(1)

            def act_batch(self, states):
                return np.zeros((states.shape[0], 1))

        assert compiled_program_for(ForeignProgram()) is None

    def test_lru_bound_evicts_transient_candidate_kernels(self):
        cache = KernelCache(max_entries=3)
        for key in "abc":
            cache.get_or_build(key, lambda key=key: key.upper())
        assert cache.get_or_build("a", lambda: "rebuilt") == "A"  # still warm
        cache.get_or_build("d", lambda: "D")  # evicts the coldest entry ("b")
        assert len(cache) == 3
        assert cache.get_or_build("b", lambda: "rebuilt") == "rebuilt"
        assert cache.get_or_build("a", lambda: "rebuilt-too") == "A"

    def test_fingerprint_keying_shares_kernels_across_equal_programs(self):
        clear_kernel_cache()
        rng = np.random.default_rng(13)
        gain = rng.normal(size=(1, 2))
        first = compiled_program_for(AffineProgram(gain=gain.copy()))
        before = kernel_cache_stats()
        second = compiled_program_for(AffineProgram(gain=gain.copy()))
        after = kernel_cache_stats()
        assert first is second
        assert after["hits"] == before["hits"] + 1
