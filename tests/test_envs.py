"""Tests for the environment substrate (all 16 benchmark transition systems)."""

import numpy as np
import pytest

from repro.envs import (
    BENCHMARKS,
    benchmark_names,
    get_benchmark,
    make_car_platoon,
    make_cartpole,
    make_environment,
    make_pendulum,
    make_self_driving,
)
from repro.lang import AffineProgram

ALL_NAMES = benchmark_names()


@pytest.fixture(params=ALL_NAMES)
def env(request):
    return make_environment(request.param)


class TestEveryBenchmark:
    def test_regions_are_consistent(self, env):
        assert env.init_region.is_subset_of(env.safe_box)
        assert env.safe_box.is_subset_of(env.domain)

    def test_initial_states_are_safe(self, env):
        rng = np.random.default_rng(0)
        for state in env.init_region.sample(rng, 20):
            assert not env.is_unsafe(state)

    def test_unsafe_region_detection(self, env):
        outside = np.asarray(env.safe_box.high) * 1.5 + 0.5
        assert env.is_unsafe(outside)

    def test_step_shape_and_finiteness(self, env):
        rng = np.random.default_rng(1)
        state = env.sample_initial_state(rng)
        action = np.zeros(env.action_dim)
        next_state = env.step(state, action, rng)
        assert next_state.shape == (env.state_dim,)
        assert np.isfinite(next_state).all()

    def test_symbolic_closed_loop_matches_numeric(self, env):
        """The polynomial lowering must agree with the simulator — the property
        that makes verified invariants meaningful for the simulated system."""
        rng = np.random.default_rng(2)
        program = AffineProgram(gain=np.zeros((env.action_dim, env.state_dim)))
        polys = env.closed_loop_polynomials(program)
        for state in env.init_region.sample(rng, 5):
            symbolic = np.array([p.evaluate(state) for p in polys])
            numeric = env.predict(state, program.act(state))
            np.testing.assert_allclose(symbolic, numeric, atol=1e-9)

    def test_reward_penalises_unsafe(self, env):
        safe_state = np.zeros(env.state_dim)
        unsafe_state = np.asarray(env.safe_box.high) * 2.0 + 1.0
        action = np.zeros(env.action_dim)
        assert env.reward(unsafe_state, action) < env.reward(safe_state, action)

    def test_action_clipping(self, env):
        if env.action_high is None:
            pytest.skip("no actuator bounds")
        huge = np.full(env.action_dim, 1e9)
        np.testing.assert_allclose(env.clip_action(huge), env.action_high)

    def test_simulation_rollout(self, env):
        rng = np.random.default_rng(3)
        trajectory = env.simulate(lambda s: np.zeros(env.action_dim), steps=20, rng=rng)
        assert len(trajectory.states) == 21
        assert trajectory.actions.shape == (20, env.action_dim)
        assert trajectory.rewards.shape == (20,)

    def test_spec_metadata(self, env):
        spec = get_benchmark(env.name if env.name in BENCHMARKS else "pendulum")
        assert spec.description or spec.name

    def test_state_names_cardinality(self, env):
        assert len(env.state_names) == env.state_dim


class TestSpecificDynamics:
    def test_pendulum_gravity_destabilises_without_control(self):
        env = make_pendulum(safe_angle_deg=90.0)
        rng = np.random.default_rng(0)
        state = np.array([0.3, 0.0])
        for _ in range(200):
            state = env.step(state, np.zeros(1), rng)
        assert abs(state[0]) > 0.3  # falls over without a controller

    def test_pendulum_table3_parameters(self):
        heavier = make_pendulum(mass=1.3)
        longer = make_pendulum(length=0.65)
        nominal = make_pendulum()
        state = np.array([0.2, 0.0])
        action = np.array([1.0])
        # A heavier/longer pendulum reacts less to the same torque.
        assert abs(heavier.rate_numeric(state, action)[1]) < abs(
            nominal.rate_numeric(state, action)[1]
        )
        assert abs(longer.rate_numeric(state, action)[1]) < abs(
            nominal.rate_numeric(state, action)[1]
        )

    def test_cartpole_pole_length_changes_dynamics(self):
        short = make_cartpole(pole_length=0.5)
        long = make_cartpole(pole_length=0.65)
        state = np.array([0.0, 0.0, 0.2, 0.0])
        action = np.array([0.0])
        assert not np.allclose(short.rate_numeric(state, action), long.rate_numeric(state, action))

    @pytest.mark.parametrize("dt", [-1.0, 0.0, float("nan"), float("inf")])
    def test_time_step_must_be_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match="time step"):
            make_pendulum(dt=dt)

    def test_platoon_dimensions(self):
        assert make_car_platoon(4).state_dim == 8
        assert make_car_platoon(8).state_dim == 16
        with pytest.raises(ValueError):
            make_car_platoon(0)

    def test_platoon_coupling_structure(self):
        env = make_car_platoon(2)
        a, b = env.linear_matrices()
        # follower 2's velocity error reacts to its own and its predecessor's action
        assert b[3, 1] == 1.0 and b[3, 0] == -1.0

    def test_self_driving_obstacle_narrows_corridor(self):
        nominal = make_self_driving(obstacle=False)
        obstacle = make_self_driving(obstacle=True)
        assert obstacle.safe_box.high[0] < nominal.safe_box.high[0]
        assert obstacle.name != nominal.name

    def test_lane_keeping_has_disturbance(self):
        env = make_environment("lane_keeping")
        assert env.disturbance_bound is not None
        rng = np.random.default_rng(0)
        disturbances = [env.sample_disturbance(rng) for _ in range(20)]
        assert any(np.any(d != 0) for d in disturbances)
        assert all(np.all(np.abs(d) <= env.disturbance_bound + 1e-12) for d in disturbances)

    def test_oscillator_filter_chain(self):
        env = make_environment("oscillator")
        a, _ = env.linear_matrices()
        assert env.state_dim == 18
        # each filter stage feeds the next
        assert a[3, 2] != 0.0 and a[17, 16] != 0.0

    def test_biology_dynamics_are_polynomial_nonlinear(self):
        env = make_environment("biology")
        state = np.array([1.0, 0.2, 0.0])
        doubled = 2.0 * state
        rate1 = env.rate_numeric(state, np.zeros(1))
        rate2 = env.rate_numeric(doubled, np.zeros(1))
        # bilinear glucose/insulin-action coupling => not homogeneous of degree 1
        assert not np.allclose(rate2, 2.0 * rate1)


class TestRegistry:
    def test_all_names_resolvable(self):
        for name in ALL_NAMES:
            assert make_environment(name).state_dim >= 2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_benchmark("does_not_exist")

    def test_table1_subset(self):
        table1 = benchmark_names(table1_only=True)
        assert "duffing" not in table1
        assert len(table1) == 15

    def test_paper_reference_numbers_present(self):
        spec = get_benchmark("pendulum")
        assert spec.paper_failures == 60
        assert spec.paper_program_size == 3

    def test_factory_overrides(self):
        env = make_environment("pendulum", safe_angle_deg=30.0)
        assert env.safe_angle_deg == 30.0
