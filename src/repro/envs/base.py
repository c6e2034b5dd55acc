"""Environment contexts ``C[·]``: infinite-state transition systems with continuous actions.

An :class:`EnvironmentContext` packages everything the paper's Section 3 setup
requires:

* the state variables ``X`` and action space ``A`` (dimensions and actuator bounds),
* the initial region ``S0`` and the unsafe region ``Su`` (expressed as the
  complement of a *safe box* within a bounded working *domain*),
* the continuous dynamics ``ṡ = f(s, a)`` and its Euler discretisation
  ``T_t[π] = {(s, s') | s' = s + f(s, π(s))·t}``,
* an optional bounded nondeterministic disturbance ``d`` with ``ṡ = f(s,a) + d``,
* a reward function ``r(s, a)`` for reinforcement learning, and
* helpers to lower the closed-loop transition relation to polynomials for the
  verification backends.

An environment writes its physics once, as two functions built from ``+``,
``-`` and ``*`` only: :meth:`~EnvironmentContext.rate` (``f(s, a)``, one entry
per state dimension) and :meth:`~EnvironmentContext.cost` (the regulation cost;
the reward is ``-(cost + unsafe_penalty · 1[unsafe])``).  The base class
evaluates each of them three ways:

* on :class:`~repro.polynomials.Polynomial` objects, for verification
  (:meth:`~EnvironmentContext.rate_polynomials`);
* on Python floats, for one state (:meth:`~EnvironmentContext.rate_numeric`,
  :meth:`~EnvironmentContext.reward`);
* on NumPy columns, for a whole fleet (:meth:`~EnvironmentContext.rate_batch`,
  :meth:`~EnvironmentContext.reward_cost_batch`,
  :meth:`~EnvironmentContext.reward_batch`), where a bare-constant entry
  broadcasts to a full column.

Floats and columns go through the same IEEE operations in the same order, so
the single-state and fleet paths agree bit for bit, and the verified model and
the simulated model cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..certificates.regions import Box, BoxComplement
from ..polynomials import Polynomial

__all__ = [
    "Trajectory",
    "BatchTrajectory",
    "EnvironmentContext",
    "LinearEnvironment",
    "mat_vec",
    "as_batch_policy",
]


def as_batch_policy(
    policy: Callable[[np.ndarray], np.ndarray], action_dim: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Adapt any scalar policy to the ``(episodes, state_dim) -> (episodes, action_dim)``
    interface, preferring a native ``act_batch`` when the policy provides one."""
    act = getattr(policy, "act_batch", None)
    if act is not None:
        return lambda states: np.asarray(act(states), dtype=float).reshape(
            states.shape[0], action_dim
        )

    def batched(states: np.ndarray) -> np.ndarray:
        return np.stack(
            [np.asarray(policy(row), dtype=float).reshape(action_dim) for row in states],
            axis=0,
        )

    return batched


def mat_vec(matrix: Sequence[Sequence[float]], vector: Sequence) -> List:
    """Generic matrix-vector product usable with floats or Polynomial entries."""
    result = []
    for row in matrix:
        acc = None
        for coeff, value in zip(row, vector):
            coeff = float(coeff)
            if coeff == 0.0:
                continue
            term = coeff * value
            acc = term if acc is None else acc + term
        result.append(acc if acc is not None else 0.0)
    return result


@dataclass
class Trajectory:
    """A finite rollout ``s_0, …, s_T`` with the actions taken along it."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    unsafe_steps: int = 0

    def __len__(self) -> int:
        return len(self.states)

    @property
    def total_reward(self) -> float:
        return float(np.sum(self.rewards))

    @property
    def became_unsafe(self) -> bool:
        return self.unsafe_steps > 0


@dataclass
class BatchTrajectory:
    """A batch of rollouts advanced in lockstep: arrays of shape ``(episodes, ...)``."""

    states: np.ndarray  # (episodes, steps + 1, state_dim)
    actions: np.ndarray  # (episodes, steps, action_dim)
    rewards: np.ndarray  # (episodes, steps)
    unsafe_step_counts: np.ndarray  # (episodes,)

    @property
    def episodes(self) -> int:
        return self.states.shape[0]

    @property
    def total_rewards(self) -> np.ndarray:
        """Per-episode return, shape ``(episodes,)``."""
        return np.sum(self.rewards, axis=1)

    def episode(self, index: int) -> Trajectory:
        """Extract one episode as a scalar :class:`Trajectory`."""
        return Trajectory(
            states=self.states[index],
            actions=self.actions[index],
            rewards=self.rewards[index],
            unsafe_steps=int(self.unsafe_step_counts[index]),
        )


class EnvironmentContext:
    """Base class for environment contexts (state transition system specifications).

    Subclasses must set the attributes below in ``__init__`` and implement
    :meth:`rate`.  Everything else (stepping, simulation, polynomial lowering)
    is provided generically.
    """

    name: str = "environment"
    state_names: Tuple[str, ...] = ()
    # Optional LQR cost matrices used by the teacher/baseline controller; None
    # means identity costs.  Benchmarks with tight safety margins override these
    # so their nominal controller respects the margins.
    lqr_state_cost: Optional[np.ndarray] = None
    lqr_action_cost: Optional[np.ndarray] = None

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        init_region: Box,
        safe_box: Box,
        domain: Box,
        dt: float = 0.01,
        action_low: Sequence[float] | None = None,
        action_high: Sequence[float] | None = None,
        horizon: int = 5000,
        disturbance_bound: Sequence[float] | None = None,
        steady_state_tolerance: float = 0.05,
        unsafe_penalty: float = 100.0,
        extra_unsafe_boxes: Sequence[Box] = (),
    ) -> None:
        self.state_dim = int(state_dim)
        self.action_dim = int(action_dim)
        self.init_region = init_region
        self.safe_box = safe_box
        self.domain = domain
        self.dt = float(dt)
        self.action_low = (
            np.asarray(action_low, dtype=float) if action_low is not None else None
        )
        self.action_high = (
            np.asarray(action_high, dtype=float) if action_high is not None else None
        )
        self.horizon = int(horizon)
        self.disturbance_bound = (
            np.asarray(disturbance_bound, dtype=float)
            if disturbance_bound is not None
            else None
        )
        self.steady_state_tolerance = float(steady_state_tolerance)
        self.unsafe_penalty = float(unsafe_penalty)
        self.extra_unsafe_boxes = list(extra_unsafe_boxes)
        if init_region.dim != state_dim or safe_box.dim != state_dim or domain.dim != state_dim:
            raise ValueError("region dimensions must match state_dim")
        if not safe_box.is_subset_of(domain):
            raise ValueError("the safe box must be contained in the working domain")
        if not init_region.is_subset_of(safe_box):
            raise ValueError("initial states must be safe")
        if not self.state_names:
            self.state_names = tuple(f"x{i}" for i in range(state_dim))

    # ----------------------------------------------------------- dynamics
    def rate(self, state: Sequence, action: Sequence) -> List:
        """The change of rate ``ṡ = f(s, a)`` written with +, -, * only.

        Must accept sequences of floats, of NumPy columns, or of
        :class:`~repro.polynomials.Polynomial` and return a list of the same
        kind (or bare constants), one entry per state dimension.
        """
        raise NotImplementedError

    def cost(self, state: Sequence, action: Sequence):
        """The regulation cost of taking ``action`` in ``state``, written with
        +, -, * only and without the unsafe penalty.

        Evaluated on floats by :meth:`reward` and on columns by
        :meth:`reward_cost_batch`.  The default is the quadratic
        ``Σ s_i² + 0.01 · Σ a_j²``.
        """
        squares = 0.0
        for value in state:
            squares = squares + value * value
        effort = 0.0
        for value in action:
            effort = effort + value * value
        return squares + 0.01 * effort

    def rate_numeric(self, state: np.ndarray, action: np.ndarray) -> np.ndarray:
        """:meth:`rate` evaluated on Python floats for one state."""
        state = np.asarray(state, dtype=float)
        action = np.asarray(action, dtype=float)
        return np.array(self.rate(state.tolist(), action.tolist()), dtype=float)

    def rate_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """:meth:`rate` evaluated on the columns of ``(episodes, state_dim)`` /
        ``(episodes, action_dim)`` blocks, shape ``(episodes, state_dim)``."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        rates = np.empty_like(states)
        entries = self.rate(list(states.T), list(actions.T))
        if len(entries) != self.state_dim:
            raise ValueError("rate must produce one entry per state dimension")
        for index, entry in enumerate(entries):
            rates[:, index] = entry
        return rates

    # ------------------------------------------------------------ regions
    @property
    def unsafe_region(self) -> BoxComplement:
        """``Su`` as the complement of the safe box within the working domain."""
        return BoxComplement(domain=self.domain, safe=self.safe_box)

    def unsafe_cover_boxes(self) -> List[Box]:
        """A box cover of the unsafe set (complement of the safe box plus extras)."""
        return self.unsafe_region.cover_boxes() + list(self.extra_unsafe_boxes)

    def is_unsafe(self, state: Sequence[float]) -> bool:
        if not self.safe_box.contains(state):
            return True
        return any(box.contains(state) for box in self.extra_unsafe_boxes)

    def is_unsafe_batch(self, states: np.ndarray) -> np.ndarray:
        """Boolean unsafe mask over rows of ``states``."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        unsafe = ~self.safe_box.contains_batch(states)
        for box in self.extra_unsafe_boxes:
            unsafe |= box.contains_batch(states)
        return unsafe

    def clip_action(self, action: np.ndarray) -> np.ndarray:
        action = np.asarray(action, dtype=float).reshape(self.action_dim)
        if self.action_low is not None:
            action = np.maximum(action, self.action_low)
        if self.action_high is not None:
            action = np.minimum(action, self.action_high)
        return action

    def clip_action_batch(self, actions: np.ndarray) -> np.ndarray:
        """Clip a ``(episodes, action_dim)`` block to the actuator bounds."""
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        if self.action_low is not None:
            actions = np.maximum(actions, self.action_low)
        if self.action_high is not None:
            actions = np.minimum(actions, self.action_high)
        return actions

    # ----------------------------------------------------------- stepping
    def sample_disturbance(self, rng: np.random.Generator | None) -> np.ndarray:
        if self.disturbance_bound is None or rng is None:
            return np.zeros(self.state_dim)
        return rng.uniform(-self.disturbance_bound, self.disturbance_bound)

    def sample_disturbance_batch(
        self, rng: np.random.Generator | None, count: int
    ) -> np.ndarray:
        """One disturbance row per episode; draws nothing when undisturbed.

        With a single episode this consumes the generator stream exactly like
        :meth:`sample_disturbance`, which is what makes batched and scalar
        rollouts bit-for-bit reproducible under the same seed.
        """
        if self.disturbance_bound is None or rng is None:
            return np.zeros((count, self.state_dim))
        return rng.uniform(
            -self.disturbance_bound, self.disturbance_bound, size=(count, self.state_dim)
        )

    def step(
        self,
        state: np.ndarray,
        action: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """One Euler transition ``s' = s + (f(s, a) + d)·Δt``."""
        state = np.asarray(state, dtype=float).reshape(self.state_dim)
        action = self.clip_action(action)
        rate = self.rate_numeric(state, action)
        disturbance = self.sample_disturbance(rng)
        return state + self.dt * (rate + disturbance)

    def step_batch(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """One Euler transition for every episode at once."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        actions = self.clip_action_batch(actions)
        rates = self.rate_batch(states, actions)
        disturbances = self.sample_disturbance_batch(rng, states.shape[0])
        return states + self.dt * (rates + disturbances)

    def predict(self, state: np.ndarray, action: np.ndarray) -> np.ndarray:
        """Disturbance-free one-step prediction (used by the shield, Algorithm 3)."""
        return self.step(state, action, rng=None)

    def predict_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Disturbance-free one-step prediction for a whole batch of episodes."""
        return self.step_batch(states, actions, rng=None)

    # ------------------------------------------------------------- reward
    def reward(self, state: np.ndarray, action: np.ndarray) -> float:
        """``-(cost + unsafe_penalty · 1[unsafe])`` for one state."""
        state = np.asarray(state, dtype=float)
        action = np.asarray(action, dtype=float)
        cost = self.cost(state.tolist(), action.tolist())
        if self.is_unsafe(state):
            cost += self.unsafe_penalty
        return -float(cost)

    def reward_cost_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """:meth:`cost` evaluated on columns, shape ``(episodes,)``.

        Split out of :meth:`reward_batch` so the fused rollout kernels can add
        the penalty with the unsafe mask they already computed for the step's
        bookkeeping instead of re-testing the safe box.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        cost = np.empty(states.shape[0])
        cost[:] = self.cost(list(states.T), list(actions.T))
        return cost

    def reward_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Per-episode rewards, shape ``(episodes,)``."""
        cost = self.reward_cost_batch(states, actions)
        return -(cost + self.unsafe_penalty * self.is_unsafe_batch(states))

    # ---------------------------------------------------------- simulation
    def sample_initial_state(self, rng: np.random.Generator) -> np.ndarray:
        return self.init_region.sample(rng, 1)[0]

    def sample_initial_states(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` initial states at once, shape ``(count, state_dim)``.

        Uniform box sampling draws coordinates in the same stream order whether
        requested one row at a time or as one block, so a batched campaign sees
        the same initial states as a sequential one under the same seed (as
        long as nothing else consumes the generator in between — i.e. for
        disturbance-free environments).
        """
        return self.init_region.sample(rng, count)

    def simulate(
        self,
        policy: Callable[[np.ndarray], np.ndarray],
        steps: int | None = None,
        rng: np.random.Generator | None = None,
        initial_state: np.ndarray | None = None,
        stop_when_unsafe: bool = False,
    ) -> Trajectory:
        """Roll out ``policy`` for ``steps`` transitions from a (sampled) initial state."""
        rng = rng or np.random.default_rng()
        steps = steps if steps is not None else self.horizon
        state = (
            np.asarray(initial_state, dtype=float)
            if initial_state is not None
            else self.sample_initial_state(rng)
        )
        states = [state.copy()]
        actions = []
        rewards = []
        unsafe_steps = 0
        for _ in range(steps):
            action = np.asarray(policy(state), dtype=float).reshape(self.action_dim)
            action = self.clip_action(action)
            reward = self.reward(state, action)
            state = self.step(state, action, rng)
            states.append(state.copy())
            actions.append(action)
            rewards.append(reward)
            if self.is_unsafe(state):
                unsafe_steps += 1
                if stop_when_unsafe:
                    break
        return Trajectory(
            states=np.asarray(states),
            actions=np.asarray(actions) if actions else np.zeros((0, self.action_dim)),
            rewards=np.asarray(rewards),
            unsafe_steps=unsafe_steps,
        )

    def simulate_batch(
        self,
        policy,
        episodes: int,
        steps: int | None = None,
        rng: np.random.Generator | None = None,
        initial_states: np.ndarray | None = None,
    ) -> BatchTrajectory:
        """Roll out ``policy`` for ``episodes`` rollouts advanced in lockstep.

        Mirrors :meth:`simulate` (clip, reward on the clipped action, step) but
        keeps every episode in one ``(episodes, state_dim)`` array so each step
        is a single vectorised policy call and a single vectorised transition.
        ``policy`` may expose ``act_batch``; otherwise it is applied row-wise.
        """
        rng = rng or np.random.default_rng()
        steps = steps if steps is not None else self.horizon
        if initial_states is not None:
            states = np.atleast_2d(np.asarray(initial_states, dtype=float))
        else:
            states = self.sample_initial_states(rng, episodes)
        if states.shape != (episodes, self.state_dim):
            raise ValueError(
                f"initial states must have shape ({episodes}, {self.state_dim})"
            )
        act = as_batch_policy(policy, self.action_dim)
        all_states = np.empty((episodes, steps + 1, self.state_dim))
        all_actions = np.empty((episodes, steps, self.action_dim))
        all_rewards = np.empty((episodes, steps))
        unsafe_counts = np.zeros(episodes, dtype=int)
        all_states[:, 0] = states
        for t in range(steps):
            actions = self.clip_action_batch(np.asarray(act(states), dtype=float))
            all_rewards[:, t] = self.reward_batch(states, actions)
            states = self.step_batch(states, actions, rng)
            all_states[:, t + 1] = states
            all_actions[:, t] = actions
            unsafe_counts += self.is_unsafe_batch(states)
        return BatchTrajectory(
            states=all_states,
            actions=all_actions,
            rewards=all_rewards,
            unsafe_step_counts=unsafe_counts,
        )

    # ------------------------------------------------- verification views
    def state_polynomials(self) -> List[Polynomial]:
        """The identity polynomials ``x_i`` used to lower dynamics symbolically."""
        return [Polynomial.variable(i, self.state_dim) for i in range(self.state_dim)]

    def rate_polynomials(self, action_polys: Sequence[Polynomial]) -> List[Polynomial]:
        """``f(s, P(s))`` as polynomials of the state, for a polynomial policy ``P``."""
        if len(action_polys) != self.action_dim:
            raise ValueError("one action polynomial per action dimension is required")
        state_polys = self.state_polynomials()
        rate = self.rate(state_polys, list(action_polys))
        lowered: List[Polynomial] = []
        for entry in rate:
            if isinstance(entry, Polynomial):
                lowered.append(entry)
            else:
                lowered.append(Polynomial.constant(float(entry), self.state_dim))
        return lowered

    def closed_loop_polynomials(self, program) -> List[Polynomial]:
        """The successor map ``s' = s + Δt·f(s, P(s))`` as polynomials of ``s``.

        ``program`` must expose ``to_polynomials()`` (any
        :class:`~repro.lang.program.PolicyProgram` drawn from a sketch does).
        """
        action_polys = program.to_polynomials()
        rate_polys = self.rate_polynomials(action_polys)
        state_polys = self.state_polynomials()
        return [s + self.dt * r for s, r in zip(state_polys, rate_polys)]

    # --------------------------------------------------------------- misc
    def is_steady(self, state: np.ndarray) -> bool:
        """Whether the state has reached the steady-state neighbourhood of the origin."""
        return bool(np.max(np.abs(np.asarray(state, dtype=float))) <= self.steady_state_tolerance)

    def is_steady_batch(self, states: np.ndarray) -> np.ndarray:
        """Boolean steady-state mask over rows of ``states``."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        return np.max(np.abs(states), axis=1) <= self.steady_state_tolerance

    def linear_matrices(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(A, B)`` for linear environments, ``None`` otherwise."""
        return None

    def describe(self) -> str:
        return (
            f"{self.name}: n={self.state_dim}, m={self.action_dim}, dt={self.dt}, "
            f"S0={self.init_region}, safe={self.safe_box}"
        )


class LinearEnvironment(EnvironmentContext):
    """An LTI environment ``ṡ = A s + B a`` (the Fan et al. CAV'18 benchmarks)."""

    def __init__(self, a_matrix: np.ndarray, b_matrix: np.ndarray, **kwargs) -> None:
        a_matrix = np.atleast_2d(np.asarray(a_matrix, dtype=float))
        b_matrix = np.atleast_2d(np.asarray(b_matrix, dtype=float))
        if b_matrix.shape[0] != a_matrix.shape[0]:
            b_matrix = b_matrix.reshape(a_matrix.shape[0], -1)
        super().__init__(
            state_dim=a_matrix.shape[0], action_dim=b_matrix.shape[1], **kwargs
        )
        self.a_matrix = a_matrix
        self.b_matrix = b_matrix

    def rate(self, state: Sequence, action: Sequence) -> List:
        ax = mat_vec(self.a_matrix, state)
        bu = mat_vec(self.b_matrix, action)
        return [x + u for x, u in zip(ax, bu)]

    def rate_numeric(self, state: np.ndarray, action: np.ndarray) -> np.ndarray:
        return self.a_matrix @ state + self.b_matrix @ action

    def rate_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        return states @ self.a_matrix.T + actions @ self.b_matrix.T

    def linear_matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.a_matrix, self.b_matrix
