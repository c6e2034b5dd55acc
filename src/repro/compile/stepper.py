"""The fused closed-loop stepper: one callable advances a whole fleet a step.

The interpreted rollout spine crosses the policy → shield → environment
boundary several times per step and evaluates the dynamics twice (once for the
shield's safety prediction, once for the actual transition).  The compiled
stepper fuses the entire decision—predict—guard—fallback—integrate—bookkeep
chain for one ``(policy, shield, env)`` triple into straight-line NumPy:

1. neural/program action for the whole ``(episodes, state_dim)`` fleet,
2. one dynamics evaluation on the clipped proposals, reused both as the
   shield's predicted successor *and* as the transition rate of every
   non-intervened row (only intervened rows pay a second, subset-sized
   dynamics evaluation on the fallback action),
3. the guard block on the predicted successors (one fused barrier evaluation),
4. Euler integration with the environment's disturbance stream, and
5. unsafe/steady/reward/intervention bookkeeping as array updates.

Scratch arrays live in an explicit :class:`RolloutWorkspace` so a campaign of
thousands of steps reallocates nothing in its hot loop.

Semantics are pinned to the interpreted loops of :mod:`repro.reference.campaigns`:
the same RNG stream order, the same reward convention (pre-clip executed
action in campaigns, clipped in ``simulate_batch``-style rollouts), the same
counter attribution.  The differential tests in ``tests/test_compile.py`` hold
the two paths to identical counters and near-identical (1e-9) trajectories
across the registry.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np

from ..envs.fleet import FleetStep
from .cache import compiled_guards_for, compiled_program_for

__all__ = [
    "RolloutWorkspace",
    "CompiledStepper",
    "compile_stepper",
    "fused_policy_returns",
]


class RolloutWorkspace:
    """Named, preallocated scratch buffers reused across steps of a campaign.

    Buffers are keyed by ``(name, dtype)`` and backed by flat capacity arrays
    that only grow: a request whose element count fits the existing capacity is
    served as a reshaped view, so alternating shapes under one name — shard
    workers running different fleet widths back to back — reallocate nothing.

    ``default_dtype`` is the element type handed out when a request does not
    name one; a ``float32`` workspace turns every stepper scratch buffer into
    single precision (the opt-in low-precision mode of the sharded runtime).
    """

    def __init__(self, default_dtype=float) -> None:
        self.default_dtype = np.dtype(default_dtype)
        self._buffers: Dict[Tuple[str, np.dtype], np.ndarray] = {}

    def array(self, name: str, shape: Tuple[int, ...], dtype=None) -> np.ndarray:
        dtype = self.default_dtype if dtype is None else np.dtype(dtype)
        size = 1
        for extent in shape:
            size *= int(extent)
        key = (name, dtype)
        flat = self._buffers.get(key)
        if flat is None or flat.size < size:
            flat = np.empty(size, dtype=dtype)
            self._buffers[key] = flat
        return flat[:size].reshape(shape)

    def __len__(self) -> int:
        return len(self._buffers)


# --------------------------------------------------------------------- helpers
def _mlp_layers(policy):
    """Extract (weights, biases, output_scale) when the policy is MLP-backed."""
    from ..rl.networks import MLP
    from ..rl.policies import NeuralPolicy

    network = None
    if isinstance(policy, NeuralPolicy):
        network = policy.network
    elif isinstance(policy, MLP):
        network = policy
    if network is None or not isinstance(network, MLP):
        return None
    if network.hidden_activation != "tanh":
        return None
    return network.weights, network.biases, network.output_scale


def _batch_action_fn(policy, action_dim: int, workspace: RolloutWorkspace, tag: str):
    """A trusted-input ``(n, d) → (n, m)`` action function for any policy.

    Preference order: compiled program kernel (policy programs), fused MLP
    forward with workspace buffers (neural policies), native ``act_batch``,
    row-wise fallback — the same ladder ``as_batch_policy`` climbs, minus the
    per-call wrapper allocation.
    """
    from ..lang.program import PolicyProgram

    if isinstance(policy, PolicyProgram):
        kernel = compiled_program_for(policy)
        if kernel is not None:
            return lambda states: kernel.act(
                states, out=workspace.array(tag + ":actions", (states.shape[0], action_dim))
            )

    layers = _mlp_layers(policy)
    if layers is not None:
        weights, biases, scale = layers
        last = len(weights) - 1

        def forward(states: np.ndarray) -> np.ndarray:
            current = states
            for index in range(len(weights)):
                weight = weights[index]
                out = workspace.array(
                    f"{tag}:mlp{index}", (states.shape[0], weight.shape[1])
                )
                np.matmul(current, weight, out=out)
                out += biases[index]
                if index < last:
                    np.tanh(out, out=out)
                elif scale is not None:
                    np.tanh(out, out=out)
                    out *= scale
                current = out
            return current

        return forward

    from ..envs.base import as_batch_policy

    return as_batch_policy(policy, action_dim)


def _steady_fn(env):
    from ..envs.base import EnvironmentContext

    if type(env).is_steady_batch is not EnvironmentContext.is_steady_batch:
        return env.is_steady_batch
    tolerance = env.steady_state_tolerance

    def steady(states: np.ndarray) -> np.ndarray:
        return np.max(np.abs(states), axis=1) <= tolerance

    return steady


def _reward_fn(env):
    """``(states, actions, unsafe_mask) → -(cost + penalty · unsafe)``.

    The campaign already knows each step's pre-step unsafe mask (it is the
    previous step's post-step mask), so the penalty reuses it instead of
    re-testing the unsafe region the way ``env.reward_batch`` does.
    """
    penalty = env.unsafe_penalty
    cost = env.reward_cost_batch

    def reward(states: np.ndarray, actions: np.ndarray, unsafe: np.ndarray) -> np.ndarray:
        total = cost(states, actions)
        total += penalty * unsafe
        return -total

    return reward


# --------------------------------------------------------------------- stepper
class CompiledStepper:
    """A fused closed-loop kernel for one (policy, shield, environment) triple.

    Build through :func:`compile_stepper`.  A piece that refuses to lower (a
    foreign policy or a non-polynomial invariant) keeps its interpreted batch
    method inside the fused step.
    """

    def __init__(self, env, policy, shield, dtype=None) -> None:
        self.env = env
        self.shield = shield
        self.dtype = np.dtype(float) if dtype is None else np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError(f"stepper dtype must be a float type, got {self.dtype}")
        self.workspace = RolloutWorkspace(default_dtype=self.dtype)
        self.dt = env.dt
        step = FleetStep(env)
        self._rate = env.rate_batch
        self._clip = step.clip
        self._unsafe = step.unsafe
        self._steady = _steady_fn(env)
        self._reward = _reward_fn(env)
        if shield is not None:
            self._policy = _batch_action_fn(shield.neural_policy, env.action_dim, self.workspace, "neural")
            self.guards = compiled_guards_for(shield.invariant)
            self._fallback = _batch_action_fn(shield.program, env.action_dim, self.workspace, "fallback")
        else:
            self._policy = _batch_action_fn(policy, env.action_dim, self.workspace, "policy")
            self.guards = None
            self._fallback = None
        self._disturbed = env.disturbance_bound is not None

    # ----------------------------------------------------------------- pieces
    def _guard_holds(self, states: np.ndarray) -> np.ndarray:
        if self.guards is not None:
            return self.guards.any_holds(states)
        return np.asarray(self.shield.invariant.holds_batch(states), dtype=bool)

    def _decide(self, states: np.ndarray, stats) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused Algorithm 3: returns (executed_actions, intervened, rates).

        ``rates`` are the executed actions' clipped-dynamics rates for the
        whole fleet — the caller integrates them, so the shield's safety
        prediction is never recomputed for non-intervened rows.
        """
        measure = stats is not None
        start = time.perf_counter() if measure else 0.0
        proposed = self._policy(states)
        neural_elapsed = (time.perf_counter() - start) if measure else 0.0

        shield_start = time.perf_counter() if measure else 0.0
        workspace = self.workspace
        count = states.shape[0]
        clipped = self._clip(proposed, workspace.array("clipped", proposed.shape))
        rates = self._rate(states, clipped)
        predicted = workspace.array("predicted", states.shape)
        np.multiply(rates, self.dt, out=predicted)
        predicted += states
        intervened = ~self._guard_holds(predicted)
        actions = proposed
        if intervened.any():
            subset = states[intervened]
            fallback = self._fallback(subset)
            # Never write through the policy's returned array: like the
            # interpreted Shield._decide_batch, overwrite a private copy (a
            # workspace buffer) so a policy handing out an internal buffer
            # keeps its state.
            actions = workspace.array("executed", proposed.shape)
            np.copyto(actions, proposed)
            actions[intervened] = fallback
            fallback_clipped = self._clip(fallback, np.empty_like(fallback))
            rates = np.array(rates) if rates.base is not None else rates
            rates[intervened] = self._rate(subset, fallback_clipped)
        if measure:
            stats.decisions += count
            stats.interventions += int(np.count_nonzero(intervened))
            stats.neural_seconds += neural_elapsed
            stats.shield_seconds += time.perf_counter() - shield_start
        return actions, intervened, rates

    def _advance(self, states: np.ndarray, rates: np.ndarray, rng, draws=None) -> np.ndarray:
        """``s' = s + Δt (f + d)`` with the interpreted engines' stream order."""
        if draws is None and self._disturbed and rng is not None:
            draws = self.env.sample_disturbance_batch(rng, states.shape[0])
        if draws is not None:
            rates = rates + draws
        successors = states + self.dt * rates
        if successors.dtype != self.dtype:
            # The environment's rate_batch and the disturbance draws compute
            # in float64; pin the fleet to the workspace precision so a
            # float32 campaign stays float32 step over step.
            successors = successors.astype(self.dtype)
        return successors

    # -------------------------------------------------------------- campaigns
    def run_campaign(
        self,
        initial_states: np.ndarray,
        steps: int,
        rng,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
        """The fused twin of ``BatchedCampaign.run``'s hot loop.

        Returns ``(total_rewards, unsafe_counts, interventions, steady_at,
        elapsed_seconds)`` with exactly the interpreted loop's semantics:
        rewards on the pre-clip executed action, unsafe/steady bookkeeping on
        the post-step state, interventions per decision row.
        """
        states = np.ascontiguousarray(initial_states, dtype=self.dtype)
        episodes = states.shape[0]
        unsafe_counts = np.zeros(episodes, dtype=int)
        interventions = np.zeros(episodes, dtype=int)
        steady_at = np.full(episodes, -1, dtype=int)
        total_rewards = np.zeros(episodes)
        stats = (
            self.shield.statistics
            if self.shield is not None and self.shield.measure_time
            else None
        )
        silent_stats = self.shield.statistics if self.shield is not None else None
        unsafe_now = self._unsafe(states)

        start = time.perf_counter()
        for step_index in range(steps):
            if self.shield is not None:
                actions, intervened, rates = self._decide(states, stats)
                if stats is None and silent_stats is not None:
                    silent_stats.decisions += episodes
                    silent_stats.interventions += int(np.count_nonzero(intervened))
                interventions += intervened
            else:
                actions = self._policy(states)
                clipped = self._clip(actions, self.workspace.array("clipped", actions.shape))
                rates = self._rate(states, clipped)
            total_rewards += self._reward(states, actions, unsafe_now)
            states = self._advance(states, rates, rng)
            unsafe_now = self._unsafe(states)
            unsafe_counts += unsafe_now
            newly = (steady_at < 0) & self._steady(states)
            steady_at[newly] = step_index + 1
        elapsed = time.perf_counter() - start
        return total_rewards, unsafe_counts, interventions, steady_at, elapsed

    def run_monitored(
        self,
        initial_states: np.ndarray,
        steps: int,
        rng,
        disturbance=None,
        estimator=None,
    ):
        """The fused twin of ``MonitoredBatchedCampaign.run``'s hot loop.

        Returns ``(interventions, mismatches, excursions, unsafe, barrier_peak,
        final_states, elapsed)``; the caller assembles the report.
        """
        states = np.ascontiguousarray(initial_states, dtype=self.dtype)
        episodes = states.shape[0]
        interventions = np.zeros(episodes, dtype=int)
        mismatches = np.zeros(episodes, dtype=int)
        excursions = np.zeros(episodes, dtype=int)
        unsafe = np.zeros(episodes, dtype=int)
        barrier_peak = np.full(episodes, -np.inf)
        stats = self.shield.statistics if self.shield.measure_time else None
        silent_stats = self.shield.statistics

        start = time.perf_counter()
        for step_index in range(steps):
            np.maximum(barrier_peak, self._barrier_values(states), out=barrier_peak)
            actions, intervened, rates = self._decide(states, stats)
            if stats is None:
                silent_stats.decisions += episodes
                silent_stats.interventions += int(np.count_nonzero(intervened))
            interventions += intervened
            # ``rates`` are the executed actions' rates, so the executed
            # prediction (decide_batch_predicted's third output) is free here.
            expected = states + self.dt * rates
            predicted_ok = self._member_holds_any(expected)
            if disturbance is not None:
                draws = disturbance.sample_batch(rng, step_index, episodes)
                states = self._advance(states, rates, None, draws=draws)
            else:
                states = self._advance(states, rates, rng)
            observed_ok = self._member_holds_any(states)
            mismatches += predicted_ok & ~observed_ok
            excursions += ~observed_ok
            unsafe += self._unsafe(states)
            if estimator is not None:
                estimator.observe_batch((states - expected) / self.dt)
        elapsed = time.perf_counter() - start
        return interventions, mismatches, excursions, unsafe, barrier_peak, states, elapsed

    def run_returns(self, initial_states: np.ndarray, steps: int, rng) -> np.ndarray:
        """Per-episode returns of an unshielded rollout (clipped-action rewards).

        The fused twin of ``env.simulate_batch(...).total_rewards`` — same
        initial-state and disturbance streams, same clipped-action reward
        convention, no trajectory storage.  Shield-free steppers only.
        """
        states = np.ascontiguousarray(initial_states, dtype=self.dtype)
        total_rewards = np.zeros(states.shape[0])
        unsafe_now = self._unsafe(states)
        for _ in range(steps):
            proposed = self._policy(states)
            clipped = self._clip(proposed, self.workspace.array("clipped", proposed.shape))
            # simulate_batch computes rewards on the *clipped* action.
            total_rewards += self._reward(states, clipped, unsafe_now)
            rates = self._rate(states, clipped)
            states = self._advance(states, rates, rng)
            unsafe_now = self._unsafe(states)
        return total_rewards

    def _barrier_values(self, states: np.ndarray) -> np.ndarray:
        if self.guards is not None:
            return self.guards.min_values(states)
        invariant = self.shield.invariant
        members = getattr(invariant, "members", None) or [invariant]
        return np.min(
            np.stack([member.value_batch(states) for member in members], axis=0), axis=0
        )

    def _member_holds_any(self, states: np.ndarray) -> np.ndarray:
        return self._guard_holds(states)


def compile_stepper(env, policy=None, shield=None, dtype=None) -> CompiledStepper:
    """Build the fused stepper for a campaign.

    Every component factory degrades to its interpreted counterpart on its own
    (``as_batch_policy``, ``holds_batch``), and the dynamics are always the
    environment's own ``rate_batch``, so assembly never refuses a deployment.
    """
    return CompiledStepper(env, policy, shield, dtype=dtype)


# ----------------------------------------------------------- auxiliary kernels
def fused_policy_returns(env, policy, episodes: int, steps: int, rng) -> np.ndarray:
    """Per-episode returns of an unshielded rollout, without trajectory storage.

    The fused twin of ``env.simulate_batch(...).total_rewards`` for callers —
    ARS training above all — that only consume the return: same initial-state
    and disturbance streams, same clipped-action reward convention, but no
    ``(episodes, steps, ...)`` trajectory allocation and no per-step Python
    dispatch.
    """
    stepper = CompiledStepper(env, policy, None)
    states = np.ascontiguousarray(env.sample_initial_states(rng, episodes), dtype=float)
    return stepper.run_returns(states, steps, rng)
