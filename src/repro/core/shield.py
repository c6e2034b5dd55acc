"""Algorithm 3: runtime shielding of a neural policy with a verified program.

The shield receives the current state, asks the neural policy for an action,
*predicts* the successor state through the environment model, and lets the
neural action through only if that successor stays inside the inductive
invariant ``φ``.  Otherwise the verified program's action is taken instead —
which is guaranteed to keep the system inside ``φ`` because ``φ`` is an
inductive invariant of ``C[P]`` (Theorem 4.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..envs.base import EnvironmentContext, as_batch_policy
from ..lang.invariant import InvariantUnion
from ..lang.program import PolicyProgram

__all__ = ["ShieldStatistics", "Shield"]


@dataclass
class ShieldStatistics:
    """Counters accumulated while a shield is deployed."""

    decisions: int = 0
    interventions: int = 0
    neural_seconds: float = 0.0
    shield_seconds: float = 0.0

    @property
    def intervention_rate(self) -> float:
        return self.interventions / self.decisions if self.decisions else 0.0

    @property
    def overhead(self) -> float:
        """Relative runtime overhead of shielding versus running the bare network."""
        if self.neural_seconds <= 0.0:
            return 0.0
        return self.shield_seconds / self.neural_seconds

    def reset(self) -> None:
        self.decisions = 0
        self.interventions = 0
        self.neural_seconds = 0.0
        self.shield_seconds = 0.0


class Shield:
    """A deployable shield combining a neural policy, a verified program and its invariant.

    The object is itself a policy (callable ``state → action``), so it can be
    dropped into :meth:`repro.envs.base.EnvironmentContext.simulate` directly.
    """

    def __init__(
        self,
        env: EnvironmentContext,
        neural_policy: Callable[[np.ndarray], np.ndarray],
        program: PolicyProgram,
        invariant: InvariantUnion,
        measure_time: bool = True,
    ) -> None:
        self.env = env
        self.neural_policy = neural_policy
        self.program = program
        self.invariant = invariant
        self.measure_time = measure_time
        self.statistics = ShieldStatistics()

    # ------------------------------------------------------------------ api
    def act(self, state: np.ndarray) -> np.ndarray:
        """Algorithm 3: return the neural action unless its successor leaves φ."""
        state = np.asarray(state, dtype=float)
        start = time.perf_counter() if self.measure_time else 0.0
        proposed = np.asarray(self.neural_policy(state), dtype=float).reshape(self.env.action_dim)
        neural_elapsed = (time.perf_counter() - start) if self.measure_time else 0.0

        shield_start = time.perf_counter() if self.measure_time else 0.0
        predicted = self.env.predict(state, proposed)
        if self.invariant.holds(predicted):
            action = proposed
        else:
            # Count the intervention only once the fallback action exists, so a
            # raising program leaves the counters consistent (decide_batch
            # semantics: no action, no recorded decision).
            action = np.asarray(self.program.act(state), dtype=float).reshape(
                self.env.action_dim
            )
            self.statistics.interventions += 1
        shield_elapsed = (time.perf_counter() - shield_start) if self.measure_time else 0.0

        self.statistics.decisions += 1
        self.statistics.neural_seconds += neural_elapsed
        self.statistics.shield_seconds += shield_elapsed
        return action

    def decide_batch(self, states: np.ndarray) -> tuple:
        """Algorithm 3 over a whole batch of episodes in lockstep.

        Returns ``(actions, intervened)`` where ``intervened`` is the boolean
        per-row mask of decisions in which the verified program overrode the
        neural action.  Counters and timing accumulate exactly as ``act`` does
        scalar-wise: one decision per row, one intervention per overridden row.
        """
        actions, intervened, _ = self._decide_batch(states, with_predicted=False)
        return actions, intervened

    def decide_batch_predicted(self, states: np.ndarray) -> tuple:
        """Like :meth:`decide_batch`, also returning the *executed* actions'
        predicted successors.

        On non-intervened rows the executed action is the proposed one, so the
        prediction computed for the safety check is reused; only intervened rows
        pay a second (subset-sized) prediction.  This is what the fleet monitor
        uses to judge model mismatches without re-predicting the whole batch.
        """
        return self._decide_batch(states, with_predicted=True)

    def _decide_batch(self, states: np.ndarray, with_predicted: bool) -> tuple:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        count = states.shape[0]
        start = time.perf_counter() if self.measure_time else 0.0
        proposed = self._neural_batch(states)
        neural_elapsed = (time.perf_counter() - start) if self.measure_time else 0.0

        shield_start = time.perf_counter() if self.measure_time else 0.0
        predicted = self.env.predict_batch(states, proposed)
        safe = np.asarray(self.invariant.holds_batch(predicted), dtype=bool)
        intervened = ~safe
        actions = proposed
        if intervened.any():
            actions = proposed.copy()
            actions[intervened] = self._program_batch(states[intervened])
            if with_predicted:
                predicted = predicted.copy()
                predicted[intervened] = self.env.predict_batch(
                    states[intervened], actions[intervened]
                )
        shield_elapsed = (time.perf_counter() - shield_start) if self.measure_time else 0.0

        self.statistics.decisions += count
        self.statistics.interventions += int(np.count_nonzero(intervened))
        self.statistics.neural_seconds += neural_elapsed
        self.statistics.shield_seconds += shield_elapsed
        return actions, intervened, predicted

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        """Batched counterpart of :meth:`act`: one action row per state row."""
        return self.decide_batch(states)[0]

    def _neural_batch(self, states: np.ndarray) -> np.ndarray:
        return as_batch_policy(self.neural_policy, self.env.action_dim)(states)

    def _program_batch(self, states: np.ndarray) -> np.ndarray:
        return as_batch_policy(self.program, self.env.action_dim)(states)

    def __call__(self, state: np.ndarray) -> np.ndarray:
        return self.act(state)

    def reset_statistics(self) -> None:
        self.statistics.reset()

    # -------------------------------------------------------------- queries
    def would_intervene(self, state: np.ndarray) -> bool:
        """Whether the shield would override the neural action in ``state`` (no counters)."""
        proposed = np.asarray(self.neural_policy(state), dtype=float).reshape(self.env.action_dim)
        predicted = self.env.predict(state, proposed)
        return not self.invariant.holds(predicted)

    def describe(self) -> str:
        branches = len(self.invariant.members) if isinstance(self.invariant, InvariantUnion) else 1
        return (
            f"Shield(program branches={branches}, "
            f"interventions={self.statistics.interventions}/{self.statistics.decisions})"
        )
