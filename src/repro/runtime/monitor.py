"""Runtime monitoring of a deployed shield.

The shield of Algorithm 3 makes a *model-based* decision: it predicts the
successor of the proposed neural action through the environment model and
intervenes when the prediction leaves the inductive invariant.  A deployed
system additionally needs to watch what actually happens:

* how often the shield intervenes and where in the state space,
* whether the *observed* successor ever leaves the invariant even though the
  predicted one did not (a model-mismatch signal — e.g. unmodelled disturbance),
* what disturbance magnitudes are actually being experienced (the paper's
  runtime multivariate-normal estimate, Section 3), and
* the wall-clock overhead attributable to shielding.

:class:`RuntimeMonitor` collects those quantities step by step;
:func:`~repro.runtime.monitored.monitor_fleet` does the same for whole
fleets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.shield import Shield
from ..envs.base import EnvironmentContext
from ..envs.disturbance import DisturbanceEstimate, DisturbanceEstimator

__all__ = ["MonitorRecord", "MonitorReport", "RuntimeMonitor"]


@dataclass
class MonitorRecord:
    """One monitored control step.

    ``predicted_next_in_invariant`` is the model's verdict for the successor of
    the *executed* action (the program's action on intervened steps, the neural
    action otherwise) — comparing it with ``observed_next_in_invariant`` is what
    makes :attr:`model_mismatch` meaningful on every step, including intervened
    ones.
    """

    step: int
    state: np.ndarray
    proposed_action: np.ndarray
    executed_action: np.ndarray
    intervened: bool
    predicted_next_in_invariant: bool
    observed_next_in_invariant: bool
    barrier_value: float
    decision_seconds: float

    @property
    def model_mismatch(self) -> bool:
        """The model predicted an in-invariant successor but reality left it."""
        return self.predicted_next_in_invariant and not self.observed_next_in_invariant


@dataclass
class MonitorReport:
    """Aggregate view over the records collected by a :class:`RuntimeMonitor`."""

    records: List[MonitorRecord] = field(default_factory=list)
    disturbance_estimate: Optional[DisturbanceEstimate] = None

    @property
    def decisions(self) -> int:
        return len(self.records)

    @property
    def interventions(self) -> int:
        return sum(1 for r in self.records if r.intervened)

    @property
    def intervention_rate(self) -> float:
        return self.interventions / self.decisions if self.decisions else 0.0

    @property
    def model_mismatches(self) -> int:
        return sum(1 for r in self.records if r.model_mismatch)

    @property
    def invariant_excursions(self) -> int:
        """Observed successors outside the invariant, regardless of the prediction."""
        return sum(1 for r in self.records if not r.observed_next_in_invariant)

    @property
    def mean_decision_seconds(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.decision_seconds for r in self.records]))

    def intervention_states(self) -> np.ndarray:
        """States at which the shield overrode the neural policy (rows)."""
        states = [r.state for r in self.records if r.intervened]
        if not states:
            return np.zeros((0, self.records[0].state.size if self.records else 0))
        return np.stack(states, axis=0)

    def summary(self) -> dict:
        return {
            "decisions": self.decisions,
            "interventions": self.interventions,
            "intervention_rate": self.intervention_rate,
            "model_mismatches": self.model_mismatches,
            "invariant_excursions": self.invariant_excursions,
            "mean_decision_seconds": self.mean_decision_seconds,
            "disturbance_bound": (
                self.disturbance_estimate.bound.tolist()
                if self.disturbance_estimate is not None
                else None
            ),
        }


class RuntimeMonitor:
    """Wraps a :class:`~repro.core.shield.Shield` and records every decision.

    The monitor is itself a policy (callable ``state → action``) so it can be
    passed to :meth:`EnvironmentContext.simulate`; observed successors are fed
    back with :meth:`observe_transition`.
    """

    def __init__(
        self,
        shield: Shield,
        estimate_disturbance: bool = True,
        confidence_sigmas: float = 3.0,
    ) -> None:
        self.shield = shield
        self.env: EnvironmentContext = shield.env
        self.records: List[MonitorRecord] = []
        self._estimator = (
            DisturbanceEstimator(self.env.state_dim, confidence_sigmas=confidence_sigmas)
            if estimate_disturbance
            else None
        )
        self._pending: Optional[MonitorRecord] = None
        self._pending_expected_next: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ policy
    def act(self, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        start = time.perf_counter()
        proposed = np.asarray(self.shield.neural_policy(state), dtype=float).reshape(
            self.env.action_dim
        )
        neural_done = time.perf_counter()
        predicted = self.env.predict(state, proposed)
        if self.shield.invariant.holds(predicted):
            executed = proposed
            intervened = False
            # The executed action is the proposed one: its predicted successor
            # is exactly the state just checked, so no second predict is needed.
            expected_next = predicted
            executed_predicted_ok = True
        else:
            executed = np.asarray(self.shield.program.act(state), dtype=float).reshape(
                self.env.action_dim
            )
            intervened = True
            expected_next = self.env.predict(state, executed)
            executed_predicted_ok = bool(self.shield.invariant.holds(expected_next))
        elapsed = time.perf_counter() - start

        record = MonitorRecord(
            step=len(self.records),
            state=state.copy(),
            proposed_action=proposed.copy(),
            executed_action=executed.copy(),
            intervened=intervened,
            predicted_next_in_invariant=executed_predicted_ok,
            observed_next_in_invariant=True,  # filled in by observe_transition
            barrier_value=self._barrier_value(state),
            decision_seconds=elapsed,
        )
        self.records.append(record)
        self._pending = record
        self._pending_expected_next = expected_next

        # Keep the underlying shield statistics consistent with direct use.
        self.shield.statistics.decisions += 1
        if intervened:
            self.shield.statistics.interventions += 1
        if self.shield.measure_time:
            self.shield.statistics.neural_seconds += neural_done - start
            self.shield.statistics.shield_seconds += elapsed - (neural_done - start)
        return executed

    def __call__(self, state: np.ndarray) -> np.ndarray:
        return self.act(state)

    # --------------------------------------------------------------- feedback
    def observe_transition(self, next_state: np.ndarray) -> None:
        """Report the successor actually reached after the most recent decision."""
        if self._pending is None:
            raise RuntimeError("observe_transition called before any decision was made")
        next_state = np.asarray(next_state, dtype=float)
        self._pending.observed_next_in_invariant = bool(
            self.shield.invariant.holds(next_state)
        )
        if self._estimator is not None and self._pending_expected_next is not None:
            residual = (next_state - self._pending_expected_next) / self.env.dt
            self._estimator.observe(residual)
        self._pending = None
        self._pending_expected_next = None

    # ---------------------------------------------------------------- helpers
    def _barrier_value(self, state: np.ndarray) -> float:
        """Minimum barrier value over the invariant union (≤ 0 inside the invariant)."""
        members = getattr(self.shield.invariant, "members", None) or [self.shield.invariant]
        return float(min(member.value(state) for member in members))

    # ----------------------------------------------------------------- report
    def report(self) -> MonitorReport:
        estimate = None
        if self._estimator is not None and len(self._estimator) >= 2:
            estimate = self._estimator.estimate()
        return MonitorReport(records=list(self.records), disturbance_estimate=estimate)

    def reset(self) -> None:
        self.records.clear()
        self._pending = None
        self._pending_expected_next = None
        if self._estimator is not None:
            self._estimator.reset()
