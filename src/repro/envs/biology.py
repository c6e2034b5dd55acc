"""Glycemic-control benchmark (Bergman minimal model, polynomial dynamics).

"Benchmark Biology defines a minimal model of glycemic control in diabetic
patients such that the dynamics of glucose and insulin interaction in the blood
system are defined by polynomials.  For safety, we verify that the neural
controller ensures that the level of plasma glucose concentration is above a
certain threshold." (§5, citing Bergman et al. 1985)

We use the standard three-state minimal model in *deviation coordinates* around
the basal operating point so that the origin is the regulation target:

    Ġ = −p1·G − X·(G + G_b)
    Ẋ = −p2·X + p3·I
    İ = −n·I + u

where ``G`` is plasma glucose deviation, ``X`` remote insulin action, ``I``
plasma insulin deviation and ``u`` the insulin infusion control.  The unsafe
set is a glucose deviation below the hypoglycemia threshold (G < −threshold),
expressed through the safe-box formulation of the environment base class.
"""

from __future__ import annotations

from typing import List, Sequence

from ..certificates.regions import Box
from .base import EnvironmentContext

__all__ = ["GlycemicControl", "make_biology"]


class GlycemicControl(EnvironmentContext):
    """Bergman minimal model of glucose-insulin interaction."""

    def __init__(
        self,
        p1: float = 0.03,
        p2: float = 0.02,
        p3: float = 0.0005,
        n: float = 0.3,
        basal_glucose: float = 4.5,
        hypoglycemia_threshold: float = 2.0,
        dt: float = 0.01,
    ) -> None:
        self.p1 = float(p1)
        self.p2 = float(p2)
        self.p3 = float(p3)
        self.n = float(n)
        self.basal_glucose = float(basal_glucose)
        init = (0.5, 0.05, 0.5)
        safe = (hypoglycemia_threshold, 0.5, 5.0)
        domain = tuple(2.0 * v for v in safe)
        super().__init__(
            state_dim=3,
            action_dim=1,
            init_region=Box(tuple(-v for v in init), init),
            safe_box=Box(tuple(-v for v in safe), safe),
            domain=Box(tuple(-v for v in domain), domain),
            dt=dt,
            action_low=[-5.0],
            action_high=[5.0],
            steady_state_tolerance=0.05,
        )
        self.name = "biology"
        self.state_names = ("glucose", "insulin_action", "insulin")

    def rate(self, state: Sequence, action: Sequence) -> List:
        glucose, insulin_action, insulin = state
        infusion = action[0]
        glucose_rate = -self.p1 * glucose - insulin_action * glucose \
            - self.basal_glucose * insulin_action
        action_rate = -self.p2 * insulin_action + self.p3 * insulin
        insulin_rate = -self.n * insulin + infusion
        return [glucose_rate, action_rate, insulin_rate]

    def cost(self, state: Sequence, action: Sequence):
        glucose, insulin_action, insulin = state
        infusion = action[0]
        return (
            glucose * glucose
            + 10.0 * (insulin_action * insulin_action)
            + 0.01 * (insulin * insulin)
            + 0.001 * (infusion * infusion)
        )


def make_biology(dt: float = 0.01) -> GlycemicControl:
    """Factory used by the benchmark registry."""
    return GlycemicControl(dt=dt)
