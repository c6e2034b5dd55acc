"""Benchmark registry: name → environment factory plus per-benchmark defaults.

This is the single place that maps the 15 benchmark names of Table 1 (plus the
Duffing oscillator of Example 4.3) onto environment constructors, the program /
invariant sketch defaults used for them, the preferred certificate backend, and
the numbers the paper reports (``repro list`` prints them, and the Table 1
rows carry them next to the measured ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

import numpy as np

from .base import EnvironmentContext
from .biology import make_biology
from .cartpole import make_cartpole
from .datacenter import make_datacenter
from .driving import make_lane_keeping, make_self_driving
from .duffing import make_duffing
from .linear import (
    make_dcmotor,
    make_magnetic_pointer,
    make_satellite,
    make_suspension,
    make_tape,
)
from .oscillator import make_oscillator
from .pendulum import make_pendulum
from .platoon import make_4_car_platoon, make_8_car_platoon
from .quadcopter import make_quadcopter

__all__ = ["BenchmarkSpec", "BENCHMARKS", "get_benchmark", "make_environment", "benchmark_names"]


@dataclass
class BenchmarkSpec:
    """Everything needed to run one Table 1 row end to end."""

    name: str
    factory: Callable[..., EnvironmentContext]
    invariant_degree: int = 2
    certificate_backend: str = "auto"  # "lyapunov", "barrier", or "auto"
    neural_hidden: tuple = (64, 48)
    oracle_training_episodes: int = 30
    description: str = ""
    paper_vars: Optional[int] = None
    paper_network_size: str = ""
    paper_failures: Optional[int] = None
    paper_program_size: Optional[int] = None
    paper_overhead_percent: Optional[float] = None
    paper_interventions: Optional[int] = None
    paper_nn_steps: Optional[float] = None
    paper_program_steps: Optional[float] = None

    def make(self, **overrides) -> EnvironmentContext:
        return self.factory(**overrides)


BENCHMARKS: Dict[str, BenchmarkSpec] = {}


def _register(spec: BenchmarkSpec) -> BenchmarkSpec:
    BENCHMARKS[spec.name] = spec
    return spec


_register(
    BenchmarkSpec(
        name="satellite",
        factory=make_satellite,
        description="Satellite attitude control (LTI, Fan et al. CAV'18)",
        paper_vars=2, paper_network_size="240x200", paper_failures=0, paper_program_size=1,
        paper_overhead_percent=3.37, paper_interventions=0,
        paper_nn_steps=5.7, paper_program_steps=9.7,
    )
)
_register(
    BenchmarkSpec(
        name="dcmotor",
        factory=make_dcmotor,
        description="DC motor speed control (LTI)",
        paper_vars=3, paper_network_size="240x200", paper_failures=0, paper_program_size=1,
        paper_overhead_percent=2.03, paper_interventions=0,
        paper_nn_steps=11.9, paper_program_steps=12.2,
    )
)
_register(
    BenchmarkSpec(
        name="tape",
        factory=make_tape,
        description="Magnetic tape tension control (LTI)",
        paper_vars=3, paper_network_size="240x200", paper_failures=0, paper_program_size=1,
        paper_overhead_percent=2.63, paper_interventions=0,
        paper_nn_steps=3.0, paper_program_steps=3.6,
    )
)
_register(
    BenchmarkSpec(
        name="magnetic_pointer",
        factory=make_magnetic_pointer,
        description="Magnetic pointer positioning (LTI)",
        paper_vars=3, paper_network_size="240x200", paper_failures=0, paper_program_size=1,
        paper_overhead_percent=2.92, paper_interventions=0,
        paper_nn_steps=8.3, paper_program_steps=8.8,
    )
)
_register(
    BenchmarkSpec(
        name="suspension",
        factory=make_suspension,
        description="Quarter-car active suspension (LTI)",
        paper_vars=4, paper_network_size="240x200", paper_failures=0, paper_program_size=1,
        paper_overhead_percent=8.71, paper_interventions=0,
        paper_nn_steps=4.7, paper_program_steps=6.1,
    )
)
_register(
    BenchmarkSpec(
        name="biology",
        factory=make_biology,
        certificate_backend="barrier",
        description="Bergman minimal model of glycemic control",
        paper_vars=3, paper_network_size="240x200", paper_failures=0, paper_program_size=1,
        paper_overhead_percent=5.23, paper_interventions=0,
        paper_nn_steps=2464, paper_program_steps=2599,
    )
)
_register(
    BenchmarkSpec(
        name="datacenter",
        factory=make_datacenter,
        description="Three-rack data-center cooling",
        paper_vars=3, paper_network_size="240x200", paper_failures=0, paper_program_size=1,
        paper_overhead_percent=4.69, paper_interventions=0,
        paper_nn_steps=14.6, paper_program_steps=40.1,
    )
)
_register(
    BenchmarkSpec(
        name="quadcopter",
        factory=make_quadcopter,
        description="Quadcopter altitude-hold stable flight",
        paper_vars=2, paper_network_size="300x200", paper_failures=182, paper_program_size=2,
        paper_overhead_percent=6.41, paper_interventions=185,
        paper_nn_steps=7.2, paper_program_steps=9.8,
    )
)
_register(
    BenchmarkSpec(
        name="pendulum",
        factory=partial(make_pendulum, safe_angle_deg=23.0),
        certificate_backend="barrier",
        invariant_degree=4,
        description="Inverted pendulum (restricted 23-degree safety, the §5 case study)",
        paper_vars=2, paper_network_size="240x200", paper_failures=60, paper_program_size=3,
        paper_overhead_percent=9.65, paper_interventions=65,
        paper_nn_steps=44.2, paper_program_steps=58.6,
    )
)
_register(
    BenchmarkSpec(
        name="cartpole",
        factory=make_cartpole,
        description="Cart-pole balancing (30 degrees / 0.3 m safety)",
        paper_vars=4, paper_network_size="300x200", paper_failures=47, paper_program_size=4,
        paper_overhead_percent=5.62, paper_interventions=1799,
        paper_nn_steps=681.3, paper_program_steps=1912.6,
    )
)
_register(
    BenchmarkSpec(
        name="self_driving",
        factory=make_self_driving,
        description="Single-car canal avoidance",
        paper_vars=4, paper_network_size="300x200", paper_failures=61, paper_program_size=1,
        paper_overhead_percent=4.66, paper_interventions=236,
        paper_nn_steps=145.9, paper_program_steps=513.6,
    )
)
_register(
    BenchmarkSpec(
        name="lane_keeping",
        factory=make_lane_keeping,
        description="Lane keeping with road curvature as bounded disturbance",
        paper_vars=4, paper_network_size="240x200", paper_failures=36, paper_program_size=1,
        paper_overhead_percent=8.65, paper_interventions=64,
        paper_nn_steps=375.3, paper_program_steps=643.5,
    )
)
_register(
    BenchmarkSpec(
        name="4_car_platoon",
        factory=make_4_car_platoon,
        neural_hidden=(96, 64),
        description="4-car platoon keeping safe relative distances",
        paper_vars=8, paper_network_size="500x400x300", paper_failures=8, paper_program_size=4,
        paper_overhead_percent=3.17, paper_interventions=8,
        paper_nn_steps=7.6, paper_program_steps=9.6,
    )
)
_register(
    BenchmarkSpec(
        name="8_car_platoon",
        factory=make_8_car_platoon,
        neural_hidden=(96, 64),
        description="8-car platoon keeping safe relative distances",
        paper_vars=16, paper_network_size="500x400x300", paper_failures=40, paper_program_size=1,
        paper_overhead_percent=6.05, paper_interventions=1080,
        paper_nn_steps=38.5, paper_program_steps=55.4,
    )
)
_register(
    BenchmarkSpec(
        name="oscillator",
        factory=make_oscillator,
        neural_hidden=(96, 64),
        description="Switched oscillator with a 16-order filter",
        paper_vars=18, paper_network_size="240x200", paper_failures=371, paper_program_size=1,
        paper_overhead_percent=21.31, paper_interventions=93703,
        paper_nn_steps=693.5, paper_program_steps=1135.3,
    )
)
_register(
    BenchmarkSpec(
        name="duffing",
        factory=make_duffing,
        certificate_backend="barrier",
        invariant_degree=4,
        description="Duffing oscillator (Example 4.3 / Fig. 6, not a Table 1 row)",
    )
)


def benchmark_names(table1_only: bool = False) -> List[str]:
    """Registered benchmark names (optionally only the Table 1 rows)."""
    names = list(BENCHMARKS)
    if table1_only:
        names = [n for n in names if BENCHMARKS[n].paper_vars is not None]
    return names


def get_benchmark(name: str) -> BenchmarkSpec:
    """Look up a benchmark spec by name."""
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}")
    return BENCHMARKS[name]


def make_environment(name: str, **overrides) -> EnvironmentContext:
    """Instantiate the environment for a registered benchmark.

    ``disturbance_bound`` is accepted for every benchmark regardless of its
    factory signature: it is applied to the constructed environment afterwards.
    This is what lets shields re-synthesized under a runtime-estimated
    disturbance bound record reconstructible provenance
    (``environment_overrides={"disturbance_bound": [...]}``).
    """
    disturbance_bound = overrides.pop("disturbance_bound", None)
    env = get_benchmark(name).make(**overrides)
    if disturbance_bound is not None:
        env.disturbance_bound = np.asarray(disturbance_bound, dtype=float)
    return env
