"""Which config fields are settable.

A config field exists only where some caller sets it to more than one value.
Settings that every caller left at their default are module constants with
that same default, so the numerics of every run are unchanged; settings that
only selected a deleted code path (the L1 action gap, the sharded ARS
objective, the whole-dispatch verification deadline, the shard/dtype
pass-throughs) are gone with it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.certificates import conditions as conditions_module
from repro.certificates import barrier as barrier_module
from repro.certificates.barrier import BarrierSynthesisConfig
from repro.core import distance as distance_module
from repro.core import synthesis as synthesis_module
from repro.core.distance import DistanceConfig
from repro.core.synthesis import SynthesisConfig
from repro.core.verification import VerificationConfig
from repro.experiments.reporting import ExperimentScale
from repro.rl import random_search as ars_module
from repro.rl.random_search import ARSConfig
from repro.runtime.batched import BatchedCampaign
from repro.runtime.simulation import EvaluationProtocol

SETTABLE_FIELDS = {
    SynthesisConfig: ("iterations", "learning_rate", "warm_start_samples", "seed", "distance"),
    DistanceConfig: ("num_trajectories", "trajectory_length"),
    VerificationConfig: (
        "backend",
        "invariant_degree",
        "barrier",
        "verifier_max_boxes",
        "backend_time_budget_seconds",
    ),
    BarrierSynthesisConfig: ("max_refinements", "lp_time_limit_seconds", "time_budget_seconds"),
    ARSConfig: ("iterations", "directions", "rollout_steps", "seed"),
    EvaluationProtocol: ("episodes", "steps", "seed", "workers"),
    ExperimentScale: (
        "episodes",
        "steps",
        "synthesis_iterations",
        "synthesis_trajectories",
        "synthesis_trajectory_length",
        "max_counterexamples",
        "oracle_method",
        "oracle_hidden",
        "seed",
        "workers",
    ),
    BatchedCampaign: ("env", "policy", "steps", "shield", "workers", "dtype"),
}

# (config, former field, module holding the constant, constant, former default)
CONSTANTS = [
    (SynthesisConfig, "noise_scale", synthesis_module, "NOISE_SCALE", 0.05),
    (SynthesisConfig, "directions", synthesis_module, "DIRECTIONS", 4),
    (SynthesisConfig, "convergence_tolerance", synthesis_module, "CONVERGENCE_TOLERANCE", 1e-4),
    (SynthesisConfig, "convergence_window", synthesis_module, "CONVERGENCE_WINDOW", 10),
    (
        SynthesisConfig,
        "warm_start_with_regression",
        synthesis_module,
        "WARM_START_WITH_REGRESSION",
        True,
    ),
    (DistanceConfig, "unsafe_penalty", distance_module, "UNSAFE_PENALTY", 1000.0),
    (VerificationConfig, "verifier_tolerance", conditions_module, "VERIFIER_TOLERANCE", 1e-6),
    (BarrierSynthesisConfig, "samples_init", barrier_module, "SAMPLES_INIT", 300),
    (BarrierSynthesisConfig, "samples_unsafe", barrier_module, "SAMPLES_UNSAFE", 300),
    (BarrierSynthesisConfig, "samples_induction", barrier_module, "SAMPLES_INDUCTION", 600),
    (BarrierSynthesisConfig, "counterexample_cloud", barrier_module, "COUNTEREXAMPLE_CLOUD", 20),
    (
        BarrierSynthesisConfig,
        "counterexample_jitter",
        barrier_module,
        "COUNTEREXAMPLE_JITTER",
        1e-2,
    ),
    (BarrierSynthesisConfig, "min_margin", barrier_module, "MIN_MARGIN", 1e-6),
    (BarrierSynthesisConfig, "coefficient_bound", barrier_module, "COEFFICIENT_BOUND", 1.0),
    (
        BarrierSynthesisConfig,
        "disturbance_corner_limit",
        barrier_module,
        "DISTURBANCE_CORNER_LIMIT",
        4,
    ),
    (BarrierSynthesisConfig, "seed", barrier_module, "SAMPLING_SEED", 0),
    (ARSConfig, "top_directions", ars_module, "TOP_DIRECTIONS", 4),
    (ARSConfig, "step_size", ars_module, "STEP_SIZE", 0.02),
    (ARSConfig, "noise_scale", ars_module, "NOISE_SCALE", 0.03),
    (ARSConfig, "rollouts_per_direction", ars_module, "ROLLOUTS_PER_DIRECTION", 1),
]

# (config, former field) whose only use was a deleted code path.
DELETED = [
    (DistanceConfig, "norm"),
    (VerificationConfig, "verifier_min_width"),
    (VerificationConfig, "timeout_seconds"),
    (ARSConfig, "workers"),
    (ARSConfig, "shards"),
    (EvaluationProtocol, "shards"),
    (EvaluationProtocol, "dtype"),
    (ExperimentScale, "shards"),
    (BatchedCampaign, "shards"),
]


def _field_names(config):
    return tuple(field.name for field in dataclasses.fields(config))


def _assert_not_settable(config, name):
    assert name not in _field_names(config)
    with pytest.raises(TypeError, match=name):
        config(**{name: None})


@pytest.mark.parametrize(
    "config", list(SETTABLE_FIELDS), ids=lambda config: config.__name__
)
def test_settable_fields(config):
    assert _field_names(config) == SETTABLE_FIELDS[config]


def test_settable_field_count():
    assert sum(len(names) for names in SETTABLE_FIELDS.values()) == 39


@pytest.mark.parametrize(
    "config,name,module,constant,default",
    CONSTANTS,
    ids=[f"{config.__name__}.{name}" for config, name, *_ in CONSTANTS],
)
def test_single_valued_field_is_a_constant_with_its_default(
    config, name, module, constant, default
):
    _assert_not_settable(config, name)
    value = getattr(module, constant)
    assert type(value) is type(default)
    assert value == default


@pytest.mark.parametrize(
    "config,name", DELETED, ids=[f"{config.__name__}.{name}" for config, name in DELETED]
)
def test_field_of_a_deleted_path_is_gone(config, name):
    _assert_not_settable(config, name)
