"""repro — a reproduction of "An Inductive Synthesis Framework for Verifiable
Reinforcement Learning" (Zhu, Xiong, Magill, Jagannathan; PLDI 2019).

The package synthesizes deterministic policy programs from neural reinforcement
learning policies, verifies them with inductive invariants, and deploys the
pair as a runtime safety shield.  See ``DESIGN.md`` for the system inventory
and ``EXPERIMENTS.md`` for the paper-vs-measured results.

Typical usage::

    from repro import make_environment, train_oracle, synthesize_shield

    env = make_environment("pendulum")
    oracle = train_oracle(env).policy
    result = synthesize_shield(env, oracle)
    print(result.pretty_program())
    trajectory = env.simulate(result.shield, steps=500)
"""

from .certificates import audit_invariant, audit_shield
from .compile import kernel_cache_stats
from .core import (
    CEGISConfig,
    CEGISResult,
    Shield,
    ShieldSynthesisResult,
    SynthesisConfig,
    VerificationConfig,
    run_cegis,
    synthesize_program,
    synthesize_shield,
    synthesize_stable_program,
    verify_program,
    verify_stability,
)
from .envs import EnvironmentContext, benchmark_names, get_benchmark, make_environment
from .lang import (
    AffineProgram,
    AffineSketch,
    GuardedProgram,
    Invariant,
    InvariantSketch,
    ShieldArtifact,
    load_artifact,
    parse_invariant,
    parse_program,
    save_artifact,
)
from .rl import NeuralPolicy, train_oracle
from .runtime import (
    BatchedCampaign,
    EvaluationProtocol,
    RuntimeMonitor,
    compare_shielded,
    evaluate_policy,
)
from .shard import ShardPool, monitor_fleet_sharded, run_sharded_campaign

__version__ = "0.2.0"

__all__ = [
    "__version__",
    "EnvironmentContext",
    "make_environment",
    "get_benchmark",
    "benchmark_names",
    "train_oracle",
    "NeuralPolicy",
    "AffineSketch",
    "AffineProgram",
    "GuardedProgram",
    "Invariant",
    "InvariantSketch",
    "parse_program",
    "parse_invariant",
    "ShieldArtifact",
    "save_artifact",
    "load_artifact",
    "SynthesisConfig",
    "VerificationConfig",
    "CEGISConfig",
    "CEGISResult",
    "synthesize_program",
    "verify_program",
    "run_cegis",
    "synthesize_shield",
    "verify_stability",
    "synthesize_stable_program",
    "audit_invariant",
    "audit_shield",
    "Shield",
    "ShieldSynthesisResult",
    "EvaluationProtocol",
    "BatchedCampaign",
    "evaluate_policy",
    "compare_shielded",
    "RuntimeMonitor",
    "kernel_cache_stats",
    "ShardPool",
    "run_sharded_campaign",
    "monitor_fleet_sharded",
]
