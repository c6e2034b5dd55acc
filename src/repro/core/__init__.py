"""The paper's contribution: synthesis (Alg. 1), CEGIS (Alg. 2), shielding (Alg. 3)."""

from .cegis import CEGISBranch, CEGISConfig, CEGISLoop, CEGISResult, run_cegis
from .distance import DistanceConfig, program_oracle_distance
from .replay import (
    CounterexampleCache,
    CounterexampleRecord,
    batch_reaches_unsafe,
    emit_counterexample,
    install_global_recorder,
)
from .shield import Shield, ShieldStatistics
from .stability import (
    StabilityCertificate,
    StabilityResult,
    StableSynthesisConfig,
    StableSynthesisResult,
    synthesize_stable_program,
    verify_stability,
)
from .synthesis import (
    ProgramSynthesizer,
    SynthesisConfig,
    SynthesisResult,
    regression_warm_start,
    synthesize_program,
)
from .toolchain import ShieldSynthesisResult, synthesize_shield
from .verification import (
    VerificationConfig,
    VerificationKernel,
    VerificationOutcome,
    verify_program,
)

__all__ = [
    "DistanceConfig",
    "program_oracle_distance",
    "SynthesisConfig",
    "SynthesisResult",
    "ProgramSynthesizer",
    "synthesize_program",
    "regression_warm_start",
    "VerificationConfig",
    "VerificationKernel",
    "VerificationOutcome",
    "verify_program",
    "CEGISConfig",
    "CEGISBranch",
    "CEGISResult",
    "CEGISLoop",
    "run_cegis",
    "CounterexampleCache",
    "CounterexampleRecord",
    "batch_reaches_unsafe",
    "install_global_recorder",
    "emit_counterexample",
    "Shield",
    "ShieldStatistics",
    "ShieldSynthesisResult",
    "synthesize_shield",
    "StabilityCertificate",
    "StabilityResult",
    "StableSynthesisConfig",
    "StableSynthesisResult",
    "verify_stability",
    "synthesize_stable_program",
]
