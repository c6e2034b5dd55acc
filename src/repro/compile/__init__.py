"""``repro.compile``: lower programs and invariants to fused kernels.

The policy language's guarded shield programs and their barrier invariants
are tiny, fixed straight-line programs.  This package is the classic
lower-then-execute split: a one-time lowering pass flattens each artifact to
monomial exponent/coefficient tables (:mod:`~repro.compile.lowering`), typed
kernels evaluate them as pure array math (:mod:`~repro.compile.kernels`), a
process-wide cache keyed by program fingerprint compiles each artifact once
(:mod:`~repro.compile.cache`), and a fused closed-loop stepper advances whole
``(episodes, state_dim)`` fleets one step per call with a single dynamics
evaluation (:mod:`~repro.compile.stepper`).  The dynamics, unsafe test and
actuator clip are the environment's trusted-input
:class:`~repro.envs.fleet.FleetStep`, which evaluates the symbolic ``rate``
on NumPy columns.

The kernels are always on.  Their semantic references are the pure tree walks
(``Expr.evaluate_interpreted``, ``GuardedProgram.act_interpreted``) and the
interpreted campaign loops of :mod:`repro.reference.campaigns`, which the
differential tests hold them to.
"""

from .cache import (
    KERNEL_CACHE,
    KernelCache,
    clear_kernel_cache,
    compiled_guards_for,
    compiled_program_for,
    kernel_cache_stats,
    warm_kernel_cache,
)
from .kernels import (
    CompiledGuardedProgram,
    CompiledGuardSet,
    CompiledProgram,
    lower_guards,
    lower_program,
)
from .lowering import LoweringError, PolyBlock, lower_exprs, lower_polynomials
from .stepper import (
    CompiledStepper,
    RolloutWorkspace,
    compile_stepper,
    fused_policy_returns,
)

__all__ = [
    "CompiledGuardSet",
    "CompiledGuardedProgram",
    "CompiledProgram",
    "CompiledStepper",
    "KERNEL_CACHE",
    "KernelCache",
    "LoweringError",
    "PolyBlock",
    "RolloutWorkspace",
    "clear_kernel_cache",
    "compile_stepper",
    "compiled_guards_for",
    "compiled_program_for",
    "fused_policy_returns",
    "kernel_cache_stats",
    "lower_exprs",
    "lower_guards",
    "lower_polynomials",
    "lower_program",
    "warm_kernel_cache",
]
