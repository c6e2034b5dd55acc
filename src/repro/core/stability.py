"""Stability-guaranteeing program synthesis (the paper's supplementary extension).

Footnote 4 of the paper notes that the approach was "extended … to synthesize
deterministic programs which can guarantee stability in the supplementary
material".  This module reproduces that extension for the reproduction's
benchmarks:

* :func:`verify_stability` certifies (local) asymptotic stability of the closed
  loop ``C[P]`` with a discrete-time Lyapunov function ``V(s) = sᵀ P s``:

    1. the closed loop is linearised about the origin and the discrete Lyapunov
       equation ``MᵀPM − P = −I`` is solved exactly;
    2. for nonlinear environments, the decrease condition
       ``V(s') − V(s) ≤ 0`` of the *true polynomial* closed loop is then proven
       on a verification region (minus a small ball around the equilibrium,
       where higher-order terms vanish quadratically) with the interval
       branch-and-bound engine.

* :func:`synthesize_stable_program` wraps Algorithm 1: it synthesizes a program
  that imitates the neural oracle and *additionally* carries a stability
  certificate, blending the synthesized gain towards the LQR gain when the raw
  imitation gain is not certifiably stabilising.  (Safety and stability are
  separate properties: Table 1's shields enforce safety; this extension is what
  the paper's performance columns — steps to reach a steady state — rely on.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..certificates.lyapunov import closed_loop_matrix
from ..certificates.regions import Box
from ..certificates.smt import BranchAndBoundVerifier
from ..envs.base import EnvironmentContext
from ..lang.program import AffineProgram, PolicyProgram
from ..lang.sketch import AffineSketch, ProgramSketch
from ..polynomials import Polynomial
from .synthesis import ProgramSynthesizer, SynthesisConfig

__all__ = [
    "StabilityCertificate",
    "StabilityResult",
    "verify_stability",
    "StableSynthesisConfig",
    "StableSynthesisResult",
    "synthesize_stable_program",
]


@dataclass
class StabilityCertificate:
    """A quadratic Lyapunov certificate ``V(s) = sᵀ P s`` for the closed loop."""

    lyapunov_matrix: np.ndarray
    spectral_radius: float
    region: Optional[Box] = None
    equilibrium_radius: float = 0.0
    nonlinear_decrease_verified: bool = False

    def lyapunov_value(self, state) -> float:
        state = np.asarray(state, dtype=float)
        return float(state @ self.lyapunov_matrix @ state)

    def describe(self) -> str:
        scope = "global (linear closed loop)" if self.region is None else f"on {self.region}"
        return (
            f"StabilityCertificate(spectral radius={self.spectral_radius:.4f}, "
            f"decrease verified {scope})"
        )


@dataclass
class StabilityResult:
    """Outcome of a stability verification attempt."""

    stable: bool
    certificate: Optional[StabilityCertificate] = None
    failure_reason: str = ""
    wall_clock_seconds: float = 0.0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.stable


def _affine_gain(program: PolicyProgram) -> Optional[np.ndarray]:
    if isinstance(program, AffineProgram) and not np.any(program.bias):
        return np.atleast_2d(np.asarray(program.gain, dtype=float))
    return None


def verify_stability(
    env: EnvironmentContext,
    program: PolicyProgram,
    region: Optional[Box] = None,
    equilibrium_radius: float = 1e-2,
    tolerance: float = 1e-7,
    max_boxes: int = 60_000,
) -> StabilityResult:
    """Certify asymptotic stability of ``C[P]`` towards the origin.

    For linear environments with an affine (bias-free) program the certificate is
    exact and global.  For polynomial environments the linearised certificate is
    additionally validated against the true closed loop on ``region`` (default:
    the environment's safe box shrunk by 10%), excluding the ball of radius
    ``equilibrium_radius`` where the decrease is dominated by vanishing
    higher-order terms.
    """
    # Imported lazily: repro.baselines depends on repro.rl, which in turn imports
    # repro.baselines for its behaviour-cloning teacher — a module-level import
    # here would close that cycle during package initialisation.
    from ..baselines.lqr import linearize

    start = time.perf_counter()
    gain = _affine_gain(program)
    if gain is None:
        return StabilityResult(
            stable=False,
            failure_reason="stability certification requires an affine, bias-free program",
            wall_clock_seconds=time.perf_counter() - start,
        )

    a_matrix, b_matrix = linearize(env)
    closed = closed_loop_matrix(a_matrix, b_matrix, gain, env.dt)
    spectral_radius = float(np.max(np.abs(np.linalg.eigvals(closed))))
    if spectral_radius >= 1.0:
        return StabilityResult(
            stable=False,
            failure_reason=(
                f"linearised closed loop is not contracting (spectral radius "
                f"{spectral_radius:.4f} >= 1)"
            ),
            wall_clock_seconds=time.perf_counter() - start,
        )
    from scipy.linalg import solve_discrete_lyapunov

    lyapunov = solve_discrete_lyapunov(closed.T, np.eye(env.state_dim))
    lyapunov = 0.5 * (lyapunov + lyapunov.T)
    if float(np.min(np.linalg.eigvalsh(lyapunov))) <= 0.0:
        return StabilityResult(
            stable=False,
            failure_reason="discrete Lyapunov equation produced an indefinite matrix",
            wall_clock_seconds=time.perf_counter() - start,
        )

    is_linear = env.linear_matrices() is not None
    if is_linear:
        certificate = StabilityCertificate(
            lyapunov_matrix=lyapunov,
            spectral_radius=spectral_radius,
            region=None,
            equilibrium_radius=0.0,
            nonlinear_decrease_verified=True,
        )
        return StabilityResult(
            stable=True, certificate=certificate, wall_clock_seconds=time.perf_counter() - start
        )

    # Nonlinear case: prove V(s') - V(s) <= 0 on the verification region with
    # the true polynomial closed loop, away from the equilibrium ball.
    verification_region = region if region is not None else env.safe_box.expand(0.9)
    try:
        closed_loop_polys = env.closed_loop_polynomials(program)
    except ValueError as error:
        return StabilityResult(
            stable=False,
            failure_reason=f"closed loop cannot be lowered to polynomials: {error}",
            wall_clock_seconds=time.perf_counter() - start,
        )
    lyapunov_poly = Polynomial.quadratic_form(lyapunov)
    decrease = lyapunov_poly.substitute(closed_loop_polys) - lyapunov_poly
    # Constraint "outside the equilibrium ball": r^2 - ||s||^2 <= 0.
    norm_squared = Polynomial.quadratic_form(np.eye(env.state_dim))
    outside_ball = Polynomial.constant(equilibrium_radius**2, env.state_dim) - norm_squared
    verifier = BranchAndBoundVerifier(
        tolerance=tolerance,
        max_boxes=max_boxes,
        min_width=float(np.max(verification_region.widths)) / 200.0,
    )
    check = verifier.prove_nonpositive(decrease, [verification_region], constraints=[outside_ball])
    if not check.verified:
        return StabilityResult(
            stable=False,
            failure_reason=(
                "Lyapunov decrease could not be verified for the nonlinear closed loop"
                + (
                    f" (counterexample {np.round(check.counterexample, 4).tolist()})"
                    if check.counterexample is not None
                    else ""
                )
            ),
            wall_clock_seconds=time.perf_counter() - start,
        )
    certificate = StabilityCertificate(
        lyapunov_matrix=lyapunov,
        spectral_radius=spectral_radius,
        region=verification_region,
        equilibrium_radius=equilibrium_radius,
        nonlinear_decrease_verified=True,
    )
    return StabilityResult(
        stable=True, certificate=certificate, wall_clock_seconds=time.perf_counter() - start
    )


# ------------------------------------------------------------------------- synthesis
@dataclass
class StableSynthesisConfig:
    """Settings for stability-constrained program synthesis."""

    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    blend_steps: int = 5
    equilibrium_radius: float = 1e-2
    region: Optional[Box] = None


@dataclass
class StableSynthesisResult:
    """A synthesized program together with its stability certificate."""

    program: PolicyProgram
    certificate: StabilityCertificate
    blend_weight: float
    attempts: int
    imitation_objective: float
    wall_clock_seconds: float

    @property
    def used_lqr_blending(self) -> bool:
        return self.blend_weight > 0.0


def synthesize_stable_program(
    env: EnvironmentContext,
    oracle: Callable[[np.ndarray], np.ndarray],
    sketch: Optional[ProgramSketch] = None,
    config: Optional[StableSynthesisConfig] = None,
) -> StableSynthesisResult:
    """Synthesize a program that imitates ``oracle`` and is certifiably stabilising.

    The raw output of Algorithm 1 is checked with :func:`verify_stability`; when
    the check fails the affine gain is blended towards the LQR gain of the
    linearised environment (``θ ← (1-w)·θ + w·θ_LQR``) with increasing weight
    ``w`` until a certificate is found.  Raises ``RuntimeError`` when even the
    pure LQR gain cannot be certified (e.g. an uncontrollable model).
    """
    from ..baselines.lqr import linearize, lqr_gain

    config = config or StableSynthesisConfig()
    start = time.perf_counter()
    sketch = sketch or AffineSketch(
        state_dim=env.state_dim,
        action_dim=env.action_dim,
        action_low=env.action_low,
        action_high=env.action_high,
        names=env.state_names,
    )
    if not isinstance(sketch, AffineSketch):
        raise ValueError("stability-constrained synthesis requires an affine sketch")

    synthesizer = ProgramSynthesizer(env, oracle, sketch, config=config.synthesis)
    synthesis = synthesizer.synthesize()
    base_program = synthesis.program
    base_gain = np.atleast_2d(np.asarray(base_program.gain, dtype=float))

    a_matrix, b_matrix = linearize(env)
    lqr = lqr_gain(a_matrix, b_matrix, env.lqr_state_cost, env.lqr_action_cost)
    lqr_feedback = -lqr.gain  # u = -Kx -> policy gain is -K

    attempts = 0
    weights = np.linspace(0.0, 1.0, config.blend_steps + 1)
    last_reason = ""
    for weight in weights:
        attempts += 1
        blended_gain = (1.0 - weight) * base_gain + weight * lqr_feedback
        candidate = AffineProgram(
            gain=blended_gain,
            action_low=sketch.action_low,
            action_high=sketch.action_high,
            names=sketch.names,
        )
        result = verify_stability(
            env,
            candidate,
            region=config.region,
            equilibrium_radius=config.equilibrium_radius,
        )
        if result.stable and result.certificate is not None:
            return StableSynthesisResult(
                program=candidate,
                certificate=result.certificate,
                blend_weight=float(weight),
                attempts=attempts,
                imitation_objective=synthesis.objective,
                wall_clock_seconds=time.perf_counter() - start,
            )
        last_reason = result.failure_reason

    raise RuntimeError(
        "could not certify stability even for the pure LQR gain: " + last_reason
    )
