"""Exact quadratic (ellipsoidal) inductive invariants for linear closed loops.

For the linear time-invariant benchmarks of Table 1 (Satellite, DCMotor, Tape,
Magnetic Pointer, Suspension, the car platoons, the switched-oscillator filter)
the closed loop under an affine program ``P(s) = K s`` is a linear map

    s' = M s,      M = I + Δt (A + B K).

For such systems the paper's barrier-certificate conditions can be discharged
*exactly* without any sampling or branch-and-bound:

* solve the discrete Lyapunov equation ``Mᵀ P M − P = −Q`` (``Q ≻ 0``) for
  ``P ≻ 0`` — this proves condition (10) globally since
  ``E(s') − E(s) = sᵀ(Mᵀ P M − P)s ≤ 0`` for ``E(s) = sᵀ P s − c``;
* pick the level ``c`` as the exact maximum of ``sᵀ P s`` over the initial box
  (a convex function over a polytope attains its maximum at a vertex), which
  gives condition (9);
* condition (8) holds iff the ellipsoid ``{sᵀ P s ≤ c}`` stays strictly inside
  the safe box, which has the closed form ``√(c · (P⁻¹)_{ii}) < bound_i``.

Bounded additive disturbances ``s' = M s + Δt d`` with ``|d| ≤ d_max`` are
handled with a standard contraction argument (see :meth:`_disturbance_ok`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..lang.invariant import Invariant
from ..polynomials import Polynomial
from .regions import Box

__all__ = ["QuadraticCertificateResult", "QuadraticCertificateSynthesizer", "closed_loop_matrix"]


def closed_loop_matrix(a: np.ndarray, b: np.ndarray, gain: np.ndarray, dt: float) -> np.ndarray:
    """The Euler-discretised closed-loop matrix ``I + Δt (A + B K)``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    gain = np.atleast_2d(np.asarray(gain, dtype=float))
    n = a.shape[0]
    return np.eye(n) + dt * (a + b @ gain)


@dataclass
class QuadraticCertificateResult:
    """Outcome of a quadratic-certificate search."""

    invariant: Optional[Invariant]
    verified: bool
    level: float = float("nan")
    shape_matrix: Optional[np.ndarray] = None
    failure_reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.verified


class QuadraticCertificateSynthesizer:
    """Synthesizes ``E(s) = sᵀ P s − c ≤ 0`` invariants for linear closed loops."""

    def __init__(
        self,
        closed_loop: np.ndarray,
        init_box: Box,
        safe_box: Box,
        dt: float = 0.01,
        disturbance_bound: Sequence[float] | None = None,
        num_shape_attempts: int = 8,
        seed: int = 0,
    ) -> None:
        self.closed_loop = np.asarray(closed_loop, dtype=float)
        self.init_box = init_box
        self.safe_box = safe_box
        self.dt = float(dt)
        self.disturbance_bound = (
            np.asarray(disturbance_bound, dtype=float) if disturbance_bound is not None else None
        )
        self.num_shape_attempts = int(num_shape_attempts)
        self._rng = np.random.default_rng(seed)
        n = self.closed_loop.shape[0]
        if self.closed_loop.shape != (n, n):
            raise ValueError("closed-loop matrix must be square")
        if init_box.dim != n or safe_box.dim != n:
            raise ValueError("box dimensions must match the closed-loop matrix")

    # ------------------------------------------------------------------ api
    def search(self) -> QuadraticCertificateResult:
        """Try several Lyapunov shapes ``Q`` and return the first sound invariant."""
        m = self.closed_loop
        spectral_radius = float(np.max(np.abs(np.linalg.eigvals(m))))
        if spectral_radius >= 1.0:
            return QuadraticCertificateResult(
                invariant=None,
                verified=False,
                failure_reason=(
                    f"closed loop is not contracting (spectral radius {spectral_radius:.4f} >= 1); "
                    "no quadratic invariant exists for this program"
                ),
            )

        n = m.shape[0]
        shapes = [np.eye(n)]
        for _ in range(self.num_shape_attempts - 1):
            diag = self._rng.uniform(0.1, 10.0, size=n)
            shapes.append(np.diag(diag))

        last_reason = "no candidate shape produced a certified ellipsoid"
        for q in shapes:
            result = self._try_shape(q)
            if result.verified:
                return result
            if result.failure_reason:
                last_reason = result.failure_reason
        return QuadraticCertificateResult(
            invariant=None, verified=False, failure_reason=last_reason
        )

    # -------------------------------------------------------------- helpers
    def _try_shape(self, q: np.ndarray) -> QuadraticCertificateResult:
        from scipy.linalg import solve_discrete_lyapunov

        m = self.closed_loop
        try:
            p = solve_discrete_lyapunov(m.T, q)
        except np.linalg.LinAlgError:  # pragma: no cover - defensive
            return QuadraticCertificateResult(
                invariant=None, verified=False, failure_reason="Lyapunov solve failed"
            )
        p = 0.5 * (p + p.T)
        eigenvalues = np.linalg.eigvalsh(p)
        if np.min(eigenvalues) <= 0:
            return QuadraticCertificateResult(
                invariant=None, verified=False, failure_reason="Lyapunov matrix not positive definite"
            )

        level = self._initial_level(p)
        if not self._contained_in_safe_box(p, level):
            return QuadraticCertificateResult(
                invariant=None,
                verified=False,
                failure_reason="the smallest invariant ellipsoid containing S0 touches the unsafe set",
            )
        if not self._disturbance_ok(p, level):
            return QuadraticCertificateResult(
                invariant=None,
                verified=False,
                failure_reason="disturbance bound breaks the contraction margin",
            )

        barrier = Polynomial.quadratic_form(p) - level
        invariant = Invariant(barrier=barrier, margin=0.0)
        return QuadraticCertificateResult(
            invariant=invariant, verified=True, level=level, shape_matrix=p
        )

    def _initial_level(self, p: np.ndarray) -> float:
        """Exact ``max_{s in S0} sᵀ P s`` (attained at a vertex of the box)."""
        corners = self.init_box.corners()
        values = np.einsum("ij,jk,ik->i", corners, p, corners)
        return float(np.max(values))

    def _contained_in_safe_box(self, p: np.ndarray, level: float) -> bool:
        """Check ``{sᵀ P s ≤ level} ⊂ interior(safe box)`` exactly."""
        p_inv = np.linalg.inv(p)
        extents = np.sqrt(np.maximum(level * np.diag(p_inv), 0.0))
        high = np.asarray(self.safe_box.high)
        low = np.asarray(self.safe_box.low)
        margin = 1e-9
        return bool(np.all(extents < high - margin) and np.all(-extents > low + margin))

    def _disturbance_ok(self, p: np.ndarray, level: float) -> bool:
        """Contraction check under bounded additive disturbance (if any)."""
        if self.disturbance_bound is None or not np.any(self.disturbance_bound):
            return True
        m = self.closed_loop
        # Largest generalised eigenvalue of (MᵀPM, P) = contraction factor squared.
        p_sqrt_inv = np.linalg.inv(np.linalg.cholesky(p))
        normalized = p_sqrt_inv @ (m.T @ p @ m) @ p_sqrt_inv.T
        contraction_sq = float(np.max(np.linalg.eigvalsh(0.5 * (normalized + normalized.T))))
        contraction = np.sqrt(max(contraction_sq, 0.0))
        disturbance_norm = float(
            np.sqrt(np.max(np.linalg.eigvalsh(p))) * np.linalg.norm(self.disturbance_bound)
        )
        return contraction * np.sqrt(level) + self.dt * disturbance_norm <= np.sqrt(level)
