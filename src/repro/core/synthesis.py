"""Algorithm 1: random-search synthesis of a policy program from a neural oracle.

The search perturbs the sketch parameters θ with Gaussian noise in both
directions, rolls out the perturbed programs in the environment, and moves θ
along the two-point finite-difference estimate of the gradient of the
imitation-with-safety objective (equation (6)):

    θ ← θ + α · [ (d(π, P_{θ+νδ}, C₁) − d(π, P_{θ−νδ}, C₂)) / ν ] · δ

Each iteration scores its ``2·DIRECTIONS`` perturbed programs with one call of
:func:`~repro.core.distance.program_oracle_distance`, which rolls them all out
as one lockstep fleet, in the order ``plus₀, minus₀, plus₁, …`` that scoring
them one at a time would take; the history score of the updated θ is one more
call.  The scores are bit-equal to the one-at-a-time objective, so the search
path and the synthesized program do not depend on the batching.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..envs.base import EnvironmentContext
from ..lang.program import PolicyProgram
from ..lang.sketch import AffineSketch, PolynomialSketch, ProgramSketch
from ..polynomials import basis_design_matrix
from .distance import DistanceConfig, oracle_actions, program_oracle_distance

__all__ = [
    "SynthesisConfig",
    "SynthesisResult",
    "ProgramSynthesizer",
    "synthesize_program",
    "regression_warm_start",
]

#: Standard deviation ν of the Gaussian perturbation of θ.
NOISE_SCALE = 0.05
#: Perturbation directions δ sampled per iteration.
DIRECTIONS = 4
#: The search stops once the mean objective of the last ``CONVERGENCE_WINDOW``
#: iterations moves by less than this fraction of the window before it.
CONVERGENCE_TOLERANCE = 1e-4
CONVERGENCE_WINDOW = 10
#: Start the search from the least-squares fit to the oracle
#: (:func:`regression_warm_start`) where the sketch has one.
WARM_START_WITH_REGRESSION = True


def regression_warm_start(
    env: EnvironmentContext,
    oracle: Callable[[np.ndarray], np.ndarray],
    sketch: ProgramSketch,
    rng: np.random.Generator,
    samples: int = 500,
) -> Optional[np.ndarray]:
    """Least-squares initialisation of θ by imitating the oracle on safe-box samples.

    For the affine and polynomial sketches the program output is linear in θ, so
    the imitation part of the objective (ignoring the safety penalty) has a
    closed-form minimiser.  Algorithm 1's random search then only has to adjust
    θ for the trajectory distribution and the safety penalty, which cuts the
    number of required iterations substantially.  The oracle labels all
    ``samples`` states in one :func:`~repro.core.distance.oracle_actions` call.
    Returns ``None`` for sketches where no closed form applies.
    """
    states = env.safe_box.sample(rng, samples)
    targets = oracle_actions(oracle, states)
    if isinstance(sketch, AffineSketch):
        features = states
        if sketch.include_bias:
            features = np.hstack([states, np.ones((samples, 1))])
    elif isinstance(sketch, PolynomialSketch):
        features = basis_design_matrix(sketch.basis, states)
    else:
        return None
    solution, *_ = np.linalg.lstsq(features, targets, rcond=None)
    # solution has shape (num_features, action_dim); sketches order θ per output row.
    return solution.T.ravel()


@dataclass
class SynthesisConfig:
    """Hyperparameters of Algorithm 1."""

    iterations: int = 60
    learning_rate: float = 0.05
    warm_start_samples: int = 500
    seed: int = 0
    distance: DistanceConfig = field(default_factory=DistanceConfig)


@dataclass
class SynthesisResult:
    """Outcome of one program-synthesis run."""

    program: PolicyProgram
    parameters: np.ndarray
    objective: float
    iterations: int
    converged: bool
    wall_clock_seconds: float
    objective_history: List[float] = field(default_factory=list)


class ProgramSynthesizer:
    """Implements Algorithm 1 (Synthesize)."""

    def __init__(
        self,
        env: EnvironmentContext,
        oracle: Callable[[np.ndarray], np.ndarray],
        sketch: ProgramSketch,
        config: SynthesisConfig | None = None,
    ) -> None:
        self.env = env
        self.oracle = oracle
        self.sketch = sketch
        self.config = config or SynthesisConfig()
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------ api
    def synthesize(
        self,
        init_region=None,
        initial_parameters: Optional[np.ndarray] = None,
    ) -> SynthesisResult:
        """Search the sketch parameter space, starting from θ = 0 by default.

        ``init_region`` restricts the initial states used for trajectory
        sampling (the shrunk region of Algorithm 2); ``initial_parameters``
        warm-starts the search (used when re-synthesizing after an
        environment change, §5 'Handling Environment Changes').
        """
        cfg = self.config
        if initial_parameters is not None:
            theta = np.asarray(initial_parameters, dtype=float).copy()
        else:
            theta = self.sketch.initial_parameters()
            if WARM_START_WITH_REGRESSION:
                warm = regression_warm_start(
                    self.env, self.oracle, self.sketch, self._rng, cfg.warm_start_samples
                )
                if warm is not None:
                    theta = warm
        start = time.perf_counter()
        history: List[float] = []
        converged = False

        for iteration in range(1, cfg.iterations + 1):
            deltas = self._rng.normal(size=(DIRECTIONS, theta.size))
            perturbations = NOISE_SCALE * deltas
            # Scored in the order plus₀, minus₀, plus₁, minus₁, ….
            candidates = np.empty((2 * DIRECTIONS, theta.size))
            candidates[0::2] = theta + perturbations
            candidates[1::2] = theta - perturbations
            scores = self._scores(candidates, init_region)
            plus_scores, minus_scores = scores[0::2], scores[1::2]
            # Normalise the finite-difference update by the score dispersion, as in
            # the augmented-random-search estimator the paper builds on [29, 30];
            # without it the large unsafe penalty makes raw updates blow up.
            sigma = float(np.std(np.concatenate([plus_scores, minus_scores])))
            sigma = max(sigma, 1e-8)
            update = np.einsum("i,ij->j", plus_scores - minus_scores, deltas)
            theta = theta + cfg.learning_rate / (DIRECTIONS * sigma) * update
            history.append(float(self._scores(theta[None, :], init_region)[0]))
            if self._has_converged(history):
                converged = True
                break

        program = self.sketch.instantiate(theta)
        return SynthesisResult(
            program=program,
            parameters=theta,
            objective=history[-1] if history else float("-inf"),
            iterations=len(history),
            converged=converged,
            wall_clock_seconds=time.perf_counter() - start,
            objective_history=history,
        )

    # -------------------------------------------------------------- helpers
    def _scores(self, parameters: np.ndarray, init_region) -> np.ndarray:
        """``d(π, P_θ, C)`` for every row θ of ``parameters``, as one fleet."""
        return program_oracle_distance(
            self.env,
            [self.sketch.instantiate(row) for row in parameters],
            self.oracle,
            self._rng,
            config=self.config.distance,
            init_region=init_region,
        )

    @staticmethod
    def _has_converged(history: List[float]) -> bool:
        window = CONVERGENCE_WINDOW
        if len(history) < 2 * window:
            return False
        recent = np.mean(history[-window:])
        previous = np.mean(history[-2 * window: -window])
        scale = max(abs(previous), 1.0)
        return abs(recent - previous) / scale < CONVERGENCE_TOLERANCE


def synthesize_program(
    env: EnvironmentContext,
    oracle: Callable[[np.ndarray], np.ndarray],
    sketch: ProgramSketch,
    config: SynthesisConfig | None = None,
    init_region=None,
) -> SynthesisResult:
    """Convenience wrapper around :class:`ProgramSynthesizer`."""
    synthesizer = ProgramSynthesizer(env, oracle, sketch, config)
    return synthesizer.synthesize(init_region=init_region)
