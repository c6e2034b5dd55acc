"""The unfused Algorithm 1 loop: one fleet per score.

:class:`UnfusedProgramSynthesizer` runs
:meth:`repro.core.synthesis.ProgramSynthesizer.synthesize` the obvious way:
each iteration scores its perturbed programs as one fleet and then the updated
θ as a second fleet, each drawing its own rows from the generator.  The product
loop folds θ's history score into the next iteration's fleet; θ, the history,
the iteration count, the convergence flag and the generator's final state must
equal this loop's (``tests/test_synthesis_fusion.py``).
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from ..core import synthesis as core_synthesis
from ..core.synthesis import ProgramSynthesizer, SynthesisResult

__all__ = ["UnfusedProgramSynthesizer"]


class UnfusedProgramSynthesizer(ProgramSynthesizer):
    """Algorithm 1 with two fleets per iteration (candidates, then θ's history)."""

    def synthesize(
        self,
        init_region=None,
        initial_parameters: Optional[np.ndarray] = None,
    ) -> SynthesisResult:
        theta = self._initial_parameters(initial_parameters)
        start = time.perf_counter()
        history: List[float] = []
        converged = False
        for _ in range(self.config.iterations):
            deltas = self._rng.normal(size=(core_synthesis.DIRECTIONS, theta.size))
            scores = self._fleet(self._candidates(theta, deltas), init_region)
            theta = self._update(theta, deltas, scores)
            history.append(float(self._fleet(theta[None, :], init_region)[0]))
            if self._has_converged(history):
                converged = True
                break
        return self._result(theta, history, converged, start)

    def _fleet(self, parameters: np.ndarray, init_region) -> np.ndarray:
        """One fleet that draws its own rows."""
        return self._scores(parameters, self._draw_rows(len(parameters), init_region))
