"""The end-to-end toolchain: oracle → synthesized program → invariant → shield.

:func:`synthesize_shield` is the single entry point a user of the library
needs: given an environment context and a trained neural oracle it runs the
CEGIS loop of Algorithm 2 and wraps the result into a deployable
:class:`~repro.core.shield.Shield`.  It is also what every experiment module
and example script calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from dataclasses import replace

from ..envs.base import EnvironmentContext
from ..lang.invariant import InvariantUnion
from ..lang.program import GuardedProgram
from ..lang.sketch import ProgramSketch
from .cegis import CEGISConfig, CEGISLoop, CEGISResult
from .replay import CounterexampleCache
from .shield import Shield

__all__ = ["ShieldSynthesisResult", "synthesize_shield"]


@dataclass
class ShieldSynthesisResult:
    """Everything produced by one end-to-end run of the toolchain."""

    shield: Shield
    program: GuardedProgram
    invariant: InvariantUnion
    cegis: CEGISResult
    total_seconds: float

    @property
    def program_size(self) -> int:
        """Number of synthesized policies (Table 1 'Size' column)."""
        return self.cegis.program_size

    @property
    def synthesis_seconds(self) -> float:
        """Synthesis + verification time (Table 1 'Synthesis' column)."""
        return self.cegis.synthesis_seconds

    def pretty_program(self) -> str:
        """The synthesized program printed in the paper's policy-language syntax."""
        return self.program.pretty(self.shield.env.state_names)


def synthesize_shield(
    env: EnvironmentContext,
    oracle: Callable[[np.ndarray], np.ndarray],
    sketch: Optional[ProgramSketch] = None,
    config: Optional[CEGISConfig] = None,
    workers: Optional[int] = None,
    replay_cache: Optional[CounterexampleCache] = None,
    verdict_cache=None,
) -> ShieldSynthesisResult:
    """Synthesize a verified deterministic program and deploy it as a shield for ``oracle``.

    ``workers`` overrides :attr:`CEGISConfig.workers` without mutating the
    caller's config;
    ``replay_cache`` shares a counterexample cache across calls (e.g. one per
    environment, owned by a :class:`~repro.store.SynthesisService`);
    ``verdict_cache`` memoises whole verification verdicts across runs (see
    :class:`~repro.store.VerdictCache`).

    Raises ``RuntimeError`` when the CEGIS loop cannot cover the initial state
    space — the same situation in which the paper's tool reports a verification
    failure (e.g. an insufficiently expressive sketch or invariant degree).
    """
    start = time.perf_counter()
    config = config or CEGISConfig()
    if workers is not None:
        config = replace(config, workers=int(workers))
    loop = CEGISLoop(
        env,
        oracle,
        sketch=sketch,
        config=config,
        replay_cache=replay_cache,
        verdict_cache=verdict_cache,
    )
    cegis_result = loop.run()
    if not cegis_result.covered or not cegis_result.branches:
        raise RuntimeError(
            "CEGIS failed to produce a verified program covering S0: "
            + (cegis_result.failure_reason or "no verified branches")
        )
    program = cegis_result.program
    invariant = cegis_result.invariant
    shield = Shield(env=env, neural_policy=oracle, program=program, invariant=invariant)
    return ShieldSynthesisResult(
        shield=shield,
        program=program,
        invariant=invariant,
        cegis=cegis_result,
        total_seconds=time.perf_counter() - start,
    )
