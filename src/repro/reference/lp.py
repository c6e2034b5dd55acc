"""The full-row barrier LP: the cutting-plane solve's differential oracle.

:func:`solve_barrier_lp_full` answers a
:class:`~repro.certificates.barrier.BarrierCertificateSynthesizer`'s
``_solve_lp`` query the obvious way: it builds every sampled row from scratch
and hands them all to HiGHS in one solve.  The cutting-plane solve must reach
the same margin ``γ`` (within solver tolerance) while satisfying every row
(``tests/test_barrier_lp.py``); its coefficients may be another optimum of
the same LP.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.optimize import linprog

from ..certificates.barrier import BarrierCertificateSynthesizer, lp_objective, scaled_lp_rows

__all__ = ["full_lp_rows", "solve_barrier_lp_full"]


def full_lp_rows(
    synthesizer: BarrierCertificateSynthesizer,
    init_samples: np.ndarray,
    unsafe_samples: np.ndarray,
    induction_samples: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The scaled row block and column scale, every row built afresh."""
    return scaled_lp_rows(
        *(
            np.concatenate(synthesizer._row_blocks(kind, samples), axis=0)
            for kind, samples in (
                ("init", init_samples),
                ("unsafe", unsafe_samples),
                ("induction", induction_samples),
            )
        )
    )


def solve_barrier_lp_full(
    synthesizer: BarrierCertificateSynthesizer,
    init_samples: np.ndarray,
    unsafe_samples: np.ndarray,
    induction_samples: np.ndarray,
) -> tuple[Optional[np.ndarray], float]:
    """``(coefficients, γ)`` of the sampled LP over all rows in one HiGHS solve.

    ``(None, -inf)`` when HiGHS fails or runs past the synthesizer's
    ``lp_time_limit_seconds``.
    """
    a_ub, column_scale = full_lp_rows(
        synthesizer, init_samples, unsafe_samples, induction_samples
    )
    objective, bounds = lp_objective(len(column_scale))
    time_limit = synthesizer.config.lp_time_limit_seconds
    result = linprog(
        objective,
        A_ub=a_ub,
        b_ub=np.zeros(a_ub.shape[0]),
        bounds=bounds,
        method="highs",
        options=None if time_limit is None else {"time_limit": float(time_limit)},
    )
    if not result.success:
        return None, float("-inf")
    return result.x[:-1] / column_scale, float(result.x[-1])
