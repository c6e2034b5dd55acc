"""SciPy's solvers, imported by the functions that call them.

``scipy.optimize`` pulls in ``scipy.linalg``, ``scipy.special`` and
``scipy.fft``: about 40 MB of resident memory and a few tenths of a second
of start-up.  Only synthesis solves LPs and Lyapunov or Riccati equations,
so every call site imports its solver on first use, and a process that only
loads a stored shield and runs campaigns loads no ``scipy`` module.

:func:`linprog` is the LP entry point of the barrier search and the Farkas
certificates.  Both modules bind it as a module global and call it through
that global, so a wrapper installed with ``setattr`` on either module sees
every call.
"""

from __future__ import annotations

__all__ = ["linprog", "load_solvers"]


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def load_solvers() -> None:
    """Import every solver a certificate search calls.

    A forking caller runs this first, so that its workers inherit the
    modules instead of each importing them again.
    """
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
