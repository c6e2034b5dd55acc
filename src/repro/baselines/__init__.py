"""Baseline controllers the paper compares against.

* LQR synthesis (§6: LQR-tree discussion) — also the behaviour-cloning teacher;
* direct linear RL (§5, via :mod:`repro.rl.random_search`).
"""

from .lqr import LQRResult, linearize, lqr_gain, make_lqr_policy

__all__ = ["LQRResult", "lqr_gain", "linearize", "make_lqr_policy"]
