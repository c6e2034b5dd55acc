"""Interval arithmetic and rigorous polynomial range bounding over boxes.

This module is the numerical core of the branch-and-bound verifier in
:mod:`repro.certificates.smt`, which stands in for the Z3/Mosek stack used by
the paper's artifact.  Given a polynomial ``p`` and an axis-aligned box ``B``,
:func:`polynomial_range` returns an interval ``[lo, hi]`` that is guaranteed to
contain ``{p(x) : x in B}``.  The bound is conservative (outer) but converges as
the box shrinks, which is exactly what branch-and-bound needs for soundness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .monomial import Monomial
from .polynomial import Polynomial

__all__ = ["Interval", "power_interval", "monomial_range", "polynomial_range"]


@dataclass(frozen=True)
class Interval:
    """A closed real interval ``[lo, hi]``.

    Endpoints may be ``±inf`` (overflowing bounds stay sound as outer
    enclosures) but never ``nan``: a nan endpoint denotes no interval at all,
    and because every float comparison with nan is ``False`` it would slip
    through the ``lo > hi`` ordering check and silently poison every bound
    derived from it.  Constructing one raises ``ValueError`` instead.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError(f"interval endpoints must not be nan: [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval lower bound {self.lo} exceeds upper bound {self.hi}")

    # ------------------------------------------------------------ queries
    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    # ------------------------------------------------------------ algebra
    # Indeterminate endpoint forms (inf - inf in sums, 0 * inf in products)
    # arise only when an operand is already unbounded; the sound outer
    # enclosure is then the full line, never a nan endpoint.
    def __add__(self, other: "Interval | float") -> "Interval":
        other = _as_interval(other)
        lo = self.lo + other.lo
        hi = self.hi + other.hi
        return Interval(
            -math.inf if math.isnan(lo) else lo,
            math.inf if math.isnan(hi) else hi,
        )

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval | float") -> "Interval":
        return self + (-_as_interval(other))

    def __rsub__(self, other: "Interval | float") -> "Interval":
        return _as_interval(other) - self

    def __mul__(self, other: "Interval | float") -> "Interval":
        other = _as_interval(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        if any(math.isnan(p) for p in products):
            return Interval(-math.inf, math.inf)
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def scale(self, factor: float) -> "Interval":
        if factor >= 0:
            lo, hi = self.lo * factor, self.hi * factor
        else:
            lo, hi = self.hi * factor, self.lo * factor
        if math.isnan(lo) or math.isnan(hi):  # 0 * inf: unbounded enclosure
            return Interval(-math.inf, math.inf)
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __repr__(self) -> str:
        return f"Interval({self.lo:.6g}, {self.hi:.6g})"


def _as_interval(value: "Interval | float") -> Interval:
    if isinstance(value, Interval):
        return value
    value = float(value)
    return Interval(value, value)


def power_interval(interval: Interval, exponent: int) -> Interval:
    """Tight interval bound of ``x ** exponent`` for ``x`` in ``interval``."""
    if exponent < 0:
        raise ValueError("only non-negative integer exponents are supported")
    if exponent == 0:
        return Interval(1.0, 1.0)
    lo_p = interval.lo ** exponent
    hi_p = interval.hi ** exponent
    if exponent % 2 == 1:
        return Interval(min(lo_p, hi_p), max(lo_p, hi_p))
    # Even power: minimum is 0 if the interval straddles 0.
    if interval.lo <= 0.0 <= interval.hi:
        return Interval(0.0, max(lo_p, hi_p))
    return Interval(min(lo_p, hi_p), max(lo_p, hi_p))


def monomial_range(monomial: Monomial, box: Sequence[Interval]) -> Interval:
    """Tight interval bound of a monomial over a box (product of power bounds)."""
    if len(box) != monomial.num_vars:
        raise ValueError("box dimension does not match monomial variable count")
    result = Interval(1.0, 1.0)
    for interval, exponent in zip(box, monomial.exponents):
        if exponent:
            result = result * power_interval(interval, exponent)
    return result


def polynomial_range(polynomial: Polynomial, box: Sequence[Interval]) -> Interval:
    """Outer bound of the range of ``polynomial`` over the box.

    Uses the natural interval extension with tight per-monomial power bounds.
    The bound converges to the exact range as the box widths shrink, which is
    all that branch-and-bound requires.
    """
    if len(box) != polynomial.num_vars:
        raise ValueError("box dimension does not match polynomial variable count")
    lo = 0.0
    hi = 0.0
    for monomial, coeff in polynomial.terms.items():
        bound = monomial_range(monomial, box).scale(coeff)
        lo += bound.lo
        hi += bound.hi
    # Opposing overflows (inf + -inf) leave a nan accumulator; the sound
    # outer enclosure of an unbounded sum is the full line.
    return Interval(
        -math.inf if math.isnan(lo) else lo,
        math.inf if math.isnan(hi) else hi,
    )
