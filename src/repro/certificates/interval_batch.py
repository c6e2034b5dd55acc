"""Batched interval arithmetic and point evaluation over lowered polynomials.

The branch-and-bound verifier asks two numeric questions thousands of times per
query: "what is an outer bound of ``p`` over this box?" and "what is ``p`` at
this point?".  Answering them one :class:`~repro.polynomials.Interval` object
(or one ``Polynomial.evaluate`` call) at a time is what made the scalar engine
the hottest non-rollout path in the codebase.  This module lowers a polynomial
once into an :class:`IntervalTable` — the monomial exponent rows and
coefficients as flat arrays, mirroring the ``PolyBlock`` lowering of
:mod:`repro.compile.lowering` — and then evaluates *whole frontiers of boxes*
(or whole batches of candidate points) per call.

Determinism contract
--------------------
The frontier engine and the scalar reference engine must produce bit-identical
verdicts, counterexamples, and budget accounting, so every function here obeys
one rule: **per-row results are independent of the batch size**.  That means

* element-wise ufuncs and explicit sequential folds only — never BLAS
  reductions (``@``/``dot`` reassociate sums differently per shape, and even
  ``Polynomial.evaluate_batch`` rows change with the number of rows);
* the fold order replicates :func:`repro.polynomials.polynomial_range`
  exactly: monomials in the polynomial's term order, variables in index order,
  ``power -> product -> scale -> sum`` with the same nan-to-unbounded repairs.

Evaluating one box through :func:`range_boxes` therefore yields the same
floats as evaluating it in the middle of a 10,000-box frontier, which is what
lets the scalar engine of :mod:`repro.reference.bnb` serve as a differential
reference for the batched engine.

Lowered tables are memoized on the :class:`~repro.polynomials.Polynomial`
instance itself, so the barrier refinement loop and CEGIS re-checks never
re-lower the same certificate; the gradient tables of the centred form
(:func:`centred_boxes`) are memoized on the table in turn.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .. import obs

__all__ = [
    "IntervalTable",
    "lower_interval",
    "range_boxes",
    "centred_boxes",
    "eval_points",
]


class IntervalTable:
    """A polynomial lowered to flat arrays for batched interval/point work.

    ``plans`` holds one ``((var, exp), ...)`` tuple per monomial — the
    non-zero exponents in variable-index order — in the polynomial's term
    order (NOT the canonical sorted order of ``PolyBlock``: the interval fold
    must replicate ``polynomial_range``'s term iteration exactly).
    """

    __slots__ = ("num_vars", "coefficients", "plans", "max_exponent", "gradients")

    def __init__(self, num_vars: int, coefficients: np.ndarray, plans: Tuple) -> None:
        self.num_vars = int(num_vars)
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.plans = plans
        self.max_exponent = max(
            (exp for plan in plans for _var, exp in plan), default=0
        )
        #: ``((var, table of d/dx_var), ...)`` for the variables the polynomial
        #: depends on, lowered on first use by :func:`centred_boxes`.
        self.gradients: Tuple[Tuple[int, "IntervalTable"], ...] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IntervalTable(vars={self.num_vars}, monomials={len(self.plans)}, "
            f"max_exp={self.max_exponent})"
        )


def lower_interval(polynomial) -> IntervalTable:
    """Lower ``polynomial`` to an :class:`IntervalTable`, memoized per instance.

    The cache lives on the ``Polynomial`` object (``_interval_table`` slot), so
    re-checking the same certificate — the barrier refinement loop proves four
    conditions against one candidate, CEGIS re-proves deployed invariants every
    round — never re-walks the term dictionary.  Lookups count as
    ``interval_table.hits``/``interval_table.misses`` in :mod:`repro.obs`.
    """
    cached = getattr(polynomial, "_interval_table", None)
    if cached is not None:
        obs.count("interval_table.hits")
        return cached
    obs.count("interval_table.misses")
    coefficients: List[float] = []
    plans: List[Tuple[Tuple[int, int], ...]] = []
    for monomial, coeff in polynomial.terms.items():
        coefficients.append(float(coeff))
        plans.append(
            tuple((var, int(exp)) for var, exp in enumerate(monomial.exponents) if exp)
        )
    table = IntervalTable(polynomial.num_vars, np.asarray(coefficients), tuple(plans))
    try:
        polynomial._interval_table = table
    except AttributeError:  # pragma: no cover - foreign polynomial-likes
        pass
    return table


# ------------------------------------------------------------- interval ranges
def _power_bounds(
    low: np.ndarray, high: np.ndarray, exponent: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`repro.polynomials.power_interval` over endpoint columns."""
    if exponent == 1:
        return low, high
    lo_p = np.power(low, float(exponent))
    hi_p = np.power(high, float(exponent))
    lower = np.minimum(lo_p, hi_p)
    upper = np.maximum(lo_p, hi_p)
    if exponent % 2 == 0:
        # Even power: the minimum is 0 wherever the interval straddles 0.
        lower = np.where((low <= 0.0) & (high >= 0.0), 0.0, lower)
    return lower, upper


def range_boxes(
    table: IntervalTable, low: np.ndarray, high: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Outer range bounds of the polynomial over ``n`` boxes at once.

    ``low``/``high`` are ``(n, num_vars)`` endpoint arrays; returns the
    ``(lo, hi)`` bound vectors of shape ``(n,)``.  Row ``i`` is bit-identical
    to evaluating box ``i`` on its own (see the module determinism contract).
    """
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    if low.ndim != 2 or low.shape[1] != table.num_vars:
        raise ValueError(
            f"box array of shape {low.shape} does not match table over "
            f"{table.num_vars} vars"
        )
    count = low.shape[0]
    acc_lo = np.zeros(count)
    acc_hi = np.zeros(count)
    power_cache: dict = {}
    for plan, coeff in zip(table.plans, table.coefficients):
        cur_lo: np.ndarray | None = None
        cur_hi: np.ndarray | None = None
        for var, exp in plan:
            key = (var, exp)
            bounds = power_cache.get(key)
            if bounds is None:
                bounds = _power_bounds(low[:, var], high[:, var], exp)
                power_cache[key] = bounds
            p_lo, p_hi = bounds
            if cur_lo is None:
                # Interval(1, 1) * [a, b] = [a, b] exactly.
                cur_lo, cur_hi = p_lo, p_hi
            else:
                # Interval product: extremes over the four endpoint products,
                # with any nan (0 * inf) widened to the full line.  np.minimum
                # propagates nan, so the minimum is nan exactly where a
                # product is.
                p1 = cur_lo * p_lo
                p2 = cur_lo * p_hi
                p3 = cur_hi * p_lo
                p4 = cur_hi * p_hi
                cur_lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
                cur_hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
                poisoned = np.isnan(cur_lo)
                if poisoned.any():
                    cur_lo = np.where(poisoned, -np.inf, cur_lo)
                    cur_hi = np.where(poisoned, np.inf, cur_hi)
        if cur_lo is None:  # constant monomial
            term_lo = np.full(count, coeff)
            term_hi = term_lo
        elif coeff >= 0.0:
            term_lo = cur_lo * coeff
            term_hi = cur_hi * coeff
        else:
            term_lo = cur_hi * coeff
            term_hi = cur_lo * coeff
        poisoned = np.isnan(term_lo) | np.isnan(term_hi)
        if poisoned.any():  # 0 * inf at scaling time: unbounded enclosure
            term_lo = np.where(poisoned, -np.inf, term_lo)
            term_hi = np.where(poisoned, np.inf, term_hi)
        acc_lo = acc_lo + term_lo
        acc_hi = acc_hi + term_hi
    # Opposing overflows (inf + -inf) leave nan accumulators; the sound outer
    # enclosure of an unbounded sum is the full line (matches polynomial_range).
    lo_nan = np.isnan(acc_lo)
    hi_nan = np.isnan(acc_hi)
    if lo_nan.any():
        acc_lo = np.where(lo_nan, -np.inf, acc_lo)
    if hi_nan.any():
        acc_hi = np.where(hi_nan, np.inf, acc_hi)
    return acc_lo, acc_hi


# ------------------------------------------------------------- centred form
def _gradient_tables(table: IntervalTable) -> Tuple[Tuple[int, IntervalTable], ...]:
    """The partial derivatives of ``table``, lowered once and memoized on it.

    ``d/dx_v`` keeps the monomials that contain ``x_v``, in term order, with
    the coefficient scaled by the exponent and the exponent lowered by one.
    Variables the polynomial does not depend on have a zero derivative and
    are left out.
    """
    if table.gradients is None:
        gradients = []
        for var in range(table.num_vars):
            coefficients: List[float] = []
            plans: List[Tuple[Tuple[int, int], ...]] = []
            for plan, coeff in zip(table.plans, table.coefficients):
                exp = dict(plan).get(var, 0)
                if not exp:
                    continue
                coefficients.append(float(coeff) * exp)
                plans.append(
                    tuple(
                        (v, e - 1 if v == var else e)
                        for v, e in plan
                        if v != var or e > 1
                    )
                )
            if plans:
                gradients.append(
                    (var, IntervalTable(table.num_vars, np.asarray(coefficients), tuple(plans)))
                )
        table.gradients = tuple(gradients)
    return table.gradients


def centred_boxes(
    table: IntervalTable, low: np.ndarray, high: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean-value (centred) range bounds of the polynomial over ``n`` boxes.

    With ``c`` the box centre, ``r`` its half-widths and ``[lo_v, hi_v]`` the
    natural enclosure (:func:`range_boxes`) of ``d/dx_v`` on the box, every
    ``p(x)`` on the box lies in ``p(c) ± sum_v max(|lo_v|, |hi_v|) * r_v``.
    Its excess over the true range shrinks with the square of the box width,
    against linearly for the natural extension, so it is the tighter of the
    two on small boxes.  Rows whose bound is not finite (overflow, ``nan``,
    unbounded gradients) come back as ``(-inf, inf)``: they prove nothing.

    Same shapes and determinism contract as :func:`range_boxes`: the sum over
    variables is a sequential fold in index order.
    """
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    if low.ndim != 2 or low.shape[1] != table.num_vars:
        raise ValueError(
            f"box array of shape {low.shape} does not match table over "
            f"{table.num_vars} vars"
        )
    radius = 0.5 * (high - low)
    value = eval_points(table, 0.5 * (low + high))
    spread = np.zeros(low.shape[0])
    for var, gradient in _gradient_tables(table):
        g_lo, g_hi = range_boxes(gradient, low, high)
        spread = spread + np.maximum(np.abs(g_lo), np.abs(g_hi)) * radius[:, var]
    lower = value - spread
    upper = value + spread
    unbounded = ~(np.isfinite(lower) & np.isfinite(upper))
    if unbounded.any():
        lower = np.where(unbounded, -np.inf, lower)
        upper = np.where(unbounded, np.inf, upper)
    return lower, upper


# ------------------------------------------------------------ point evaluation
def eval_points(table: IntervalTable, points: np.ndarray) -> np.ndarray:
    """Evaluate the polynomial at ``(n, num_vars)`` points, returning ``(n,)``.

    A sequential per-monomial fold (powers shared across monomials), so row
    values are independent of how many points share the batch — the property
    the scalar/frontier differential contract relies on.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != table.num_vars:
        raise ValueError(
            f"point array of shape {points.shape} does not match table over "
            f"{table.num_vars} vars"
        )
    count = points.shape[0]
    acc = np.zeros(count)
    power_cache: dict = {}
    for plan, coeff in zip(table.plans, table.coefficients):
        value: np.ndarray | None = None
        for var, exp in plan:
            key = (var, exp)
            power = power_cache.get(key)
            if power is None:
                column = points[:, var]
                power = column if exp == 1 else np.power(column, float(exp))
                power_cache[key] = power
            value = power if value is None else value * power
        acc = acc + coeff if value is None else acc + coeff * value
    return acc
