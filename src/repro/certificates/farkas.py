"""Farkas/Handelman positivity certificates via linear programming.

The paper notes that the universally quantified verification conditions
(8)-(10) can be discharged "after universal quantifiers are eliminated using a
variant of Farkas Lemma as in [20]" (Gulwani & Tiwari's constraint-based
approach).  This module implements that style of quantifier elimination for
polynomial inequalities over boxes (and box-with-sub-level-set domains):

To prove ``p(x) ≤ 0`` for every ``x`` in a box ``B = {l ≤ x ≤ h}`` intersected
with constraints ``c_j(x) ≤ 0``, write the nonnegative *generators*

    g = (x_1 − l_1, h_1 − x_1, …, x_n − l_n, h_n − x_n, −c_1, −c_2, …)

and search, by linear programming, for nonnegative multipliers ``λ_α ≥ 0`` such
that ``−p = Σ_α λ_α · Π_i g_i^{α_i}`` (a Handelman / Farkas representation).
Every generator is nonnegative on the domain, so the representation witnesses
``−p ≥ 0`` there, i.e. ``p ≤ 0``.  The multiplier degree bound plays the same
role as the invariant-degree bound of equation (7): higher degrees are more
complete but produce larger LPs.

Soundness is *checked*, not assumed: after solving the LP the residual
``p + Σ λ_α g^α`` is bounded over the box with interval arithmetic, and the
proof is only accepted when that sound bound is below the numeric tolerance.

:class:`FarkasVerifier` is an alternative decision procedure to the
branch-and-bound verifier of :mod:`repro.certificates.smt`: the ``farkas``
backend and ``audit --engine farkas`` discharge conditions (8) and (9) with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from ..polynomials import Monomial, Polynomial, polynomial_range
from .regions import Box

__all__ = [
    "FarkasResult",
    "FarkasVerifier",
    "handelman_products",
    "prove_nonpositive_handelman",
    "prove_positive_handelman",
]

# Far below the default certificate ``tolerance`` (1e-7) of the residual check.
_LP_FEASIBILITY_TOLERANCE = 1e-10


@dataclass
class FarkasResult:
    """Outcome of one Handelman/Farkas proof attempt."""

    proved: bool
    multipliers: Optional[np.ndarray] = None
    products: Tuple[Polynomial, ...] = ()
    residual_bound: float = float("inf")
    degree: int = 0
    failure_reason: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.proved


def _box_generators(box: Box) -> List[Polynomial]:
    """The 2n nonnegative generator polynomials ``x_i − l_i`` and ``h_i − x_i``."""
    generators: List[Polynomial] = []
    n = box.dim
    for index, (low, high) in enumerate(zip(box.low, box.high)):
        x_i = Polynomial.variable(index, n)
        generators.append(x_i - low)
        generators.append(high - x_i)
    return generators


def handelman_products(
    box: Box, degree: int, constraints: Sequence[Polynomial] = ()
) -> List[Polynomial]:
    """All products of generators with total multiplicity at most ``degree``.

    ``constraints`` are polynomials required to satisfy ``c(x) ≤ 0`` on the
    domain; their negations are appended to the generator list (they are
    nonnegative exactly where the constraints hold).  The degree-0 product (the
    constant ``1``) is always included.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    generators = _box_generators(box) + [-c for c in constraints]
    num_vars = box.dim
    products: List[Polynomial] = [Polynomial.constant(1.0, num_vars)]
    for multiplicity in range(1, degree + 1):
        for combo in combinations_with_replacement(range(len(generators)), multiplicity):
            product = Polynomial.constant(1.0, num_vars)
            for generator_index in combo:
                product = product * generators[generator_index]
            products.append(product)
    return products


def _coefficient_system(
    target: Polynomial, products: Sequence[Polynomial]
) -> Tuple[np.ndarray, np.ndarray, List[Monomial]]:
    """The equality system ``A λ = b`` matching coefficients of ``Σ λ_α g^α = target``."""
    monomials = set(target.terms)
    for product in products:
        monomials.update(product.terms)
    basis = sorted(monomials, key=lambda m: (m.degree, m.exponents))
    index = {monomial: row for row, monomial in enumerate(basis)}
    matrix = np.zeros((len(basis), len(products)))
    for column, product in enumerate(products):
        for monomial, coeff in product.terms.items():
            matrix[index[monomial], column] = coeff
    rhs = np.zeros(len(basis))
    for monomial, coeff in target.terms.items():
        rhs[index[monomial]] = coeff
    return matrix, rhs, basis


def prove_nonpositive_handelman(
    polynomial: Polynomial,
    box: Box,
    degree: int | None = None,
    constraints: Sequence[Polynomial] = (),
    tolerance: float = 1e-7,
) -> FarkasResult:
    """Prove ``polynomial(x) ≤ 0`` on ``box ∩ {c ≤ 0 for c in constraints}``.

    Returns a :class:`FarkasResult`; ``proved`` is ``True`` only when the LP is
    feasible *and* the interval-arithmetic bound on the reconstruction residual
    stays below ``tolerance`` (so the answer is sound despite floating point).
    """
    if polynomial.num_vars != box.dim:
        raise ValueError("polynomial and box dimensions do not match")
    if degree is None:
        degree = max(2, polynomial.degree)
    products = handelman_products(box, degree, constraints)
    target = -polynomial
    matrix, rhs, _ = _coefficient_system(target, products)

    # Feasibility LP: minimise Σλ subject to Aλ = b, λ ≥ 0.  The objective keeps
    # the multipliers small, which keeps the reconstruction residual small too.
    from ..faults import fault_site

    spec = fault_site("solver.lp")
    if spec is not None and spec.kind == "lp-timeout":
        # Behaves exactly like an LP that hit its budget: nothing is proved.
        return FarkasResult(
            proved=False,
            degree=degree,
            failure_reason="injected LP timeout (fault plan)",
        )
    # HiGHS accepts bound violations up to its feasibility tolerance (1e-7 by
    # default), so a multiplier of about -1e-7 can come back; dropping it below
    # would leave a residual above ``tolerance``.  A much tighter tolerance keeps
    # the negative part far below it.
    result = linprog(
        c=np.ones(matrix.shape[1]),
        A_eq=matrix,
        b_eq=rhs,
        bounds=[(0.0, None)] * matrix.shape[1],
        method="highs",
        options={"primal_feasibility_tolerance": _LP_FEASIBILITY_TOLERANCE},
    )
    if not result.success:
        return FarkasResult(
            proved=False,
            degree=degree,
            failure_reason=f"no degree-{degree} Handelman representation (LP: {result.message})",
        )

    multipliers = np.asarray(result.x, dtype=float)
    reconstruction = Polynomial.zero(polynomial.num_vars)
    for coefficient, product in zip(multipliers, products):
        if coefficient > 0.0:
            reconstruction = reconstruction + coefficient * product
    residual = polynomial + reconstruction  # should be (numerically) zero
    residual_range = polynomial_range(residual, box.to_intervals())
    residual_bound = float(residual_range.hi)
    proved = residual_bound <= tolerance
    return FarkasResult(
        proved=proved,
        multipliers=multipliers,
        products=tuple(products),
        residual_bound=residual_bound,
        degree=degree,
        failure_reason=""
        if proved
        else f"reconstruction residual {residual_bound:.3e} exceeds tolerance {tolerance:.1e}",
    )


def prove_positive_handelman(
    polynomial: Polynomial,
    box: Box,
    degree: int | None = None,
    constraints: Sequence[Polynomial] = (),
    strictness: float = 1e-9,
    tolerance: float = 1e-7,
) -> FarkasResult:
    """Prove ``polynomial(x) > 0`` on the domain by certifying ``strictness − p ≤ 0``."""
    return prove_nonpositive_handelman(
        Polynomial.constant(strictness, polynomial.num_vars) - polynomial,
        box,
        degree=degree,
        constraints=constraints,
        tolerance=tolerance,
    )


@dataclass
class FarkasVerifier:
    """A drop-in prover with the same query shape as the branch-and-bound verifier.

    Each query is answered per box; the proof degree defaults to the query
    polynomial's degree (clamped to ``max_degree`` to bound LP size).

    Handelman representations of a fixed degree are complete only up to a
    positivity margin proportional to the polynomial's variation over the box,
    so a failing box is *bisected* and the halves re-proved, up to
    ``max_subdivisions`` LP solves per query.  Subdivision preserves soundness
    (each half carries its own exact representation) and makes low degrees
    practical: certificates that need degree ≫ 8 on the whole box typically
    close at degree 2 on a handful of halves.
    """

    max_degree: int = 4
    tolerance: float = 1e-7
    strictness: float = 1e-9
    max_subdivisions: int = 256

    def _degree_for(self, polynomial: Polynomial) -> int:
        return int(min(self.max_degree, max(2, polynomial.degree)))

    def _prove_subdivided(self, prover, boxes: Sequence[Box]) -> FarkasResult:
        stack = list(boxes)
        solved = FarkasResult(proved=True, degree=0)
        attempts = 0
        while stack:
            if attempts >= self.max_subdivisions:
                return FarkasResult(
                    proved=False,
                    degree=solved.degree,
                    failure_reason=(
                        f"subdivision budget of {self.max_subdivisions} Handelman LPs "
                        "exhausted before the query was discharged"
                    ),
                )
            box = stack.pop()
            attempts += 1
            result = prover(box)
            if result.proved:
                solved = result
                continue
            if float(np.max(np.asarray(box.widths))) <= 1e-6:
                return result  # resolution limit: report the failing leaf
            left, right = box.split()
            stack.append(left)
            stack.append(right)
        return solved

    def prove_nonpositive(
        self,
        polynomial: Polynomial,
        boxes: Sequence[Box],
        constraints: Sequence[Polynomial] = (),
    ) -> FarkasResult:
        """Prove ``p ≤ 0`` on every box (with optional sub-level-set constraints)."""
        degree = self._degree_for(polynomial)
        return self._prove_subdivided(
            lambda box: prove_nonpositive_handelman(
                polynomial, box, degree=degree, constraints=constraints, tolerance=self.tolerance
            ),
            boxes,
        )

    def prove_positive(
        self,
        polynomial: Polynomial,
        boxes: Sequence[Box],
        constraints: Sequence[Polynomial] = (),
    ) -> FarkasResult:
        """Prove ``p > 0`` on every box (with optional sub-level-set constraints)."""
        degree = self._degree_for(polynomial)
        return self._prove_subdivided(
            lambda box: prove_positive_handelman(
                polynomial,
                box,
                degree=degree,
                constraints=constraints,
                strictness=self.strictness,
                tolerance=self.tolerance,
            ),
            boxes,
        )
