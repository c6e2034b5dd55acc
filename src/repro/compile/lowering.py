"""Lowering pass: syntax trees and polynomials → flattened array kernels.

The policy language's expressions, invariant barriers, and the environments'
symbolic rate polynomials are all tiny, fixed straight-line programs.  Instead
of re-walking their syntax trees on every step of every fleet, this module
lowers a *group* of polynomials once into a :class:`PolyBlock`:

* one shared **monomial table** — the union of the non-constant monomials of
  all outputs, in the canonical ``(degree, exponents)`` order the rest of the
  codebase uses — stored as an integer exponent matrix,
* one **coefficient matrix** (``monomials × outputs``) plus an intercept row,
  so evaluating every output at once is a single design-matrix build followed
  by one matmul.

Constant folding happens at lowering time, in two layers:
:func:`~repro.lang.simplify.fold_constants` canonicalises the syntax tree
first (``0 * x`` and ``x + 0`` erased, constant subtrees and scattered scalar
factors collapsed into one leading constant), then
:meth:`~repro.lang.expr.Expr.to_polynomial`'s ring operations merge duplicate
monomials and prune coefficients below tolerance.  The structural pass is not
redundant: without it, the same scalar factors applied in different tree
positions associate differently and the lowered coefficient tables differ in
their last bits — folding first is what makes a pre-simplified program and
its raw form lower to *identical* tables.

Evaluation picks the cheapest plan the block's shape allows:

* **affine** (degree ≤ 1): ``states @ W + b`` — two array ops total,
* **quadratic** (degree ≤ 2): per-output ``(x @ Q) * x`` row sums plus one
  affine term — avoids materialising the design matrix entirely, which is
  what makes high-dimensional quadratic barriers (platoon, oscillator) cheap,
* **generic**: per-variable power chains (``x*x`` instead of ``x ** 2.0``)
  multiplied into design-matrix columns, then one matmul.

Blocks are immutable and shape-checked at construction; they are the unit the
kernel cache stores.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..polynomials import Monomial, Polynomial

__all__ = ["LoweringError", "PolyBlock", "lower_polynomials", "lower_exprs"]


class LoweringError(ValueError):
    """The object cannot be lowered to a polynomial kernel."""


class PolyBlock:
    """``k`` polynomials over ``d`` shared variables as one fused kernel."""

    __slots__ = (
        "num_vars",
        "num_outputs",
        "exponents",
        "coefficients",
        "intercept",
        "degree",
        "_top_exponent",
        "_factor_vars",
        "_affine_weights",
        "_quad_matrices",
    )

    def __init__(
        self,
        num_vars: int,
        exponents: np.ndarray,
        coefficients: np.ndarray,
        intercept: np.ndarray,
    ) -> None:
        self.num_vars = int(num_vars)
        self.exponents = np.asarray(exponents, dtype=np.int64).reshape(-1, self.num_vars)
        count = self.exponents.shape[0]
        self.intercept = np.asarray(intercept, dtype=float).reshape(-1)
        self.num_outputs = self.intercept.shape[0]
        self.coefficients = np.asarray(coefficients, dtype=float).reshape(
            count, self.num_outputs
        )
        self.degree = int(self.exponents.sum(axis=1).max()) if count else 0
        # Evaluation plans, cheapest applicable first --------------------
        self._affine_weights: Optional[np.ndarray] = None
        self._quad_matrices: Optional[List[Tuple[np.ndarray, int]]] = None
        if self.degree <= 1:
            weights = np.zeros((self.num_vars, self.num_outputs))
            for row, expos in enumerate(self.exponents):
                var = int(np.argmax(expos))
                weights[var] += self.coefficients[row]
            self._affine_weights = weights
        elif self.degree == 2:
            self._quad_matrices = self._build_quadratic_plan()
        self._top_exponent = max(int(self.exponents.max()) if count else 0, 1)
        self._factor_vars = tuple(int(var) for var in np.flatnonzero(self.exponents.any(axis=0)))

    # ------------------------------------------------------------ construction
    @staticmethod
    def from_polynomials(polynomials: Sequence[Polynomial]) -> "PolyBlock":
        """Lower a group of polynomials onto one shared monomial table."""
        if not polynomials:
            raise LoweringError("cannot lower an empty polynomial group")
        num_vars = polynomials[0].num_vars
        for poly in polynomials:
            if poly.num_vars != num_vars:
                raise LoweringError("polynomials in a block must share a variable count")
        constant = Monomial.constant(num_vars)
        basis = sorted(
            {m for poly in polynomials for m in poly.terms if not m.is_constant()},
            key=lambda m: (m.degree, m.exponents),
        )
        exponents = (
            np.array([m.exponents for m in basis], dtype=np.int64)
            if basis
            else np.zeros((0, num_vars), dtype=np.int64)
        )
        coefficients = np.zeros((len(basis), len(polynomials)))
        intercept = np.zeros(len(polynomials))
        for out, poly in enumerate(polynomials):
            intercept[out] = poly.coefficient(constant)
            for row, monomial in enumerate(basis):
                coefficients[row, out] = poly.coefficient(monomial)
        if not (np.all(np.isfinite(coefficients)) and np.all(np.isfinite(intercept))):
            # A non-finite coefficient has no polynomial normal form the
            # interpreter agrees with (inf * 0-monomial evaluations differ),
            # so the caller must stay on the interpreted path.
            raise LoweringError("cannot lower polynomials with non-finite coefficients")
        return PolyBlock(num_vars, exponents, coefficients, intercept)

    def _build_quadratic_plan(self) -> List[Tuple[np.ndarray, int]]:
        """Per-output ``(Q, out_index)`` pairs for the degree-2 monomials.

        The affine remainder (degree ≤ 1 monomials + intercept) is folded into
        a shared weight matrix stored in ``_affine_weights`` at evaluation
        time via the same ``states @ W`` product.
        """
        degrees = self.exponents.sum(axis=1)
        weights = np.zeros((self.num_vars, self.num_outputs))
        quads: List[Tuple[np.ndarray, int]] = []
        per_output = [np.zeros((self.num_vars, self.num_vars)) for _ in range(self.num_outputs)]
        used = [False] * self.num_outputs
        for row, expos in enumerate(self.exponents):
            if degrees[row] <= 1:
                var = int(np.argmax(expos))
                weights[var] += self.coefficients[row]
                continue
            nonzero = np.flatnonzero(expos)
            if len(nonzero) == 1:
                i = j = int(nonzero[0])
            else:
                i, j = int(nonzero[0]), int(nonzero[1])
            for out in range(self.num_outputs):
                coeff = self.coefficients[row, out]
                if coeff:
                    per_output[out][i, j] += coeff
                    used[out] = True
        self._affine_weights = weights
        for out in range(self.num_outputs):
            if used[out]:
                quads.append((per_output[out], out))
        return quads

    # -------------------------------------------------------------- evaluation
    def evaluate(self, states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate every output at the rows of ``states``; shape ``(n, k)``.

        ``out`` may supply a preallocated ``(n, k)`` result buffer (a workspace
        array); the return value is always the array holding the result.
        """
        if self.degree <= 1:
            result = np.matmul(states, self._affine_weights, out=out)
            result += self.intercept
            return result
        if self._quad_matrices is not None:
            result = np.matmul(states, self._affine_weights, out=out)
            result += self.intercept
            for matrix, index in self._quad_matrices:
                result[:, index] += np.einsum("ij,ij->i", states @ matrix, states)
            return result
        design = self._design_matrix(states)
        result = np.matmul(design, self.coefficients, out=out)
        result += self.intercept
        return result

    def _design_matrix(self, states: np.ndarray) -> np.ndarray:
        """The ``(n, monomials)`` matrix of monomial values at ``states``.

        A power table ``P[:, v, e] = x_v^e`` is filled by the multiplication
        chain ``x^(e-1) * x`` from ``P[:, v, 0] = 1.0``, never through float
        ``**``.  Each used variable then contributes one gathered
        ``(n, monomials)`` factor, multiplied in variable order.  A factor of
        1.0 is exact, so every column is the product of its powers in variable
        order, as a per-monomial fold would compute it.
        """
        count = states.shape[0]
        top = self._top_exponent
        powers = np.empty((count, self.num_vars, top + 1), dtype=states.dtype)
        powers[:, :, 0] = 1.0
        powers[:, :, 1] = states
        for exp in range(2, top + 1):
            np.multiply(powers[:, :, exp - 1], states, out=powers[:, :, exp])
        first, *rest = self._factor_vars
        design = powers[:, first, self.exponents[:, first]]
        for var in rest:
            design *= powers[:, var, self.exponents[:, var]]
        # Products run in the states' precision; the matrix is float64.
        return design.astype(float, copy=False)

    def evaluate_single(self, state: Sequence[float]) -> np.ndarray:
        """Evaluate at one state, returning the ``(k,)`` output vector."""
        state = np.asarray(state, dtype=float).reshape(1, self.num_vars)
        return self.evaluate(state)[0]

    # ------------------------------------------------------------------ output
    def table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The lowered ``(exponents, coefficients, intercept)`` tables.

        This is the canonical flattened form the constant-folding tests compare:
        two programs lower to identical tables iff they denote the same
        polynomial function.
        """
        return self.exponents, self.coefficients, self.intercept

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PolyBlock(vars={self.num_vars}, outputs={self.num_outputs}, "
            f"monomials={self.exponents.shape[0]}, degree={self.degree})"
        )


def lower_polynomials(polynomials: Sequence[Polynomial]) -> PolyBlock:
    """Public alias of :meth:`PolyBlock.from_polynomials`."""
    return PolyBlock.from_polynomials(polynomials)


def lower_exprs(exprs: Sequence, num_vars: int) -> PolyBlock:
    """Lower policy-language expressions to one block.

    Constant folding runs first (:func:`repro.lang.simplify.fold_constants`),
    so ``x + 0`` / ``1 * x`` / constant subtrees are erased structurally and a
    pre-folded expression lowers to coefficient tables *identical* to its raw
    form — the canonicalisation the constant-folding tests pin down.

    Expressions containing non-finite constants are refused: the polynomial
    ring silently drops ``nan`` coefficients (``abs(nan) > tol`` is false), so
    lowering ``nan + x`` would evaluate to ``x`` where the interpreter
    correctly propagates ``nan``.  Raising keeps such expressions on the
    interpreted path.
    """
    from ..lang.simplify import fold_constants

    for expr in exprs:
        _check_finite_constants(expr)
    try:
        polynomials = [fold_constants(expr).to_polynomial(num_vars) for expr in exprs]
    except (ValueError, TypeError, AttributeError) as error:
        raise LoweringError(f"expressions are not lowerable: {error}") from error
    return PolyBlock.from_polynomials(polynomials)


def _check_finite_constants(expr) -> None:
    """Raise :class:`LoweringError` if any constant in the tree is non-finite."""
    value = getattr(expr, "value", None)
    if value is not None and not np.isfinite(value):
        raise LoweringError(f"expression contains non-finite constant {value!r}")
    for operand in getattr(expr, "operands", ()):
        _check_finite_constants(operand)
