"""Expression AST of the policy programming language (Fig. 5 of the paper).

The grammar is::

    E ::= v | x | ⊕(E1, ..., Ek)          with ⊕ ∈ {+, ×}
    φ ::= E ≤ 0
    P ::= return E | if φ then return E else P

Expressions are polynomial by construction, so every expression can be lowered
to a :class:`repro.polynomials.Polynomial` for verification, while keeping a
syntax tree that can be pretty-printed back as readable policy code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..polynomials import Polynomial

__all__ = ["Expr", "Const", "Var", "Add", "Mul", "affine_expr", "expr_from_polynomial"]


class Expr:
    """Base class for policy-language expressions."""

    def evaluate(self, state: Sequence[float]) -> float:
        raise NotImplementedError

    def evaluate_interpreted(self, state: Sequence[float]) -> float:
        """The pure tree walk: :meth:`evaluate` without compiled kernels.

        Leaves have nothing to compile, so for them this is :meth:`evaluate`;
        composites walk their operands the same way.
        """
        return self.evaluate(state)

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        """Vectorised evaluation over rows of ``states``; shape ``(episodes,)``."""
        raise NotImplementedError

    def to_polynomial(self, num_vars: int) -> Polynomial:
        raise NotImplementedError

    def variables(self) -> Tuple[int, ...]:
        """Indices of variables referenced by the expression (sorted, unique)."""
        raise NotImplementedError

    def pretty(self, names: Sequence[str] | None = None) -> str:
        raise NotImplementedError

    # Operator sugar -----------------------------------------------------
    def __add__(self, other: "Expr | float") -> "Expr":
        return Add((self, _as_expr(other)))

    def __radd__(self, other: "Expr | float") -> "Expr":
        return Add((_as_expr(other), self))

    def __mul__(self, other: "Expr | float") -> "Expr":
        return Mul((self, _as_expr(other)))

    def __rmul__(self, other: "Expr | float") -> "Expr":
        return Mul((_as_expr(other), self))

    def __sub__(self, other: "Expr | float") -> "Expr":
        return Add((self, Mul((Const(-1.0), _as_expr(other)))))

    def __neg__(self) -> "Expr":
        return Mul((Const(-1.0), self))

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.pretty()


def _as_expr(value: "Expr | float | int") -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(float(value))


def _compiled_scalar(expr: Expr, state: Sequence[float]) -> "float | None":
    """Evaluate a composite expression through its compiled kernel.

    Returns ``None`` when the expression cannot be lowered, in which case the
    caller walks the tree (:meth:`Expr.evaluate_interpreted`, also the
    differential reference).  The lowered block is cached on the expression
    instance per variable count, so repeated scalar evaluation — ``repro
    monitor`` and the sequential reference paths — stops paying the per-call
    tree walk.
    """
    from ..compile import LoweringError, lower_exprs

    if not all(math.isfinite(v) for v in state):
        # The polynomial normal form annihilates terms (0*x, x + (-x)) that
        # the tree walk would still evaluate, so kernels are only equivalent
        # to the interpreter on finite states; non-finite inputs take the
        # reference path.
        return None
    num_vars = len(state)
    cache = expr.__dict__.get("_scalar_kernels")
    if cache is None:
        cache = {}
        object.__setattr__(expr, "_scalar_kernels", cache)
    block = cache.get(num_vars, False)
    if block is False:
        try:
            block = lower_exprs([expr], num_vars)
        except LoweringError:
            block = None
        cache[num_vars] = block
    if block is None:
        return None
    return float(block.evaluate_single(state)[0])


@dataclass(frozen=True)
class Const(Expr):
    """A numeric constant ``v``."""

    value: float

    def evaluate(self, state: Sequence[float]) -> float:
        return float(self.value)

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        return np.full(states.shape[0], float(self.value))

    def to_polynomial(self, num_vars: int) -> Polynomial:
        return Polynomial.constant(self.value, num_vars)

    def variables(self) -> Tuple[int, ...]:
        return ()

    def pretty(self, names: Sequence[str] | None = None) -> str:
        return f"{self.value:.6g}"


@dataclass(frozen=True)
class Var(Expr):
    """A state variable ``x_index``."""

    index: int
    name: str | None = None

    def evaluate(self, state: Sequence[float]) -> float:
        return float(state[self.index])

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        return states[:, self.index]

    def to_polynomial(self, num_vars: int) -> Polynomial:
        if self.index >= num_vars:
            raise ValueError(f"variable index {self.index} out of range for {num_vars} vars")
        return Polynomial.variable(self.index, num_vars)

    def variables(self) -> Tuple[int, ...]:
        return (self.index,)

    def pretty(self, names: Sequence[str] | None = None) -> str:
        if names is not None and self.index < len(names):
            return names[self.index]
        if self.name:
            return self.name
        return f"x{self.index}"


@dataclass(frozen=True)
class Add(Expr):
    """N-ary addition ``⊕(+)(E1, ..., Ek)``."""

    operands: Tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 1:
            raise ValueError("Add requires at least one operand")

    def evaluate(self, state: Sequence[float]) -> float:
        compiled = _compiled_scalar(self, state)
        if compiled is not None:
            return compiled
        return self.evaluate_interpreted(state)

    def evaluate_interpreted(self, state: Sequence[float]) -> float:
        return float(sum(op.evaluate_interpreted(state) for op in self.operands))

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        result = self.operands[0].evaluate_batch(states)
        for op in self.operands[1:]:
            result = result + op.evaluate_batch(states)
        return result

    def to_polynomial(self, num_vars: int) -> Polynomial:
        result = Polynomial.zero(num_vars)
        for op in self.operands:
            result = result + op.to_polynomial(num_vars)
        return result

    def variables(self) -> Tuple[int, ...]:
        seen = sorted({v for op in self.operands for v in op.variables()})
        return tuple(seen)

    def pretty(self, names: Sequence[str] | None = None) -> str:
        return "(" + " + ".join(op.pretty(names) for op in self.operands) + ")"


@dataclass(frozen=True)
class Mul(Expr):
    """N-ary multiplication ``⊕(×)(E1, ..., Ek)``."""

    operands: Tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 1:
            raise ValueError("Mul requires at least one operand")

    def evaluate(self, state: Sequence[float]) -> float:
        compiled = _compiled_scalar(self, state)
        if compiled is not None:
            return compiled
        return self.evaluate_interpreted(state)

    def evaluate_interpreted(self, state: Sequence[float]) -> float:
        result = 1.0
        for op in self.operands:
            result *= op.evaluate_interpreted(state)
        return float(result)

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        result = self.operands[0].evaluate_batch(states)
        for op in self.operands[1:]:
            result = result * op.evaluate_batch(states)
        return result

    def to_polynomial(self, num_vars: int) -> Polynomial:
        result = Polynomial.constant(1.0, num_vars)
        for op in self.operands:
            result = result * op.to_polynomial(num_vars)
        return result

    def variables(self) -> Tuple[int, ...]:
        seen = sorted({v for op in self.operands for v in op.variables()})
        return tuple(seen)

    def pretty(self, names: Sequence[str] | None = None) -> str:
        return "(" + " * ".join(op.pretty(names) for op in self.operands) + ")"


def affine_expr(
    coefficients: Sequence[float], intercept: float = 0.0, names: Sequence[str] | None = None
) -> Expr:
    """Build the expression ``c0*x0 + c1*x1 + ... + intercept``."""
    coefficients = np.asarray(coefficients, dtype=float)
    operands = []
    for index, coeff in enumerate(coefficients):
        name = names[index] if names is not None and index < len(names) else None
        operands.append(Mul((Const(float(coeff)), Var(index, name))))
    if intercept or not operands:
        operands.append(Const(float(intercept)))
    if len(operands) == 1:
        return operands[0]
    return Add(tuple(operands))


def expr_from_polynomial(polynomial: Polynomial, names: Sequence[str] | None = None) -> Expr:
    """Lift a polynomial back into the expression AST (sum of products form)."""
    operands = []
    for monomial in polynomial.monomials():
        coeff = polynomial.coefficient(monomial)
        factors: list[Expr] = [Const(coeff)]
        for index, exp in enumerate(monomial.exponents):
            name = names[index] if names is not None and index < len(names) else None
            factors.extend(Var(index, name) for _ in range(exp))
        operands.append(Mul(tuple(factors)) if len(factors) > 1 else factors[0])
    if not operands:
        return Const(0.0)
    if len(operands) == 1:
        return operands[0]
    return Add(tuple(operands))
