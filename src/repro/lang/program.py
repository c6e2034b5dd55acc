"""Deterministic policy programs (the ``P`` production of Fig. 5).

A policy program maps an ``n``-dimensional environment state to an
``m``-dimensional control action.  The paper's synthesized programs have the
shape::

    def P(s):
        if phi_1(s): return P_1(s)
        elif phi_2(s): return P_2(s)
        ...
        else: abort    # provably unreachable from S0

where each ``P_i`` is drawn from a sketch (by default affine) and each ``phi_i``
is the inductive invariant verified for ``P_i`` (Theorem 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..polynomials import Polynomial
from .expr import Expr, affine_expr
from .invariant import Invariant, InvariantUnion, TrueInvariant

__all__ = [
    "PolicyProgram",
    "AffineProgram",
    "ExprProgram",
    "GuardedProgram",
    "UnreachableBranchError",
]


class UnreachableBranchError(RuntimeError):
    """Raised when a guarded program is evaluated outside all of its invariants.

    Corresponds to the ``abort`` branch in the paper's synthesized programs; by
    Theorem 4.2 this cannot happen for states reachable from ``S0``.
    """


class PolicyProgram:
    """Base class: a deterministic map from state to action."""

    state_dim: int
    action_dim: int

    def act(self, state: Sequence[float]) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, state: Sequence[float]) -> np.ndarray:
        return self.act(state)

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        return np.stack([self.act(s) for s in states], axis=0)

    def to_polynomials(self) -> Tuple[Polynomial, ...]:
        """Lower each action coordinate to a polynomial in the state variables."""
        raise NotImplementedError

    def pretty(self, names: Sequence[str] | None = None) -> str:
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - delegation
        return self.pretty()


@dataclass
class AffineProgram(PolicyProgram):
    """``return K s + b`` — the default (linear) sketch instantiation, eq. (4).

    ``gain`` has shape ``(action_dim, state_dim)``; ``bias`` has shape
    ``(action_dim,)``.  Optional box bounds clip the produced action, modelling
    actuator saturation (used by the bounded-action ablation in §5).
    """

    gain: np.ndarray
    bias: np.ndarray | None = None
    action_low: np.ndarray | None = None
    action_high: np.ndarray | None = None
    names: Tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self.gain = np.atleast_2d(np.asarray(self.gain, dtype=float))
        self.action_dim, self.state_dim = self.gain.shape
        if self.bias is None:
            self.bias = np.zeros(self.action_dim)
        else:
            self.bias = np.asarray(self.bias, dtype=float).reshape(self.action_dim)
        if self.action_low is not None:
            self.action_low = np.asarray(self.action_low, dtype=float).reshape(self.action_dim)
        if self.action_high is not None:
            self.action_high = np.asarray(self.action_high, dtype=float).reshape(self.action_dim)

    def act(self, state: Sequence[float]) -> np.ndarray:
        state = np.asarray(state, dtype=float).reshape(self.state_dim)
        action = self.gain @ state + self.bias
        if self.action_low is not None:
            action = np.maximum(action, self.action_low)
        if self.action_high is not None:
            action = np.minimum(action, self.action_high)
        return action

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        actions = states @ self.gain.T + self.bias
        if self.action_low is not None:
            actions = np.maximum(actions, self.action_low)
        if self.action_high is not None:
            actions = np.minimum(actions, self.action_high)
        return actions

    @property
    def parameters(self) -> np.ndarray:
        """Flat parameter vector θ = [gain.ravel(), bias]."""
        return np.concatenate([self.gain.ravel(), self.bias])

    def with_parameters(self, theta: np.ndarray) -> "AffineProgram":
        theta = np.asarray(theta, dtype=float)
        expected = self.action_dim * self.state_dim + self.action_dim
        if theta.size != expected:
            raise ValueError(f"expected {expected} parameters, got {theta.size}")
        gain = theta[: self.action_dim * self.state_dim].reshape(self.action_dim, self.state_dim)
        bias = theta[self.action_dim * self.state_dim:]
        return AffineProgram(
            gain=gain,
            bias=bias,
            action_low=self.action_low,
            action_high=self.action_high,
            names=self.names,
        )

    def to_polynomials(self) -> Tuple[Polynomial, ...]:
        return tuple(
            Polynomial.affine(self.gain[i], self.bias[i], self.state_dim)
            for i in range(self.action_dim)
        )

    def pretty(self, names: Sequence[str] | None = None) -> str:
        names = names or self.names
        rows = [affine_expr(self.gain[i], self.bias[i], names).pretty(names)
                for i in range(self.action_dim)]
        if len(rows) == 1:
            return f"return {rows[0]}"
        return "return (" + ", ".join(rows) + ")"


@dataclass
class ExprProgram(PolicyProgram):
    """``return (E_1(s), ..., E_m(s))`` for arbitrary polynomial expressions."""

    exprs: Tuple[Expr, ...]
    state_dim: int
    names: Tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        self.exprs = tuple(self.exprs)
        if not self.exprs:
            raise ValueError("ExprProgram needs at least one output expression")
        self.action_dim = len(self.exprs)

    def act(self, state: Sequence[float]) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        return np.array([expr.evaluate(state) for expr in self.exprs])

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        return np.stack([expr.evaluate_batch(states) for expr in self.exprs], axis=1)

    def to_polynomials(self) -> Tuple[Polynomial, ...]:
        return tuple(expr.to_polynomial(self.state_dim) for expr in self.exprs)

    def pretty(self, names: Sequence[str] | None = None) -> str:
        names = names or self.names
        rows = [expr.pretty(names) for expr in self.exprs]
        if len(rows) == 1:
            return f"return {rows[0]}"
        return "return (" + ", ".join(rows) + ")"


@dataclass
class GuardedProgram(PolicyProgram):
    """The CEGIS output: an if/elif chain of (invariant, program) branches.

    Evaluating a state walks the branches in order and runs the first branch
    whose invariant holds.  Outside every invariant the program either falls
    back to ``fallback`` (if given) or raises :class:`UnreachableBranchError`,
    mirroring the ``abort`` in the paper's synthesized code.
    """

    branches: List[Tuple[Invariant, PolicyProgram]] = field(default_factory=list)
    fallback: PolicyProgram | None = None
    names: Tuple[str, ...] | None = None
    #: With ``strict=True`` evaluating a state outside every invariant raises
    #: :class:`UnreachableBranchError` (the paper's ``abort``).  The default is
    #: lenient: such states — which by Theorem 4.2 are unreachable from S0, but
    #: can be handed to the program directly by a caller — are served by the
    #: branch whose barrier value is smallest (the "closest" verified region).
    strict: bool = False

    def __post_init__(self) -> None:
        if not self.branches and self.fallback is None:
            raise ValueError("GuardedProgram needs at least one branch or a fallback")
        reference = self.branches[0][1] if self.branches else self.fallback
        self.state_dim = reference.state_dim
        self.action_dim = reference.action_dim
        for _, program in self.branches:
            if program.state_dim != self.state_dim or program.action_dim != self.action_dim:
                raise ValueError("all branches must share state/action dimensions")

    # ------------------------------------------------------------ queries
    @property
    def invariant(self) -> InvariantUnion:
        """The disjunction of branch invariants (Theorem 4.2)."""
        return InvariantUnion([inv for inv, _ in self.branches])

    def branch_index(self, state: Sequence[float]) -> int:
        for index, (invariant, _) in enumerate(self.branches):
            if invariant.holds(state):
                return index
        return -1

    def act(self, state: Sequence[float]) -> np.ndarray:
        kernel = self._scalar_kernel()
        if kernel is not None:
            row = np.asarray(state, dtype=float).reshape(1, self.state_dim)
            return kernel.act(row)[0]
        return self.act_interpreted(state)

    def act_interpreted(self, state: Sequence[float]) -> np.ndarray:
        """The pure tree-walking reference for :meth:`act` (always available)."""
        index = self.branch_index(state)
        if index >= 0:
            return self.branches[index][1].act(state)
        if self.fallback is not None:
            return self.fallback.act(state)
        if not self.strict and self.branches:
            values = [invariant.value(state) for invariant, _ in self.branches]
            return self.branches[int(np.argmin(values))][1].act(state)
        raise UnreachableBranchError(
            "state lies outside every branch invariant (the 'abort' branch)"
        )

    def _scalar_kernel(self):
        """The cached compiled kernel serving single-state :meth:`act` calls.

        Recompiled if the branch list grew (CEGIS assembles programs
        incrementally); ``None`` routes back to the interpreter when a branch
        refuses to lower.
        """
        from ..compile import compiled_program_for

        cached = self.__dict__.get("_scalar_kernel_entry")
        if cached is not None and cached[0] == len(self.branches):
            return cached[1]
        kernel = compiled_program_for(self)
        self.__dict__["_scalar_kernel_entry"] = (len(self.branches), kernel)
        return kernel

    def act_batch(self, states: np.ndarray) -> np.ndarray:
        """Vectorised guard dispatch: first-satisfied branch per row.

        Matches :meth:`act` row-for-row, including the lenient closest-branch
        selection (smallest barrier value) for states outside every invariant.
        """
        states = np.atleast_2d(np.asarray(states, dtype=float))
        count = states.shape[0]
        actions = np.zeros((count, self.action_dim))
        assigned = np.zeros(count, dtype=bool)
        for invariant, program in self.branches:
            mask = ~assigned & np.asarray(invariant.holds_batch(states), dtype=bool)
            if mask.any():
                actions[mask] = program.act_batch(states[mask])
                assigned |= mask
        rest = ~assigned
        if not rest.any():
            return actions
        if self.fallback is not None:
            actions[rest] = self.fallback.act_batch(states[rest])
            return actions
        if not self.strict and self.branches:
            values = np.stack(
                [invariant.value_batch(states[rest]) for invariant, _ in self.branches]
            )
            picks = np.argmin(values, axis=0)
            rest_indices = np.flatnonzero(rest)
            for branch_id, (_, program) in enumerate(self.branches):
                chosen = rest_indices[picks == branch_id]
                if chosen.size:
                    actions[chosen] = program.act_batch(states[chosen])
            return actions
        raise UnreachableBranchError(
            "a state lies outside every branch invariant (the 'abort' branch)"
        )

    def to_polynomials(self) -> Tuple[Polynomial, ...]:
        if len(self.branches) == 1:
            return self.branches[0][1].to_polynomials()
        raise ValueError("a multi-branch guarded program is piecewise polynomial, "
                         "lower each branch separately")

    # -------------------------------------------------------------- output
    def pretty(self, names: Sequence[str] | None = None) -> str:
        names = names or self.names
        arg_list = ", ".join(names) if names else "s"
        lines = [f"def P({arg_list}):"]
        for position, (invariant, program) in enumerate(self.branches):
            keyword = "if" if position == 0 else "elif"
            if isinstance(invariant, TrueInvariant):
                lines.append(f"    {keyword} True:")
            else:
                lines.append(f"    {keyword} {invariant.pretty()}:")
            lines.append(f"        {program.pretty(names)}")
        if self.fallback is not None:
            lines.append("    else:")
            lines.append(f"        {self.fallback.pretty(names)}")
        else:
            lines.append("    else: abort  # unreachable from S0 (Theorem 4.2)")
        return "\n".join(lines)
