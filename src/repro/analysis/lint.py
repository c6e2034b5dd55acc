"""The artifact linter: coded static diagnostics over shield artifacts.

``analyze_program`` / ``analyze_artifact`` run every applicable ``A00x``
check (see :mod:`repro.analysis.diagnostics` for the code table) and return
an :class:`AnalysisReport`.  Checks degrade gracefully with available
context: with an environment every check runs against its boxes and
dimensions; with only a box the reachability checks still run; with neither,
the structural checks (dimensions, coefficient hygiene) still apply.

All "provably" verdicts are backed by the interval abstract domain in
:mod:`repro.analysis.interval_eval` and are therefore sound: a dead-branch
or action-bound finding can never be contradicted by a concrete execution —
the ``analysis`` fuzz property family checks exactly this differential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..certificates.regions import Box
from ..compile.lowering import LoweringError, PolyBlock, lower_polynomials
from ..lang.expr import Add, Const, Expr, Mul, Var
from ..lang.invariant import Invariant, InvariantUnion
from ..lang.program import AffineProgram, ExprProgram, GuardedProgram
from ..polynomials import Interval, monomial_range
from .diagnostics import AnalysisReport
from .interval_eval import (
    box_to_intervals,
    invariant_interval,
    program_output_intervals,
)

__all__ = [
    "AnalysisConfig",
    "DEFAULT_CONFIG",
    "analyze_program",
    "analyze_invariant",
    "analyze_artifact",
    "lint_store",
]


@dataclass(frozen=True)
class AnalysisConfig:
    """Tunable thresholds of the static analyzer."""

    #: max|coeff| / min nonzero |coeff| beyond which A006 flags conditioning.
    condition_spread: float = 1e12
    #: polynomial degree beyond which A006 flags degree blow-up.
    degree_limit: int = 8
    #: absolute float-error bound beyond which A007 flags a lowering plan.
    float_error_tolerance: float = 1e-6
    #: concrete samples drawn for the A004 coverage check.
    coverage_samples: int = 64
    #: RNG seed of the coverage sampler (deterministic reports).
    coverage_seed: int = 0


DEFAULT_CONFIG = AnalysisConfig()


# --------------------------------------------------------------------------
# coefficient hygiene (A006) helpers
# --------------------------------------------------------------------------

def _expr_constants(expr: Expr) -> List[float]:
    if isinstance(expr, Const):
        return [float(expr.value)]
    if isinstance(expr, Var):
        return []
    if isinstance(expr, (Add, Mul)):
        values: List[float] = []
        for operand in expr.operands:
            values.extend(_expr_constants(operand))
        return values
    return []


def _expr_degree(expr: Expr) -> int:
    if isinstance(expr, Const):
        return 0
    if isinstance(expr, Var):
        return 1
    if isinstance(expr, Add):
        return max((_expr_degree(op) for op in expr.operands), default=0)
    if isinstance(expr, Mul):
        return sum(_expr_degree(op) for op in expr.operands)
    return 0


def _coefficient_groups(program) -> Iterable[Tuple[str, List[float], int]]:
    """Yield ``(location, coefficients, degree)`` groups for A006."""
    if isinstance(program, AffineProgram):
        for i in range(program.action_dim):
            coeffs = [float(v) for v in program.gain[i]] + [float(program.bias[i])]
            yield f"outputs[{i}]", coeffs, 1
    elif isinstance(program, ExprProgram):
        for i, expr in enumerate(program.exprs):
            yield f"outputs[{i}]", _expr_constants(expr), _expr_degree(expr)
    elif isinstance(program, GuardedProgram):
        for b, (guard, piece) in enumerate(program.branches):
            yield (
                f"branches[{b}].guard",
                [float(c) for c in guard.barrier.terms.values()] + [float(guard.margin)],
                guard.barrier.degree,
            )
            for location, coeffs, degree in _coefficient_groups(piece):
                yield f"branches[{b}].{location}", coeffs, degree
        if program.fallback is not None:
            for location, coeffs, degree in _coefficient_groups(program.fallback):
                yield f"fallback.{location}", coeffs, degree
    elif isinstance(program, PolyBlock):
        coeffs = [float(v) for v in program.coefficients.ravel()]
        coeffs.extend(float(v) for v in program.intercept.ravel())
        yield "block", coeffs, program.degree
    else:
        to_polys = getattr(program, "to_polynomials", None)
        if to_polys is not None:
            for i, poly in enumerate(to_polys()):
                yield (
                    f"outputs[{i}]",
                    [float(c) for c in poly.terms.values()],
                    poly.degree,
                )


def _check_coefficients(program, report: AnalysisReport, config: AnalysisConfig) -> None:
    for location, coeffs, degree in _coefficient_groups(program):
        bad = [c for c in coeffs if not math.isfinite(c)]
        if bad:
            report.add(
                "error",
                "A006",
                location,
                f"non-finite coefficient(s) {sorted(set(map(str, bad)))}",
            )
            continue
        magnitudes = [abs(c) for c in coeffs if c != 0.0]
        if magnitudes:
            spread = max(magnitudes) / min(magnitudes)
            if spread > config.condition_spread:
                report.add(
                    "warning",
                    "A006",
                    location,
                    f"coefficient magnitude spread {spread:.3g} exceeds "
                    f"{config.condition_spread:.3g}",
                    spread=spread,
                )
        if degree > config.degree_limit:
            report.add(
                "warning",
                "A006",
                location,
                f"degree {degree} exceeds limit {config.degree_limit}",
                degree=degree,
            )


def _expr_var_bound(expr: Expr) -> int:
    variables = expr.variables()
    return max(variables) + 1 if variables else 0


# --------------------------------------------------------------------------
# dimension checks (A005)
# --------------------------------------------------------------------------

def _check_dimensions(program, env, report: AnalysisReport) -> None:
    state_dim = getattr(program, "state_dim", None)
    if state_dim is None and isinstance(program, PolyBlock):
        state_dim = program.num_vars
    if env is not None and state_dim is not None and state_dim != env.state_dim:
        report.add(
            "error",
            "A005",
            "program",
            f"program state_dim {state_dim} != environment state_dim {env.state_dim}",
        )
    action_dim = getattr(program, "action_dim", None)
    if env is not None and action_dim is not None and action_dim != env.action_dim:
        report.add(
            "error",
            "A005",
            "program",
            f"program action_dim {action_dim} != environment action_dim {env.action_dim}",
        )
    # Variable indices must stay inside the declared state dimension.
    if isinstance(program, ExprProgram):
        for i, expr in enumerate(program.exprs):
            bound = _expr_var_bound(expr)
            if state_dim is not None and bound > state_dim:
                report.add(
                    "error",
                    "A005",
                    f"outputs[{i}]",
                    f"expression references x{bound - 1} but state_dim is {state_dim}",
                )
    elif isinstance(program, GuardedProgram):
        for b, (guard, piece) in enumerate(program.branches):
            if guard.num_vars != program.state_dim:
                report.add(
                    "error",
                    "A005",
                    f"branches[{b}].guard",
                    f"guard num_vars {guard.num_vars} != program state_dim "
                    f"{program.state_dim}",
                )
        # Branch piece dims are enforced by GuardedProgram.__post_init__;
        # recurse only for expression var bounds.
        for b, (_guard, piece) in enumerate(program.branches):
            if isinstance(piece, ExprProgram):
                for i, expr in enumerate(piece.exprs):
                    bound = _expr_var_bound(expr)
                    if bound > piece.state_dim:
                        report.add(
                            "error",
                            "A005",
                            f"branches[{b}].outputs[{i}]",
                            f"expression references x{bound - 1} but state_dim is "
                            f"{piece.state_dim}",
                        )


# --------------------------------------------------------------------------
# guard reachability (A002 / A003 / A004)
# --------------------------------------------------------------------------

def _guard_verdicts(
    program: GuardedProgram, box: Sequence[Interval]
) -> List[Tuple[int, Interval]]:
    return [
        (index, invariant_interval(guard, box))
        for index, (guard, _piece) in enumerate(program.branches)
    ]


def _check_guards(
    program: GuardedProgram,
    reach: Sequence[Interval],
    report: AnalysisReport,
) -> List[int]:
    """Report A002/A003; returns the indices of provably dead branches."""
    dead: List[int] = []
    shadowing: Optional[int] = None
    for index, bound in _guard_verdicts(program, reach):
        if bound.lo > 0.0:
            dead.append(index)
            report.add(
                "warning",
                "A002",
                f"branches[{index}].guard",
                f"guard provably unsatisfiable over the reachable box "
                f"(barrier - margin in [{bound.lo:.4g}, {bound.hi:.4g}])",
                branch=index,
            )
        elif shadowing is not None:
            dead.append(index)
            report.add(
                "warning",
                "A002",
                f"branches[{index}].guard",
                f"branch shadowed: guard of branch {shadowing} provably always "
                f"holds over the reachable box",
                branch=index,
                shadowed_by=shadowing,
            )
        if shadowing is None and bound.hi <= 0.0:
            shadowing = index
    if program.fallback is not None and shadowing is not None:
        report.add(
            "warning",
            "A003",
            "fallback",
            f"fallback unreachable: guard of branch {shadowing} provably always "
            f"holds over the reachable box",
            shadowed_by=shadowing,
        )
    return dead


def _check_coverage(
    program: GuardedProgram,
    init: Box,
    report: AnalysisReport,
    config: AnalysisConfig,
) -> None:
    if not program.strict or program.fallback is not None:
        return
    init_intervals = box_to_intervals(init)
    bounds = _guard_verdicts(program, init_intervals)
    if bounds and all(bound.lo > 0.0 for _index, bound in bounds):
        report.add(
            "error",
            "A004",
            "program",
            "every guard is provably unsatisfiable over the init box; strict "
            "dispatch always raises UnreachableBranchError",
        )
        return
    rng = np.random.default_rng(config.coverage_seed)
    states = init.sample(rng, config.coverage_samples)
    for state in states:
        if program.branch_index(state) < 0:
            report.add(
                "error",
                "A004",
                "program",
                "strict dispatch raises UnreachableBranchError on a sampled "
                "init state (no guard holds, no fallback)",
                witness=state,
            )
            return


# --------------------------------------------------------------------------
# action bounds (A001) and lowering error (A007)
# --------------------------------------------------------------------------

def _check_action_bounds(
    program,
    init: Sequence[Interval],
    env,
    report: AnalysisReport,
    dead_branches: Sequence[int] = (),
) -> None:
    if env is None or env.action_low is None or env.action_high is None:
        return
    if isinstance(program, GuardedProgram):
        for index, (_guard, piece) in enumerate(program.branches):
            if index in dead_branches:
                continue  # a provably-dead branch can never emit an action
            _report_bound_violations(
                piece, init, env, report, location=f"branches[{index}]"
            )
        if program.fallback is not None:
            _report_bound_violations(
                program.fallback, init, env, report, location="fallback"
            )
        return
    _report_bound_violations(program, init, env, report, location="program")


def _report_bound_violations(
    piece, init: Sequence[Interval], env, report: AnalysisReport, location: str
) -> None:
    try:
        outputs = program_output_intervals(piece, init)
    except (ValueError, TypeError):
        return
    for coord, bound in enumerate(outputs):
        low = float(env.action_low[coord])
        high = float(env.action_high[coord])
        if bound.lo > high or bound.hi < low:
            report.add(
                "error",
                "A001",
                f"{location}.outputs[{coord}]",
                f"action provably outside the action space: output in "
                f"[{bound.lo:.4g}, {bound.hi:.4g}] vs bounds [{low:.4g}, {high:.4g}]",
                coordinate=coord,
            )


def _lowering_error_bound(block: PolyBlock, box: Sequence[Interval]) -> float:
    """Heuristic outer bound on the float rounding error of one block row.

    ``eps * terms * sum_m |c_m| * max|m(x)|`` over the box — a coarse
    forward-error model of the fused monomial-table evaluation; A007 only
    compares it against a tolerance, so coarseness errs toward reporting.
    """
    eps = float(np.finfo(float).eps)
    worst = 0.0
    from ..polynomials import Monomial

    mono_bounds = []
    for expos in block.exponents:
        monomial = Monomial(tuple(int(e) for e in expos))
        bound = monomial_range(monomial, list(box))
        mono_bounds.append(max(abs(bound.lo), abs(bound.hi)))
    for out in range(block.num_outputs):
        total = abs(float(block.intercept[out]))
        terms = 1
        for row, magnitude in enumerate(mono_bounds):
            coeff = abs(float(block.coefficients[row, out]))
            if coeff:
                total += coeff * magnitude
                terms += 1
        worst = max(worst, eps * terms * total)
    return worst


def _check_lowering_error(
    program,
    reach: Sequence[Interval],
    report: AnalysisReport,
    config: AnalysisConfig,
) -> None:
    pieces: List[Tuple[str, object]] = []
    if isinstance(program, GuardedProgram):
        for index, (_guard, piece) in enumerate(program.branches):
            pieces.append((f"branches[{index}]", piece))
        if program.fallback is not None:
            pieces.append(("fallback", program.fallback))
    else:
        pieces.append(("program", program))
    for location, piece in pieces:
        if isinstance(piece, PolyBlock):
            block = piece
        else:
            to_polys = getattr(piece, "to_polynomials", None)
            if to_polys is None:
                continue
            try:
                block = lower_polynomials(list(to_polys()))
            except (LoweringError, ValueError):
                continue
        if block.num_vars != len(reach):
            continue
        bound = _lowering_error_bound(block, reach)
        if bound > config.float_error_tolerance:
            report.add(
                "warning",
                "A007",
                location,
                f"lowering-plan float-error bound {bound:.3g} exceeds tolerance "
                f"{config.float_error_tolerance:.3g}",
                bound=bound,
            )


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def _region_box(region) -> Optional[Box]:
    if isinstance(region, Box):
        return region
    cover = getattr(region, "cover_boxes", None)
    if cover is None:
        return None
    boxes = cover()
    if not boxes:
        return None
    low = [min(b.low[i] for b in boxes) for i in range(boxes[0].dim)]
    high = [max(b.high[i] for b in boxes) for i in range(boxes[0].dim)]
    return Box(tuple(low), tuple(high))


def analyze_program(
    program,
    env=None,
    init_box: Optional[Box] = None,
    reach_box: Optional[Box] = None,
    config: Optional[AnalysisConfig] = None,
    subject: str = "program",
) -> AnalysisReport:
    """Run every applicable static check over one policy program."""
    config = config or DEFAULT_CONFIG
    report = AnalysisReport(subject=subject)
    if env is not None:
        from ..store.verdicts import environment_fingerprint

        try:
            report.environment_fingerprint = environment_fingerprint(env)
        except Exception:
            report.environment_fingerprint = None
    _check_dimensions(program, env, report)
    _check_coefficients(program, report, config)
    if not report.ok:
        # Interval evaluation over a malformed program would raise; the
        # structural errors already justify rejection.
        return report

    if init_box is None and env is not None:
        init_box = _region_box(env.init_region)
    if reach_box is None:
        reach_box = env.domain if env is not None else init_box
    if init_box is None or reach_box is None:
        return report

    init_intervals = box_to_intervals(init_box)
    reach_intervals = box_to_intervals(reach_box)

    dead: List[int] = []
    if isinstance(program, GuardedProgram):
        dead = _check_guards(program, reach_intervals, report)
        _check_coverage(program, init_box, report, config)
    _check_action_bounds(program, init_intervals, env, report, dead_branches=dead)
    _check_lowering_error(program, reach_intervals, report, config)
    return report


def analyze_invariant(
    invariant: Invariant,
    state_dim: Optional[int] = None,
    config: Optional[AnalysisConfig] = None,
    location: str = "invariant",
) -> AnalysisReport:
    """Structural checks (A005/A006) over one invariant."""
    config = config or DEFAULT_CONFIG
    report = AnalysisReport(subject=location)
    if state_dim is not None and invariant.num_vars != state_dim:
        report.add(
            "error",
            "A005",
            location,
            f"invariant num_vars {invariant.num_vars} != state_dim {state_dim}",
        )
    coeffs = [float(c) for c in invariant.barrier.terms.values()] + [
        float(invariant.margin)
    ]
    bad = [c for c in coeffs if not math.isfinite(c)]
    if bad:
        report.add(
            "error", "A006", location, f"non-finite coefficient(s) {sorted(set(map(str, bad)))}"
        )
    else:
        magnitudes = [abs(c) for c in coeffs if c != 0.0]
        if magnitudes and max(magnitudes) / min(magnitudes) > config.condition_spread:
            report.add(
                "warning",
                "A006",
                location,
                f"coefficient magnitude spread {max(magnitudes) / min(magnitudes):.3g} "
                f"exceeds {config.condition_spread:.3g}",
            )
        if invariant.barrier.degree > config.degree_limit:
            report.add(
                "warning",
                "A006",
                location,
                f"degree {invariant.barrier.degree} exceeds limit {config.degree_limit}",
            )
    return report


def analyze_artifact(
    artifact,
    env=None,
    config: Optional[AnalysisConfig] = None,
    subject: Optional[str] = None,
) -> AnalysisReport:
    """Run the full static analysis over one stored shield artifact.

    Without ``env``, an artifact that records a registry environment is
    checked against that environment, rebuilt with its recorded overrides;
    one whose overrides do not rebuild it gets an A008 error.  An artifact
    naming no registry environment gets the env-free checks only.
    """
    from ..envs import BENCHMARKS
    from ..store.service import InputError, load_environment

    config = config or DEFAULT_CONFIG
    rebuild_error = None
    if env is None and artifact.environment in BENCHMARKS:
        try:
            env = load_environment(artifact.environment, artifact.environment_overrides)
        except InputError as error:
            rebuild_error = str(error)
    if subject is None:
        subject = artifact.environment or "artifact"
    report = analyze_program(
        artifact.program, env=env, config=config, subject=subject
    )
    if rebuild_error is not None:
        report.add("error", "A008", "environment", rebuild_error)
    state_dim = env.state_dim if env is not None else getattr(
        artifact.program, "state_dim", None
    )
    invariant = artifact.invariant
    members = list(invariant.members) if isinstance(invariant, InvariantUnion) else [invariant]
    for index, member in enumerate(members):
        report.extend(
            analyze_invariant(
                member,
                state_dim=state_dim,
                config=config,
                location=f"invariant[{index}]",
            )
        )
    return report


def lint_store(
    store,
    keys: Optional[Sequence[str]] = None,
    environment: Optional[str] = None,
    config: Optional[AnalysisConfig] = None,
):
    """Lint stored artifacts; returns ``[(entry, report), ...]``.

    ``keys`` selects artifacts by key or unique prefix; ``environment``
    filters the whole store by registry environment; with neither, every
    stored artifact is linted.  Store-level failures (unknown prefix,
    corrupt object) propagate as :class:`~repro.store.StoreError`.
    """
    if keys:
        entries = [store.get_entry(key) for key in keys]
    else:
        entries = store.list()
        if environment is not None:
            entries = [e for e in entries if e.environment == environment]
    results = []
    for entry in entries:
        artifact = store.get(entry.key)
        label = f"{entry.short_key} ({entry.environment or 'no env'})"
        results.append(
            (entry, analyze_artifact(artifact, config=config, subject=label))
        )
    return results
