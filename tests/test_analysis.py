"""Tests for the abstract-interpretation shield analyzer (repro.analysis).

Covers the interval evaluator (soundness on hand-checked programs), every
diagnostic code A001-A007 with a positive and a negative case, the static
CEGIS pre-filter (bit-identity of results with the filter on and off), the
store validation gate, and the ``repro lint`` CLI (exit codes, prefix
resolution, severity filtering).
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.analysis import (
    AnalysisConfig,
    AnalysisReport,
    DIAGNOSTIC_CODES,
    Diagnostic,
    analyze_artifact,
    analyze_invariant,
    analyze_program,
    clip_interval,
    expr_interval,
    invariant_interval,
    lint_store,
    program_output_intervals,
    statically_refuted,
)
from repro.baselines import make_lqr_policy
from repro.certificates.regions import Box
from repro.cli import main
from repro.core import CEGISConfig, CEGISLoop, SynthesisConfig
from repro.envs import make_environment
from repro.lang import (
    Add,
    AffineProgram,
    Const,
    ExprProgram,
    GuardedProgram,
    Invariant,
    InvariantUnion,
    Mul,
    ShieldArtifact,
    Var,
    program_to_dict,
)
from repro.polynomials import Interval, Polynomial
from repro.store import ShieldStore, StoreError, SynthesisService


UNIT_BOX = Box(low=(-1.0, -1.0), high=(1.0, 1.0))


def ball_guard(radius_sq: float, center: float = 0.0, dim: int = 2) -> Invariant:
    """Invariant satisfied on the ball ``|x - center|^2 <= radius_sq``."""
    barrier = Polynomial.quadratic_form(np.eye(dim), center=[center] * dim)
    return Invariant(barrier=barrier - radius_sq)


# --------------------------------------------------------------- diagnostics
class TestDiagnostics:
    def test_codes_are_documented(self):
        assert set(DIAGNOSTIC_CODES) == {f"A00{i}" for i in range(1, 8)}

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(severity="fatal", code="A001", location="x", message="m")

    def test_invalid_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(severity="error", code="A999", location="x", message="m")

    def test_report_accessors_and_serialization(self):
        report = AnalysisReport(subject="s")
        assert report.ok and report.clean
        report.add("warning", "A006", "outputs[0]", "spread", spread=1e13)
        report.add("error", "A001", "program", "out of bounds", witness=(0.0, 1.0))
        assert not report.ok and not report.clean
        assert report.codes() == ["A001", "A006"]
        assert len(report.select(code="A001")) == 1
        assert len(report.select(severity="warning")) == 1
        payload = report.to_dict()
        assert payload["subject"] == "s"
        assert payload["diagnostics"][0]["code"] in ("A001", "A006")
        assert "A001" in report.pretty()
        assert report.summary()["errors"] == 1 and report.summary()["warnings"] == 1


# ------------------------------------------------------------- interval eval
class TestIntervalEval:
    def test_expr_interval_brackets_concrete_values(self):
        expr = Add((Mul((Var(0), Var(1))), Const(0.5), Var(0)))
        bound = expr_interval(expr, UNIT_BOX)
        rng = np.random.default_rng(0)
        for state in UNIT_BOX.sample(rng, 50):
            value = expr.evaluate(state)
            assert bound.lo - 1e-12 <= value <= bound.hi + 1e-12

    def test_expr_interval_rejects_nonfinite_constant(self):
        with pytest.raises(ValueError):
            expr_interval(Const(float("nan")), Box(low=(0.0,), high=(1.0,)))

    def test_expr_interval_rejects_out_of_range_variable(self):
        with pytest.raises(ValueError):
            expr_interval(Var(3), Box(low=(0.0,), high=(1.0,)))

    def test_clip_interval(self):
        assert clip_interval(Interval(-3.0, 4.0), -1.0, 2.0) == Interval(-1.0, 2.0)
        assert clip_interval(Interval(5.0, 9.0), -1.0, 2.0) == Interval(2.0, 2.0)

    def test_invariant_interval_verdicts(self):
        near = ball_guard(0.25)
        far_box = Box(low=(3.0, 3.0), high=(4.0, 4.0))
        assert invariant_interval(near, far_box).lo > 0.0  # provably dead
        tight_box = Box(low=(-0.1, -0.1), high=(0.1, 0.1))
        assert invariant_interval(near, tight_box).hi <= 0.0  # always holds

    def test_affine_output_intervals_respect_clip(self):
        program = AffineProgram(
            gain=[[2.0, 0.0]], bias=[0.0], action_low=[-1.0], action_high=[1.0]
        )
        (bound,) = program_output_intervals(program, UNIT_BOX)
        assert bound == Interval(-1.0, 1.0)
        unclipped = AffineProgram(gain=[[2.0, 0.0]], bias=[0.5])
        (bound,) = program_output_intervals(unclipped, UNIT_BOX)
        assert bound.lo == pytest.approx(-1.5) and bound.hi == pytest.approx(2.5)

    def test_guarded_output_intervals_hull_all_pieces(self):
        program = GuardedProgram(
            branches=[(ball_guard(1.0), AffineProgram(gain=[[1.0, 0.0]], bias=[5.0]))],
            fallback=AffineProgram(gain=[[0.0, 0.0]], bias=[-5.0]),
        )
        (bound,) = program_output_intervals(program, UNIT_BOX)
        assert bound.lo <= -5.0 and bound.hi >= 5.0

    def test_program_outputs_bracket_concrete_actions(self):
        program = ExprProgram(
            exprs=(Add((Mul((Var(0), Var(0))), Mul((Const(-2.0), Var(1))))),),
            state_dim=2,
        )
        bounds = program_output_intervals(program, UNIT_BOX)
        rng = np.random.default_rng(1)
        for state in UNIT_BOX.sample(rng, 50):
            action = program.act(state)
            for coord, iv in enumerate(bounds):
                assert iv.lo - 1e-12 <= float(action[coord]) <= iv.hi + 1e-12


# ----------------------------------------------------------- diagnostic codes
class TestAnalyzeProgram:
    def setup_method(self):
        self.env = make_environment("satellite")

    def test_clean_lqr_program(self):
        program = AffineProgram(gain=make_lqr_policy(self.env).gain)
        report = analyze_program(program, env=self.env)
        assert report.clean
        assert report.environment_fingerprint

    def test_a001_action_bound_violation(self):
        program = AffineProgram(gain=[[0.0, 0.0]], bias=[100.0])  # bounds are +-10
        report = analyze_program(program, env=self.env)
        assert report.codes() == ["A001"]
        assert not report.ok

    def test_a001_skips_dead_branches(self):
        dead_guard = ball_guard(0.01, center=50.0)  # nowhere near the domain
        program = GuardedProgram(
            branches=[(dead_guard, AffineProgram(gain=[[0.0, 0.0]], bias=[100.0]))],
            fallback=AffineProgram(gain=[[0.0, 0.0]], bias=[0.0]),
        )
        report = analyze_program(program, env=self.env)
        assert "A001" not in report.codes()  # the violating piece is provably dead
        assert "A002" in report.codes()

    def test_a002_dead_branch(self):
        program = GuardedProgram(
            branches=[(ball_guard(0.01, center=50.0), AffineProgram(gain=[[0.0, 0.0]]))],
            fallback=AffineProgram(gain=[[0.0, 0.0]]),
        )
        report = analyze_program(program, env=self.env)
        dead = report.select(code="A002")
        assert len(dead) == 1 and dead[0].severity == "warning"
        assert dead[0].data["branch"] == 0

    def test_a002_shadowed_branch_and_a003_unreachable_fallback(self):
        always = ball_guard(1e6)  # whole domain satisfies it
        program = GuardedProgram(
            branches=[
                (always, AffineProgram(gain=[[0.0, 0.0]])),
                (ball_guard(1.0), AffineProgram(gain=[[0.0, 0.0]])),
            ],
            fallback=AffineProgram(gain=[[0.0, 0.0]]),
        )
        report = analyze_program(program, env=self.env)
        shadowed = [d for d in report.select(code="A002") if "shadowed_by" in d.data]
        assert shadowed and shadowed[0].data["shadowed_by"] == 0
        assert report.select(code="A003")

    def test_a004_all_guards_provably_dead(self):
        program = GuardedProgram(
            branches=[(ball_guard(0.01, center=50.0), AffineProgram(gain=[[0.0, 0.0]]))],
            fallback=None,
            strict=True,
        )
        report = analyze_program(program, env=self.env)
        gaps = report.select(code="A004")
        assert gaps and gaps[0].severity == "error"

    def test_a004_sampled_coverage_witness(self):
        # Satisfiable over a corner of the init box but not all of it: interval
        # analysis cannot prove death, sampling finds an uncovered state.
        program = GuardedProgram(
            branches=[(ball_guard(0.05, center=0.45), AffineProgram(gain=[[0.0, 0.0]]))],
            fallback=None,
            strict=True,
        )
        report = analyze_program(program, env=self.env)
        gaps = report.select(code="A004")
        assert gaps and gaps[0].witness is not None
        assert program.branch_index(gaps[0].witness) < 0

    def test_a004_not_reported_with_fallback(self):
        program = GuardedProgram(
            branches=[(ball_guard(0.05, center=0.45), AffineProgram(gain=[[0.0, 0.0]]))],
            fallback=AffineProgram(gain=[[0.0, 0.0]]),
        )
        report = analyze_program(program, env=self.env)
        assert "A004" not in report.codes()

    def test_a005_dimension_mismatch(self):
        program = AffineProgram(gain=[[1.0, 2.0, 3.0]])
        report = analyze_program(program, env=self.env)
        assert report.select(code="A005")

    def test_a005_expression_variable_out_of_range(self):
        program = ExprProgram(exprs=(Var(5),), state_dim=2)
        report = analyze_program(program, env=self.env)
        assert report.select(code="A005")

    def test_a006_nonfinite_coefficient_is_error(self):
        program = AffineProgram(gain=[[float("nan"), 0.0]])
        report = analyze_program(program, env=self.env)
        findings = report.select(code="A006")
        assert findings and findings[0].severity == "error"

    def test_a006_condition_spread_is_warning(self):
        program = AffineProgram(gain=[[1e-14, 0.1]])
        report = analyze_program(program, env=self.env)
        findings = report.select(code="A006")
        assert findings and findings[0].severity == "warning"
        assert report.ok  # warnings never make the report fail

    def test_a007_lowering_error_bound(self):
        config = AnalysisConfig(float_error_tolerance=0.0)
        program = AffineProgram(gain=[[1.0, 1.0]], bias=[0.5])
        report = analyze_program(program, env=self.env, config=config)
        findings = report.select(code="A007")
        assert findings and findings[0].severity == "warning"

    def test_analyze_invariant_codes(self):
        good = ball_guard(1.0)
        assert analyze_invariant(good, state_dim=2).clean
        assert analyze_invariant(good, state_dim=3).select(code="A005")
        bad = Invariant(barrier=Polynomial.quadratic_form(np.eye(2)) - float("inf"))
        assert analyze_invariant(bad, state_dim=2).select(code="A006")


# ------------------------------------------------------------------ refutation
class TestStaticRefutation:
    def setup_method(self):
        self.env = make_environment("satellite")
        self.lqr = make_lqr_policy(self.env)

    def test_destabilizing_gain_is_refuted(self):
        bad = AffineProgram(gain=5.0 * np.abs(self.lqr.gain))
        region = Box(low=(0.3375, 0.3375), high=(0.4625, 0.4625))
        reason = statically_refuted(self.env, bad, region, steps=48)
        assert reason is not None and "escapes safe box" in reason

    def test_stable_gain_is_not_refuted(self):
        program = AffineProgram(gain=self.lqr.gain)
        region = Box(low=(-0.5, -0.5), high=(0.5, 0.5))
        assert statically_refuted(self.env, program, region, steps=48) is None

    def test_region_outside_safe_box_gives_no_verdict(self):
        bad = AffineProgram(gain=5.0 * np.abs(self.lqr.gain))
        region = Box(low=(1.4, 1.4), high=(1.9, 1.9))  # straddles the safe box
        assert statically_refuted(self.env, bad, region, steps=48) is None

    def test_dimension_mismatch_gives_no_verdict(self):
        bad = AffineProgram(gain=5.0 * np.abs(self.lqr.gain))
        region = Box(low=(0.3, 0.3, 0.3), high=(0.4, 0.4, 0.4))
        assert statically_refuted(self.env, bad, region, steps=48) is None


# --------------------------------------------------------- CEGIS pre-filter
def _branch_payload(result):
    """Bit-comparable view of every verified branch (program + invariant)."""
    return [
        {
            "program": program_to_dict(branch.program),
            "terms": sorted(
                (list(m.exponents), c)
                for m, c in branch.invariant.barrier.terms.items()
            ),
            "margin": branch.invariant.margin,
        }
        for branch in result.branches
    ]


class TestCEGISPreFilter:
    """The pre-filter must change counters, never results (bit-identity).

    The filter always runs in product code; the filter-off reference run
    patches its single call site to refute nothing.
    """

    def _run(self, oracle, prefilter: bool, **overrides):
        env = make_environment("satellite")
        config = CEGISConfig(
            seed=8,
            synthesis=SynthesisConfig(iterations=5, warm_start_samples=200),
            replay_prewarm_samples=0,
            **overrides,
        )
        with contextlib.nullcontext() if prefilter else mock.patch(
            "repro.core.cegis.statically_refuted", lambda *args, **kwargs: None
        ):
            return CEGISLoop(env, oracle, config=config).run()

    def test_destabilizing_oracle_prunes_without_changing_result(self):
        env = make_environment("satellite")
        bad_gain = 5.0 * np.abs(make_lqr_policy(env).gain)

        def oracle(state):
            return bad_gain @ np.asarray(state, dtype=float)

        overrides = dict(
            max_counterexamples=1,
            max_shrink_iterations=1,
            initial_radius_fraction=0.0625,
        )
        on = self._run(oracle, prefilter=True, **overrides)
        off = self._run(oracle, prefilter=False, **overrides)
        assert on.statically_pruned > 0
        assert off.statically_pruned == 0
        # Everything except the counter is bit-identical.
        assert on.covered == off.covered
        assert on.failure_reason == off.failure_reason
        if on.uncovered_witness is None or off.uncovered_witness is None:
            assert on.uncovered_witness is None and off.uncovered_witness is None
        else:
            assert np.array_equal(on.uncovered_witness, off.uncovered_witness)
        assert on.counterexamples_used == off.counterexamples_used
        assert _branch_payload(on) == _branch_payload(off)

    def test_lqr_oracle_identical_shields_with_filter_on(self):
        env = make_environment("satellite")
        oracle = make_lqr_policy(env)
        on = self._run(oracle, prefilter=True)
        off = self._run(oracle, prefilter=False)
        assert on.covered and off.covered
        assert on.statically_pruned == 0 and off.statically_pruned == 0
        assert program_to_dict(on.program) == program_to_dict(off.program)
        assert _branch_payload(on) == _branch_payload(off)


# ------------------------------------------------------------------ the gate
def _artifact(program, invariant, environment=""):
    return ShieldArtifact(
        program=GuardedProgram(branches=[(invariant, program)]),
        invariant=InvariantUnion([invariant]),
        environment=environment,
    )


class TestStoreGate:
    def test_put_rejects_error_findings(self, tmp_path):
        store = ShieldStore(tmp_path)
        artifact = _artifact(
            AffineProgram(gain=[[0.0, 0.0]], bias=[100.0]),
            ball_guard(1.0),
            environment="satellite",
        )
        with pytest.raises(StoreError, match="static analysis"):
            store.put(artifact)
        assert len(store) == 0

    def test_put_validate_false_bypasses_the_gate(self, tmp_path):
        store = ShieldStore(tmp_path)
        artifact = _artifact(
            AffineProgram(gain=[[0.0, 0.0]], bias=[100.0]),
            ball_guard(1.0),
            environment="satellite",
        )
        key = store.put(artifact, validate=False)
        assert store.get(key).environment == "satellite"

    def test_put_accepts_clean_and_warning_artifacts(self, tmp_path):
        store = ShieldStore(tmp_path)
        clean = _artifact(
            AffineProgram(gain=[[-0.1, -0.1]]), ball_guard(1.0), environment="satellite"
        )
        warn = _artifact(
            AffineProgram(gain=[[1e-14, 0.1]]), ball_guard(1.0), environment="satellite"
        )
        assert store.put(clean)
        assert store.put(warn)  # warnings never reject

    def test_service_records_pruned_counter_and_omits_empty_lint(self, tmp_path):
        env = make_environment("satellite")
        service = SynthesisService(store=ShieldStore(tmp_path))
        config = CEGISConfig(
            seed=8,
            synthesis=SynthesisConfig(iterations=5, warm_start_samples=200),
            replay_prewarm_samples=0,
        )
        result = service.synthesize(
            env, make_lqr_policy(env), config=config, environment="satellite"
        )
        assert result.artifact.metadata["statically_pruned"] == 0
        assert "lint_warnings" not in result.artifact.metadata


# -------------------------------------------------------------------- the CLI
CORPUS_STORE = str(Path(__file__).parent / "data" / "counterexamples" / "store")


@pytest.fixture()
def lint_stores(tmp_path):
    """(clean_store, dirty_store): one clean shield, one with an A001 error."""
    clean = ShieldStore(tmp_path / "clean")
    clean_key = clean.put(
        _artifact(AffineProgram(gain=[[-0.1, -0.1]]), ball_guard(1.0), "satellite")
    )
    dirty = ShieldStore(tmp_path / "dirty")
    dirty.put(
        _artifact(AffineProgram(gain=[[0.0, 0.0]], bias=[100.0]), ball_guard(1.0),
                  "satellite"),
        validate=False,
    )
    dirty.put(
        _artifact(AffineProgram(gain=[[1e-14, 0.1]]), ball_guard(1.0), "satellite")
    )
    return clean, clean_key, dirty


class TestLintCLI:
    def test_committed_corpus_store_is_clean(self, capsys):
        assert main(["lint", "--store", CORPUS_STORE, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "0 error(s), 0 warning(s)" in out

    def test_clean_store_exits_zero(self, lint_stores, capsys):
        clean, _key, _dirty = lint_stores
        assert main(["lint", "--store", str(clean.root)]) == 0

    def test_error_findings_exit_one(self, lint_stores, capsys):
        _clean, _key, dirty = lint_stores
        assert main(["lint", "--store", str(dirty.root)]) == 1
        out = capsys.readouterr().out
        assert "A001" in out

    def test_warnings_only_fail_under_strict(self, lint_stores, capsys):
        _clean, _key, dirty = lint_stores
        warn_key = next(
            entry.key for entry, report in lint_store(dirty) if not report.errors
        )
        assert main(["lint", "--store", str(dirty.root), warn_key[:12]]) == 0
        assert main(["lint", "--store", str(dirty.root), warn_key[:12], "--strict"]) == 1

    def test_key_prefix_resolution(self, lint_stores, capsys):
        clean, key, _dirty = lint_stores
        assert main(["lint", "--store", str(clean.root), key[:8]]) == 0
        out = capsys.readouterr().out
        assert key[:12] in out

    def test_unknown_prefix_exits_two(self, lint_stores, capsys):
        clean, _key, _dirty = lint_stores
        assert main(["lint", "--store", str(clean.root), "feedbee"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_env_filter(self, lint_stores, capsys):
        clean, _key, _dirty = lint_stores
        assert main(["lint", "--store", str(clean.root), "--env", "satellite"]) == 0
        assert "linted 1 artifact(s)" in capsys.readouterr().out
        assert main(["lint", "--store", str(clean.root), "--env", "tape"]) == 0
        assert "linted 0 artifact(s)" in capsys.readouterr().out

    def test_json_output(self, lint_stores, capsys):
        _clean, _key, dirty = lint_stores
        assert main(["lint", "--store", str(dirty.root), "--json"]) == 1
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 2
        codes = {d["code"] for report in reports for d in report["diagnostics"]}
        assert "A001" in codes

    def test_lint_store_api_matches_cli(self, lint_stores):
        _clean, _key, dirty = lint_stores
        results = lint_store(dirty)
        assert len(results) == 2
        assert sum(1 for _e, report in results if report.errors) == 1


# ----------------------------------------------------- artifact-level analysis
class TestAnalyzeArtifact:
    def test_registry_environment_is_resolved(self):
        artifact = _artifact(
            AffineProgram(gain=[[-0.1, -0.1]]), ball_guard(1.0), environment="satellite"
        )
        report = analyze_artifact(artifact)
        assert report.clean
        assert report.environment_fingerprint

    def test_unknown_environment_falls_back_to_structural_checks(self):
        artifact = _artifact(
            AffineProgram(gain=[[float("nan"), 0.0]]), ball_guard(1.0), environment=""
        )
        report = analyze_artifact(artifact)
        assert report.select(code="A006")

    def test_invariant_members_are_checked(self):
        bad_invariant = Invariant(
            barrier=Polynomial.quadratic_form(np.eye(3)) - 1.0
        )
        artifact = ShieldArtifact(
            program=GuardedProgram(
                branches=[(ball_guard(1.0), AffineProgram(gain=[[-0.1, -0.1]]))]
            ),
            invariant=InvariantUnion([bad_invariant]),
            environment="satellite",
        )
        report = analyze_artifact(artifact)
        findings = report.select(code="A005")
        assert findings and "invariant[0]" in findings[0].location
