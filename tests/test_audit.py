"""Tests for the independent invariant audit (repro.certificates.audit)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_environment, verify_program
from repro.baselines import make_lqr_policy
from repro.certificates import (
    BarrierCertificateSynthesizer,
    SafetyProblem,
    audit_invariant,
    audit_shield,
)
from repro.cli import main
from repro.core import VerificationConfig
from repro.lang import AffineProgram, GuardedProgram, Invariant, InvariantSketch
from repro.polynomials import Polynomial
from repro.store import ShieldStore, branch_regions

CORPUS_STORE = "tests/data/counterexamples/store"
PENDULUM_FIXTURE = "perfbench/fixtures/pendulum"


@pytest.fixture(scope="module")
def satellite():
    return make_environment("satellite")


@pytest.fixture(scope="module")
def satellite_program(satellite):
    lqr = make_lqr_policy(satellite)
    return AffineProgram(gain=lqr.gain, names=satellite.state_names)


@pytest.fixture(scope="module")
def satellite_outcome(satellite, satellite_program):
    outcome = verify_program(satellite, satellite_program)
    assert outcome.verified, outcome.failure_reason
    return outcome


class TestAuditInvariant:
    def test_verified_invariant_passes_audit(self, satellite, satellite_program, satellite_outcome):
        report = audit_invariant(satellite, satellite_program, satellite_outcome.invariant)
        assert report.all_hold, report.details
        assert bool(report)
        assert "PASS" in report.summary()

    def test_unknown_engine_raises(self, satellite, satellite_program, satellite_outcome):
        with pytest.raises(ValueError, match="unknown audit engine"):
            audit_invariant(
                satellite, satellite_program, satellite_outcome.invariant, engine="z3"
            )

    def test_farkas_engine_checks_boundary_conditions(
        self, satellite, satellite_program, satellite_outcome
    ):
        # The Farkas engine discharges conditions (8) and (9) with Handelman
        # certificates (it may be incomplete but must never be unsound);
        # condition (10) always goes through branch-and-bound.
        report = audit_invariant(
            satellite, satellite_program, satellite_outcome.invariant, engine="farkas"
        )
        assert report.engine == "farkas"
        assert report.inductive
        # Whatever the Farkas engine *did* certify must agree with the sound
        # branch-and-bound audit (which passes all three conditions).
        bnb = audit_invariant(satellite, satellite_program, satellite_outcome.invariant)
        assert bnb.all_hold
        if report.unsafe_positive:
            assert bnb.unsafe_positive
        if report.init_nonpositive:
            assert bnb.init_nonpositive

    def test_bogus_invariant_fails_condition_8(self, satellite, satellite_program):
        # A huge ellipsoid overlaps the unsafe set -> condition (8) must fail.
        bogus = Invariant(
            barrier=Polynomial.quadratic_form(np.eye(satellite.state_dim)) - 1e6,
            names=satellite.state_names,
        )
        report = audit_invariant(satellite, satellite_program, bogus, max_boxes=20_000)
        assert not report.unsafe_positive
        assert not report.all_hold
        assert "FAIL" in report.summary()

    def test_tiny_invariant_fails_condition_9(self, satellite, satellite_program):
        # An ellipsoid smaller than the initial box cannot contain S0.
        tiny = Invariant(
            barrier=Polynomial.quadratic_form(np.eye(satellite.state_dim)) - 1e-6,
            names=satellite.state_names,
        )
        report = audit_invariant(satellite, satellite_program, tiny, max_boxes=20_000)
        assert not report.init_nonpositive

    def test_unstable_program_fails_condition_10(self, satellite, satellite_outcome):
        # A destabilising gain breaks the induction condition for the same invariant.
        unstable = AffineProgram(
            gain=np.ones((satellite.action_dim, satellite.state_dim)) * 50.0,
            names=satellite.state_names,
        )
        report = audit_invariant(
            satellite, unstable, satellite_outcome.invariant, max_boxes=20_000
        )
        assert not report.inductive
        assert "FAIL" in report.summary()
        # The audit and the barrier search discharge one obligation list: the
        # first failing condition and its witness are the same.
        problem = SafetyProblem.from_env(satellite, unstable)
        search = BarrierCertificateSynthesizer(
            InvariantSketch(state_dim=satellite.state_dim, degree=2),
            problem,
            verifier=problem.verifier(20_000),
        )
        kind, witness = search._sound_check(satellite_outcome.invariant)
        assert report.failures[0].obligation.kind == kind == "induction"
        assert np.array_equal(report.counterexample, witness)

    def test_audit_models_the_disturbance(self, satellite, satellite_program):
        # A barrier certificate found without a disturbance is not inductive
        # once a disturbance 10x the domain's widest side acts on every step.
        blind = verify_program(
            satellite, satellite_program, config=VerificationConfig(backend="barrier")
        )
        assert blind.verified
        assert audit_invariant(satellite, satellite_program, blind.invariant).all_hold
        bound = 10.0 * float(np.max(satellite.domain.widths))
        disturbed = make_environment("satellite", disturbance_bound=[bound, bound])
        report = audit_invariant(disturbed, satellite_program, blind.invariant)
        assert report.inductive is False
        assert report.counterexample is not None
        assert report.counterexample.shape == (satellite.state_dim,)

    def test_exhausted_budget_is_inconclusive(
        self, satellite, satellite_program, satellite_outcome
    ):
        report = audit_invariant(
            satellite, satellite_program, satellite_outcome.invariant, max_boxes=1
        )
        assert not report.all_hold
        assert not report.refuted
        assert report.status == "INCONCLUSIVE"
        assert "INCONCLUSIVE" in report.summary()
        assert any("inconclusive" in detail for detail in report.details)

    def test_nonlinear_environment_audit_rejects_unsafe_invariant(self):
        # Pendulum (polynomial dynamics): an invariant that spills past the safe
        # box must be caught by the audit even though the closed loop is nonlinear.
        env = make_environment("pendulum")
        program = AffineProgram(gain=[[-12.05, -5.87]], names=env.state_names)
        too_large = Invariant(
            barrier=Polynomial.quadratic_form(np.eye(2)) - 100.0, names=env.state_names
        )
        report = audit_invariant(env, program, too_large, max_boxes=20_000)
        assert not report.unsafe_positive
        assert not report.all_hold


class TestAuditShield:
    def test_audit_every_branch(self, satellite, satellite_program, satellite_outcome):
        guarded = GuardedProgram(
            branches=[(satellite_outcome.invariant, satellite_program)],
            names=satellite.state_names,
        )
        reports = audit_shield(satellite, guarded)
        assert len(reports) == 1
        assert reports[0].all_hold

    def test_condition_9_is_checked_on_each_branch_region(self):
        # CEGIS proves each branch of the 6-branch pendulum fixture shield on
        # its own region only; against the whole S0 no branch holds (9).
        store = ShieldStore(PENDULUM_FIXTURE)
        artifact = store.get(store.list()[0].key)
        env = make_environment(artifact.environment, **artifact.environment_overrides)
        regions = branch_regions(artifact)
        assert len(regions) == len(artifact.program.branches) == 6
        per_region = audit_shield(env, artifact.program, max_boxes=20_000, regions=regions)
        assert all(report.init_nonpositive for report in per_region)
        on_s0 = audit_shield(env, artifact.program, max_boxes=20_000)
        assert not any(report.init_nonpositive for report in on_s0)


class TestAuditCommand:
    def test_farkas_audit_of_corpus_shield_passes(self, tmp_path, capsys):
        exported = tmp_path / "satellite.json"
        export = ["store", "--store", CORPUS_STORE, "export", "667f7003890c", str(exported)]
        assert main(export) == 0
        assert main(["audit", str(exported), "--engine", "farkas"]) == 0
        output = capsys.readouterr().out
        assert "(8) unsafe>0: True  (9) init<=0: True  (10) inductive: True" in output
        assert "audit result: PASS" in output

    def test_budget_exhaustion_reads_inconclusive(self, tmp_path, capsys):
        exported = tmp_path / "tape.json"
        export = ["store", "--store", CORPUS_STORE, "export", "86686d78bf37", str(exported)]
        assert main(export) == 0
        assert main(["audit", str(exported), "--max-boxes", "2000"]) == 1
        assert "audit result: INCONCLUSIVE" in capsys.readouterr().out
