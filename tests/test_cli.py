"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import repro.experiments
from repro.cli import build_parser, main
from repro.lang import (
    AffineProgram,
    GuardedProgram,
    Invariant,
    InvariantUnion,
    ShieldArtifact,
    save_artifact,
)
from repro.polynomials import Polynomial


@pytest.fixture()
def pendulum_artifact(tmp_path):
    """A small hand-built (but safety-plausible) artifact for CLI round trips."""
    program = AffineProgram(gain=[[-12.05, -5.87]], names=("eta", "omega"))
    invariant = Invariant(
        barrier=Polynomial.quadratic_form(np.diag([1.0, 0.5])) - 0.2, names=("eta", "omega")
    )
    guarded = GuardedProgram(branches=[(invariant, program)], names=("eta", "omega"))
    artifact = ShieldArtifact(
        program=guarded,
        invariant=InvariantUnion([invariant]),
        environment="pendulum",
    )
    return save_artifact(artifact, tmp_path / "pendulum_shield.json")


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_synthesize_defaults(self):
        args = build_parser().parse_args(["synthesize", "pendulum"])
        assert args.env == "pendulum"
        assert args.oracle == "cloned"
        assert args.episodes == 5

    def test_experiment_scale_choices(self):
        args = build_parser().parse_args(["table1", "--scale", "medium"])
        assert args.scale == "medium"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", "enormous"])


class TestExperimentCommands:
    """The experiment subcommands hand their selections to the sweep runners."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Replace the table runners; record each call's bound arguments."""
        calls = {}
        for name in ("run_table1", "run_table2", "run_table3"):
            signature = inspect.signature(getattr(repro.experiments, name))

            def runner(*args, _name=name, _signature=signature, **kwargs):
                calls[_name] = _signature.bind(*args, **kwargs).arguments
                return []

            monkeypatch.setattr(repro.experiments, name, runner)
        return calls

    def test_table1_passes_benchmarks(self, calls):
        assert main(["table1", "satellite", "pendulum"]) == 0
        assert list(calls["run_table1"]["benchmarks"]) == ["satellite", "pendulum"]

    def test_table2_passes_benchmarks_and_degrees(self, calls):
        assert main(["table2", "satellite", "--degrees", "2"]) == 0
        assert list(calls["run_table2"]["benchmarks"]) == ["satellite"]
        assert list(calls["run_table2"]["degrees"]) == [2]

    def test_table3_passes_changes(self, calls):
        change = next(iter(repro.experiments.ENVIRONMENT_CHANGES))
        assert main(["table3", change]) == 0
        assert list(calls["run_table3"]["changes"]) == [change]

    @pytest.mark.parametrize("experiment", ["fig3", "fig6"])
    def test_figures_take_no_positional(self, experiment):
        with pytest.raises(SystemExit):
            build_parser().parse_args([experiment, "pendulum"])

    def test_run_takes_no_disturbance(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "pendulum", "--disturbance", "uniform"])


class TestListAndDescribe:
    def test_list_prints_benchmarks(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "pendulum" in output
        assert "8_car_platoon" in output

    def test_describe_prints_specification(self, capsys):
        assert main(["describe", "pendulum"]) == 0
        output = capsys.readouterr().out
        assert "pendulum" in output
        assert "dt" in output

    def test_describe_with_overrides(self, capsys):
        assert main(["describe", "pendulum", "--overrides", '{"safe_angle_deg": 30.0}']) == 0
        assert "pendulum" in capsys.readouterr().out

    def test_describe_unknown_benchmark_raises(self, capsys):
        assert main(["describe", "warp_drive"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown benchmark 'warp_drive'")


class TestEvaluateAndAudit:
    def test_evaluate_saved_artifact(self, pendulum_artifact, capsys):
        code = main(
            [
                "evaluate",
                str(pendulum_artifact),
                "--episodes",
                "2",
                "--steps",
                "40",
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.split("loaded artifact")[1].split("\n", 1)[1])
        assert summary["shielded"]["episodes"] == 2
        assert "overhead" in summary

    def test_audit_saved_artifact_runs(self, pendulum_artifact, capsys):
        code = main(["audit", str(pendulum_artifact), "--max-boxes", "5000"])
        output = capsys.readouterr().out
        assert "branch 0" in output
        assert "audit result:" in output
        assert code in (0, 1)

    def test_evaluate_without_environment_fails(self, tmp_path, capsys):
        program = AffineProgram(gain=[[-1.0, -1.0]], names=("x", "y"))
        invariant = Invariant(barrier=Polynomial.quadratic_form(np.eye(2)) - 1.0)
        artifact = ShieldArtifact(
            program=GuardedProgram(branches=[(invariant, program)]),
            invariant=InvariantUnion([invariant]),
            environment="",
        )
        path = save_artifact(artifact, tmp_path / "anonymous.json")
        assert main(["evaluate", str(path)]) == 2
        assert "pass --env" in capsys.readouterr().err


class TestSynthesizeCommand:
    def test_synthesize_satellite_end_to_end(self, tmp_path, capsys):
        output_path = tmp_path / "satellite_shield.json"
        code = main(
            [
                "synthesize",
                "satellite",
                "--synthesis-iterations",
                "3",
                "--episodes",
                "2",
                "--steps",
                "40",
                "--output",
                str(output_path),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "synthesized program" in printed
        assert "def P(" in printed
        assert output_path.exists()
        saved = json.loads(output_path.read_text())
        assert saved["environment"] == "satellite"
        assert saved["program"]["kind"] == "guarded"


# ------------------------------------------------------------------------ store
class TestStoreCommands:
    CORPUS_STORE = "tests/data/counterexamples/store"

    @pytest.fixture()
    def tmp_store(self, tmp_path, pendulum_artifact):
        from repro.lang import load_artifact
        from repro.store import ShieldStore

        store = ShieldStore(tmp_path / "store")
        key = store.put(load_artifact(pendulum_artifact))
        return store, key

    def test_store_list_empty(self, tmp_path, capsys):
        assert main(["store", "--store", str(tmp_path / "empty"), "list"]) == 0
        assert "no stored shields" in capsys.readouterr().out

    def test_store_list_corpus(self, capsys):
        assert main(["store", "--store", self.CORPUS_STORE, "list"]) == 0
        output = capsys.readouterr().out
        assert "satellite" in output
        assert "config_hash" in output

    def test_store_show_by_prefix(self, tmp_store, capsys):
        store, key = tmp_store
        assert main(["store", "--store", str(store.root), "show", key[:8]]) == 0
        output = capsys.readouterr().out
        assert "pendulum" in output
        assert "def P(" in output

    def test_store_export_round_trips(self, tmp_store, tmp_path, capsys):
        from repro.lang import load_artifact

        store, key = tmp_store
        output_path = tmp_path / "exported.json"
        assert main(
            ["store", "--store", str(store.root), "export", key[:12], str(output_path)]
        ) == 0
        assert load_artifact(output_path).environment == "pendulum"

    def test_store_rm(self, tmp_store, capsys):
        store, key = tmp_store
        assert main(["store", "--store", str(store.root), "rm", key[:12]]) == 0
        assert store.list() == []

    def test_store_unknown_key_exits_2(self, tmp_store, capsys):
        store, _key = tmp_store
        assert main(["store", "--store", str(store.root), "show", "deadbeef"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_audit_corpus_shield_by_store_key(self, capsys):
        from repro.store import ShieldStore

        key = ShieldStore(self.CORPUS_STORE).find(environment="satellite")[0].key
        assert main(["audit", key, "--store", self.CORPUS_STORE]) == 0
        assert "audit result: PASS" in capsys.readouterr().out

    def test_store_verify_takes_no_key(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "verify", "abcdef12"])

    def test_monitor_parser_defaults(self):
        args = build_parser().parse_args(["monitor", "satellite"])
        assert args.env == "satellite"
        assert args.disturbance == "none"
        assert args.episodes == 50
        with pytest.raises(SystemExit):
            build_parser().parse_args(["monitor", "satellite", "--disturbance", "tornado"])

    def test_adapt_parser_defaults(self):
        args = build_parser().parse_args(
            ["adapt", "satellite", "--disturbance", "uniform", "--magnitude", "0.1"]
        )
        assert args.disturbance == "uniform"
        assert args.magnitude == pytest.approx(0.1)
        assert args.confidence_sigmas == pytest.approx(3.0)

    def test_robustness_parser_accepts_kinds(self):
        args = build_parser().parse_args(
            ["robustness", "satellite", "--kinds", "uniform", "gaussian", "--magnitude", "0.2"]
        )
        assert args.experiment == "robustness"
        assert args.kinds == ["uniform", "gaussian"]
        assert args.magnitude == pytest.approx(0.2)

    def test_monitor_satellite_fleet(self, capsys):
        code = main(
            [
                "monitor",
                "satellite",
                "--episodes",
                "3",
                "--steps",
                "40",
                "--synthesis-iterations",
                "3",
                "--disturbance",
                "uniform",
                "--magnitude",
                "0.03",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        summary = json.loads("{" + output.split("{", 1)[1])
        assert summary["episodes"] == 3
        assert summary["decisions"] == 120
        assert summary["disturbance_bound"] is not None

    def test_adapt_satellite_certificate_still_valid(self, tmp_path, capsys):
        code = main(
            [
                "adapt",
                "satellite",
                "--episodes",
                "3",
                "--steps",
                "40",
                "--synthesis-iterations",
                "3",
                "--disturbance",
                "uniform",
                "--magnitude",
                "0.01",
                "--store",
                str(tmp_path / "store"),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "certificate: still valid" in output

    def test_synthesize_parser_accepts_service_flags(self):
        args = build_parser().parse_args(
            ["synthesize", "pendulum", "--workers", "4", "--store"]
        )
        assert args.workers == 4
        assert args.store == ""

    def test_experiment_parser_accepts_store(self):
        args = build_parser().parse_args(["table1", "--store", "mystore"])
        assert args.store == "mystore"


# ----------------------------------------------------------------------- verify
class TestVerifyCommand:
    @pytest.fixture()
    def synthesized_store(self, tmp_path):
        """A real store entry (satellite, LQR oracle) to re-verify via the CLI."""
        from repro.baselines import make_lqr_policy
        from repro.core import (
            CEGISConfig,
            DistanceConfig,
            SynthesisConfig,
            VerificationConfig,
        )
        from repro.envs import make_environment
        from repro.store import ShieldStore, SynthesisService

        env = make_environment("satellite")
        service = SynthesisService(store=ShieldStore(tmp_path / "store"))
        config = CEGISConfig(
            synthesis=SynthesisConfig(
                iterations=5,
                distance=DistanceConfig(num_trajectories=2, trajectory_length=50),
                seed=0,
            ),
            verification=VerificationConfig(backend="lyapunov"),
            max_counterexamples=4,
        )
        result = service.synthesize(
            env, make_lqr_policy(env), config=config, environment="satellite"
        )
        return str(tmp_path / "store"), result.key

    def test_verify_parser_defaults_and_backend_choices(self):
        args = build_parser().parse_args(["verify", "abcdef12"])
        assert args.backend == "auto"
        assert args.degree is None  # resolved from the recorded benchmark
        assert not args.no_cache
        for backend in ("lyapunov", "sos", "barrier", "farkas"):
            parsed = build_parser().parse_args(["verify", "abcdef12", "--backend", backend])
            assert parsed.backend == backend

    def test_verify_unknown_backend_exits_2_listing_registry(
        self, synthesized_store, capsys
    ):
        store, key = synthesized_store
        assert main(["verify", key[:12], "--backend", "nonsense", "--store", store]) == 2
        error = capsys.readouterr().err
        assert "unknown verification backend" in error
        assert "farkas" in error

    def test_verify_stored_shield_prints_provenance(self, synthesized_store, capsys):
        store, key = synthesized_store
        assert main(["verify", key[:12], "--store", store]) == 0
        output = capsys.readouterr().out
        assert "VERIFIED" in output
        assert "backend=lyapunov" in output
        assert "wall_clock=" in output
        assert "verdict cache:" in output
        assert "kernel re-verification: PASS" in output

    def test_verify_second_invocation_hits_the_verdict_cache(
        self, synthesized_store, capsys
    ):
        store, key = synthesized_store
        assert main(["verify", key[:12], "--store", store]) == 0
        capsys.readouterr()
        assert main(["verify", key[:12], "--store", store]) == 0
        output = capsys.readouterr().out
        assert "[cached]" in output
        assert "1 hit(s)" in output

    def test_verify_with_named_backend(self, synthesized_store, capsys):
        store, key = synthesized_store
        assert main(["verify", key[:12], "--backend", "sos", "--store", store]) == 0
        assert "backend=sos" in capsys.readouterr().out

    def test_verify_degree_defaults_to_the_recorded_benchmark(self, tmp_path, capsys):
        """The committed pendulum shield carries degree-4 barrier invariants
        (pendulum's registered degree); at degree 2 five of its six branches
        fail with an infeasible sampled LP."""
        import shutil
        from pathlib import Path

        fixture = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "pendulum"
        store = tmp_path / "pendulum"
        shutil.copytree(fixture, store)
        assert main(["verify", "5ff41ebe", "--no-cache", "--store", str(store)]) == 0
        output = capsys.readouterr().out
        assert output.count("VERIFIED backend=barrier") == 6
        assert "kernel re-verification: PASS" in output

    def test_verify_invalid_budget_exits_2(self, synthesized_store, capsys):
        store, key = synthesized_store
        argv = ["verify", key[:12], "--backend-budget", "-1", "--store", store]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "backend_time_budget_seconds" in captured.err
        assert "kernel re-verification" not in captured.out

    def test_verify_unknown_key_exits_2(self, synthesized_store, capsys):
        store, _key = synthesized_store
        assert main(["verify", "deadbeef", "--store", store]) == 2
        assert "error:" in capsys.readouterr().err

    def test_verify_without_store_flag_uses_default_store(
        self, synthesized_store, monkeypatch, capsys
    ):
        """No --store means $REPRO_STORE / ./.repro_store, like `repro store`."""
        store, key = synthesized_store
        monkeypatch.setenv("REPRO_STORE", store)
        assert main(["verify", key[:12]]) == 0
        assert "kernel re-verification: PASS" in capsys.readouterr().out
        monkeypatch.setenv("REPRO_STORE", store + "-missing")
        assert main(["verify", key[:12]]) == 2  # handled error, not a traceback
        assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------ recorded environment
PENDULUM_30 = str(Path(__file__).parent / "data" / "pendulum_safe30_shield.json")


class TestRecordedEnvironment:
    """A pendulum shield synthesized with ``safe_angle_deg`` 30.  Its invariant
    reaches past the registry default's 23° safe box, so checking it on the
    bare benchmark refutes condition (8); every command that opens a saved
    shield must rebuild the environment the artifact records."""

    @pytest.fixture()
    def stored(self, tmp_path):
        from repro.lang import load_artifact
        from repro.store import ShieldStore

        store = ShieldStore(tmp_path / "store")
        return str(store.root), store.put(load_artifact(PENDULUM_30))

    def test_audit_file_passes(self, capsys):
        assert main(["audit", PENDULUM_30]) == 0
        assert "audit result: PASS" in capsys.readouterr().out

    def test_audit_store_key_passes(self, stored, capsys):
        store, key = stored
        assert main(["audit", key[:12], "--store", store]) == 0
        assert "audit result: PASS" in capsys.readouterr().out

    def test_naming_the_recorded_environment_keeps_its_overrides(self, capsys):
        assert main(["audit", PENDULUM_30, "--env", "pendulum"]) == 0
        assert "audit result: PASS" in capsys.readouterr().out

    def test_audit_overrides_replace_the_recorded_ones(self, capsys):
        assert main(["audit", PENDULUM_30, "--overrides", "{}"]) == 1
        assert "condition (8) failed" in capsys.readouterr().out

    def test_evaluate_runs_on_the_recorded_environment(self, monkeypatch, capsys):
        import repro.runtime

        campaign_envs = []
        compare_shielded = repro.runtime.compare_shielded

        def recording(env, *args, **kwargs):
            campaign_envs.append(env)
            return compare_shielded(env, *args, **kwargs)

        monkeypatch.setattr(repro.runtime, "compare_shielded", recording)
        assert main(["evaluate", PENDULUM_30, "--episodes", "2", "--steps", "20"]) == 0
        (env,) = campaign_envs
        assert env.safe_box.high[0] == pytest.approx(np.radians(30.0))

    def test_verify_applies_overrides_without_env(self, stored, capsys):
        store, key = stored
        argv = ["verify", key[:12], "--store", store, "--no-cache"]
        assert main(argv) == 0
        assert "kernel re-verification: PASS" in capsys.readouterr().out
        assert main(argv + ["--overrides", '{"safe_angle_deg": 23.0}']) == 1
        assert "kernel re-verification: FAIL" in capsys.readouterr().out


# -------------------------------------------------------------------- bad input
class TestInputErrors:
    """Bad outside input exits 2 with one ``error:`` line, not a traceback."""

    @pytest.fixture()
    def malformed(self, tmp_path):
        (tmp_path / "truncated.json").write_text('{"program": ')
        (tmp_path / "schema.json").write_text('{"program": 1}')
        return tmp_path

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "{dir}/missing.json"],
            ["evaluate", "{dir}/missing.json"],
            ["audit", "{dir}/truncated.json"],
            ["audit", "{dir}/schema.json"],
            ["evaluate", "{dir}/truncated.json"],
            ["describe", "warp_drive"],
            ["audit", PENDULUM_30, "--env", "warp_drive"],
            ["describe", "pendulum", "--overrides", "{bad"],
            ["describe", "pendulum", "--overrides", "[1]"],
            ["audit", PENDULUM_30, "--overrides", "{bad"],
            ["synthesize", "pendulum", "--overrides", "{bad"],
            ["monitor", "pendulum", "--overrides", "{bad"],
        ],
    )
    def test_exits_2_with_one_error_line(self, argv, malformed, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE", str(malformed / "store"))
        assert main([arg.replace("{dir}", str(malformed)) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_program_errors_still_raise(self, monkeypatch):
        import repro.experiments

        def broken(*args, **kwargs):
            raise ValueError("a program error")

        monkeypatch.setattr(repro.experiments, "format_table", broken)
        with pytest.raises(ValueError, match="a program error"):
            main(["list"])
