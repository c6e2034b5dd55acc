"""The differential fuzzer: determinism, shrinking, reproducers, and teeth.

The campaign smoke here runs every property family on a fixed seed and must
stay green — a divergence means an equivalence claim in the codebase broke.
The non-vacuity tests re-implement the *pre-fix* behavior of bugs this fuzzer
found (fold annihilation, nan-dropping deserialization, signed-zero
fingerprint splits) and check the committed corpus reproducers still catch
those legacy semantics — proving the corpus guards against regressions rather
than passing trivially.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.fuzz import (
    FAMILIES,
    case_rng,
    load_reproducer,
    replay_reproducer,
    run_fuzz,
    shrink_case,
)
from repro.fuzz import generators as gen
from repro.fuzz.properties import _shrink_fold, _values_agree
from repro.fuzz.runner import Divergence, save_reproducer
from repro.lang import Const, Mul, Var
from repro.lang.simplify import fold_constants

FUZZ_CORPUS = Path(__file__).parent / "data" / "counterexamples" / "fuzz"


# ------------------------------------------------------------------ campaign
def test_smoke_campaign_all_families_hold():
    report = run_fuzz(seed=2026, rounds=2)
    assert report.ok, "\n".join(d.describe() for d in report.divergences)
    assert set(report.executed) == set(FAMILIES)
    for name, family in FAMILIES.items():
        assert report.executed[name] == 2 * family.weight
    assert report.total_cases == 2 * sum(f.weight for f in FAMILIES.values())


def test_unknown_property_rejected():
    with pytest.raises(ValueError, match="unknown property family"):
        run_fuzz(seed=0, rounds=1, properties=["nonsense"])


def test_time_budget_stops_between_rounds():
    report = run_fuzz(
        seed=0, rounds=10_000, properties=["fold"], time_budget=0.0
    )
    assert report.stopped_early
    assert report.total_cases == 0


# --------------------------------------------------------------- determinism
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generators_are_deterministic(family):
    payloads = [
        FAMILIES[family].generate(case_rng(17, family, index)) for index in range(3)
    ]
    replays = [
        FAMILIES[family].generate(case_rng(17, family, index)) for index in range(3)
    ]
    assert json.dumps(payloads, sort_keys=True) == json.dumps(replays, sort_keys=True)
    # distinct indices must not generate the same case
    assert json.dumps(payloads[0], sort_keys=True) != json.dumps(
        payloads[1], sort_keys=True
    )


def test_case_rng_separates_families():
    fold = gen.expr_to_payload(gen.random_expr(case_rng(5, "fold", 0), 2))
    serialize = gen.expr_to_payload(gen.random_expr(case_rng(5, "serialize", 0), 2))
    assert fold != serialize


def test_payload_float_encoding_round_trips():
    values = [1.5, -0.0, float("inf"), float("-inf"), float("nan")]
    decoded = gen.dec_values(gen.enc_values(values))
    assert decoded[0] == 1.5
    assert decoded[1] == 0.0 and math.copysign(1.0, decoded[1]) < 0
    assert decoded[2] == float("inf") and decoded[3] == float("-inf")
    assert math.isnan(decoded[4])
    assert json.dumps(gen.enc_values(values))  # JSON-safe, no ValueError


# ------------------------------------------------------------------ shrinker
def _legacy_annihilating_fold(expr):
    """The pre-fix fold semantics: any zero factor collapses the product."""
    if isinstance(expr, (Const, Var)):
        return expr
    operands = tuple(_legacy_annihilating_fold(op) for op in expr.operands)
    if isinstance(expr, Mul) and any(
        isinstance(op, Const) and op.value == 0.0 for op in operands
    ):
        return Const(0.0)
    return type(expr)(operands)


def _legacy_fold_check(payload):
    expr = gen.expr_from_payload(payload["expr"])
    folded = _legacy_annihilating_fold(fold_constants(expr))
    for state in (gen.dec_values(s) for s in payload["states"]):
        raw = expr.evaluate_interpreted(state)
        via = folded.evaluate_interpreted(state)
        if not _values_agree(raw, via, rel=1e-9, abs_tol=1e-12):
            return f"legacy fold diverges at {state}: raw={raw!r} folded={via!r}"
    return None


def _first_legacy_fold_failure():
    for index in range(500):
        payload = FAMILIES["fold"].generate(case_rng(0, "fold", index))
        if _legacy_fold_check(payload):
            return payload
    raise AssertionError("generator never hits the legacy fold bug in 500 cases")


def test_shrinker_is_minimal_and_deterministic():
    payload = _first_legacy_fold_failure()
    runs = [
        shrink_case(payload, _legacy_fold_check, _shrink_fold) for _ in range(2)
    ]
    (small_a, msg_a, _), (small_b, msg_b, _) = runs
    assert json.dumps(small_a, sort_keys=True) == json.dumps(small_b, sort_keys=True)
    assert msg_a == msg_b
    # minimal: one state, and an expression no shrink candidate can reduce
    # while keeping the divergence alive
    assert len(small_a["states"]) == 1
    for candidate in _shrink_fold(small_a):
        assert _legacy_fold_check(candidate) is None


def test_shrinker_requires_a_failing_payload():
    payload = FAMILIES["fold"].generate(case_rng(0, "fold", 0))
    assert FAMILIES["fold"].check(payload) is None
    with pytest.raises(ValueError, match="failing payload"):
        shrink_case(payload, FAMILIES["fold"].check, _shrink_fold)


# ---------------------------------------------------------------- reproducers
def test_reproducer_round_trip(tmp_path):
    divergence = Divergence(
        family="fold",
        seed=3,
        index=7,
        message="synthetic",
        payload={"expr": {"kind": "var", "index": 0}, "num_vars": 1, "states": [[1.0]]},
        shrunk=True,
        shrink_checks=5,
    )
    path = save_reproducer(divergence, tmp_path)
    data = load_reproducer(path)
    assert data["property"] == "fold"
    assert data["payload"] == divergence.payload
    assert replay_reproducer(path) is None  # Var(0) trivially folds faithfully


def test_load_reproducer_rejects_foreign_json(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"kind": "something-else"}))
    with pytest.raises(ValueError, match="not a fuzz reproducer"):
        load_reproducer(path)


def test_corpus_fold_reproducer_catches_legacy_annihilation():
    """Non-vacuity: the committed fold reproducer fails under the pre-fix
    annihilating fold, so it guards the semantics this fuzzer fixed."""
    path = FUZZ_CORPUS / "fold-seed0-case27.json"
    data = load_reproducer(path)
    assert _legacy_fold_check(data["payload"]) is not None
    assert replay_reproducer(path) is None


def test_corpus_nan_drop_reproducer_catches_legacy_deserialization():
    """Non-vacuity: pre-fix deserialization let ``Polynomial`` silently drop
    nan coefficients, so the poisoned program round-tripped with no error."""
    from repro.polynomials import Monomial, Polynomial

    data = load_reproducer(FUZZ_CORPUS / "serialize-seed0-case12.json")
    outputs = data["payload"]["program"]["outputs"]
    coeffs = [gen.dec_float(c) for out in outputs for _, c in out["terms"]]
    assert any(math.isnan(c) for c in coeffs)
    legacy = Polynomial(
        int(outputs[0]["num_vars"]),
        {
            Monomial(tuple(int(e) for e in ex)): gen.dec_float(c)
            for ex, c in outputs[0]["terms"]
        },
    )
    assert not legacy.terms, "pre-fix constructor drops the nan term silently"
    from repro.lang.serialize import ArtifactError, polynomial_from_dict

    with pytest.raises(ArtifactError):
        polynomial_from_dict(
            {"num_vars": outputs[0]["num_vars"],
             "terms": [[ex, gen.dec_float(c)] for ex, c in outputs[0]["terms"]]}
        )


def test_corpus_negzero_reproducer_catches_legacy_fingerprint():
    """Non-vacuity: hashing the raw (unnormalized) dicts splits the signed-zero
    twins the fixed ``program_fingerprint`` identifies."""
    import hashlib

    from repro.fuzz.properties import _flip_zero_signs

    data = load_reproducer(FUZZ_CORPUS / "serialize-seed0-case3.json")
    program_dict = data["payload"]["program"]
    twin_dict = _flip_zero_signs(program_dict)

    def legacy_digest(d):
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()

    assert legacy_digest(program_dict) != legacy_digest(twin_dict)
    assert replay_reproducer(FUZZ_CORPUS / "serialize-seed0-case3.json") is None


# ----------------------------------------------------------------------- CLI
def test_cli_fuzz_smoke(capsys):
    from repro.cli import main

    code = main(
        ["fuzz", "--seed", "11", "--rounds", "1", "--properties", "fold", "serialize"]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["divergences"] == 0
    assert summary["per_family"] == {"fold": 4, "serialize": 4}


def test_cli_fuzz_list_properties(capsys):
    from repro.cli import main

    assert main(["fuzz", "--list-properties"]) == 0
    out = capsys.readouterr().out
    for name in FAMILIES:
        assert name in out


def test_cli_fuzz_persists_reproducer_and_fails(tmp_path, monkeypatch, capsys):
    """A divergence must exit non-zero and leave a replayable corpus entry."""
    from repro import cli as cli_module
    from repro.fuzz.properties import PropertyFamily

    def broken_check(payload):
        return "always diverges"

    broken = dict(FAMILIES)
    broken["fold"] = PropertyFamily(
        name="fold",
        description=FAMILIES["fold"].description,
        weight=1,
        generate=FAMILIES["fold"].generate,
        check=broken_check,
        shrink_candidates=_shrink_fold,
    )
    monkeypatch.setattr("repro.fuzz.runner.FAMILIES", broken)

    code = cli_module.main(
        [
            "fuzz",
            "--seed", "0",
            "--rounds", "1",
            "--properties", "fold",
            "--no-shrink",
            "--corpus", str(tmp_path),
        ]
    )
    assert code == 1
    saved = sorted(tmp_path.glob("*.json"))
    assert saved, "divergence must persist a reproducer"
    data = json.loads(saved[0].read_text())
    assert data["kind"] == "fuzz-reproducer"
    assert data["message"] == "always diverges"


# ----------------------------------------------------------- env generators
def test_fuzz_env_round_trips_and_steps():
    rng = case_rng(0, "compiled", 0)
    payload = gen.random_env_payload(rng)
    env = gen.env_from_payload(payload)
    state = np.asarray(
        env.init_region.sample(np.random.default_rng(0), 1)[0], dtype=float
    )
    nxt = env.step(state, np.zeros(env.action_dim))
    assert np.all(np.isfinite(nxt))
    again = gen.env_from_payload(payload)
    assert np.array_equal(nxt, again.step(state, np.zeros(env.action_dim)))
