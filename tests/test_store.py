"""Tests for the persistent shield artifact store (repro.store).

The load(save(x)) == x property is checked over randomly generated sketch
instantiations (seeded generator, 200+ cases), and corrupted/truncated store
objects must fail with clean :class:`StoreError`/:class:`ArtifactError`
messages rather than surfacing JSON internals or garbage artifacts.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import CEGISConfig, SynthesisConfig, VerificationConfig
from repro.lang import (
    AffineSketch,
    ArtifactError,
    Invariant,
    InvariantUnion,
    GuardedProgram,
    PolynomialSketch,
    ShieldArtifact,
    program_fingerprint,
    program_to_dict,
)
from repro.polynomials import Polynomial, monomial_basis
from repro.store import ShieldStore, StoreError, config_hash


# ------------------------------------------------------------------ generators
def _random_sketch_program(
    rng: np.random.Generator, state_dim: int | None = None, action_dim: int | None = None
):
    """A random instantiation of a random program sketch (affine or polynomial)."""
    state_dim = state_dim if state_dim is not None else int(rng.integers(1, 5))
    action_dim = action_dim if action_dim is not None else int(rng.integers(1, 3))
    if rng.random() < 0.5:
        sketch = AffineSketch(
            state_dim=state_dim,
            action_dim=action_dim,
            include_bias=bool(rng.random() < 0.5),
        )
    else:
        sketch = PolynomialSketch(
            state_dim=state_dim, action_dim=action_dim, degree=int(rng.integers(1, 4))
        )
    theta = rng.normal(scale=3.0, size=sketch.num_parameters)
    return sketch.instantiate(theta)


def _random_invariant(rng: np.random.Generator, state_dim: int) -> Invariant:
    basis = monomial_basis(state_dim, 2)
    poly = Polynomial.from_coefficients(rng.normal(size=len(basis)), basis, state_dim)
    return Invariant(barrier=poly, margin=float(rng.normal()))


def _random_artifact(rng: np.random.Generator) -> ShieldArtifact:
    branches = []
    state_dim = int(rng.integers(1, 5))
    action_dim = int(rng.integers(1, 3))
    for _ in range(int(rng.integers(1, 4))):
        program = _random_sketch_program(rng, state_dim=state_dim, action_dim=action_dim)
        branches.append((_random_invariant(rng, state_dim), program))
    guarded = GuardedProgram(branches=branches)
    return ShieldArtifact(
        program=guarded,
        invariant=InvariantUnion([invariant for invariant, _ in branches]),
        # Non-registry labels: these sketches have random dimensions, so a
        # resolvable environment name would (correctly) trip the put-time
        # static analyzer's dimension checks.  Round-trip tests only need the
        # label itself to survive, not a real environment behind it.
        environment=str(rng.choice(["bench_a", "bench_b", "bench_c", ""])),
        metadata={
            "seed": int(rng.integers(0, 100)),
            "config_hash": f"{int(rng.integers(0, 2**32)):08x}",
            "program_size": len(branches),
        },
    )


@pytest.fixture()
def store(tmp_path) -> ShieldStore:
    return ShieldStore(tmp_path / "store")


# ------------------------------------------------------------------ round trip
class TestStoreRoundTrip:
    def test_property_round_trip_200_random_sketch_instantiations(self, store):
        rng = np.random.default_rng(42)
        seen_keys = set()
        for _ in range(200):
            artifact = _random_artifact(rng)
            key = store.put(artifact)
            seen_keys.add(key)
            restored = store.get(key)
            assert program_to_dict(restored.program) == program_to_dict(artifact.program)
            assert program_fingerprint(restored.program) == program_fingerprint(
                artifact.program
            )
            assert len(restored.invariant) == len(artifact.invariant)
            assert restored.environment == artifact.environment
            assert restored.metadata == artifact.metadata
        assert len(store.list()) == len(seen_keys)

    def test_round_trip_preserves_behaviour(self, store):
        rng = np.random.default_rng(7)
        artifact = _random_artifact(rng)
        restored = store.get(store.put(artifact))
        states = rng.normal(size=(25, artifact.program.branches[0][1].state_dim))
        for invariant, restored_invariant in zip(
            artifact.invariant, restored.invariant
        ):
            np.testing.assert_allclose(
                restored_invariant.value_batch(states), invariant.value_batch(states)
            )

    def test_put_is_idempotent_and_content_addressed(self, store):
        rng = np.random.default_rng(3)
        artifact = _random_artifact(rng)
        key1 = store.put(artifact)
        key2 = store.put(artifact)
        assert key1 == key2
        assert len(store.list()) == 1

    def test_different_artifacts_get_different_keys(self, store):
        rng = np.random.default_rng(4)
        keys = {store.put(_random_artifact(rng)) for _ in range(10)}
        assert len(keys) == 10


# -------------------------------------------------------------------- lookups
class TestStoreLookup:
    def test_get_by_unique_prefix(self, store):
        key = store.put(_random_artifact(np.random.default_rng(0)))
        assert store.resolve(key[:12]) == key
        assert program_to_dict(store.get(key[:12]).program) == program_to_dict(
            store.get(key).program
        )

    def test_too_short_prefix_rejected(self, store):
        store.put(_random_artifact(np.random.default_rng(0)))
        with pytest.raises(StoreError, match="too short"):
            store.resolve("abc")

    def test_missing_key_raises(self, store):
        with pytest.raises(StoreError, match="no stored shield"):
            store.get("0" * 64)

    def test_find_by_environment_config_hash_and_seed(self, store):
        rng = np.random.default_rng(5)
        artifacts = [_random_artifact(rng) for _ in range(8)]
        for artifact in artifacts:
            store.put(artifact)
        wanted = artifacts[3]
        matches = store.find(
            environment=wanted.environment,
            config_hash=wanted.metadata["config_hash"],
            seed=wanted.metadata["seed"],
        )
        assert any(
            entry.metadata["config_hash"] == wanted.metadata["config_hash"]
            for entry in matches
        )
        assert store.find(environment="no_such_env") == []

    def test_delete(self, store):
        key = store.put(_random_artifact(np.random.default_rng(1)))
        store.delete(key[:12])
        assert store.list() == []
        with pytest.raises(StoreError):
            store.get(key)


# ----------------------------------------------------------------- corruption
class TestStoreCorruption:
    def _object_path(self, store: ShieldStore):
        entries = store.list()
        assert entries
        return entries[0].path, entries[0].key

    def test_truncated_object_raises_clean_error(self, store):
        store.put(_random_artifact(np.random.default_rng(2)))
        path, key = self._object_path(store)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(StoreError, match="corrupt|truncated"):
            store.get(key)

    def test_binary_garbage_raises_clean_error(self, store):
        store.put(_random_artifact(np.random.default_rng(2)))
        path, key = self._object_path(store)
        path.write_bytes(b"\x00\xff\xfe not json at all")
        with pytest.raises(StoreError):
            store.get(key)

    def test_tampered_payload_fails_integrity_check(self, store):
        store.put(_random_artifact(np.random.default_rng(2)))
        path, key = self._object_path(store)
        wrapper = json.loads(path.read_text())
        wrapper["artifact"]["metadata"]["seed"] = 424242
        path.write_text(json.dumps(wrapper))
        with pytest.raises(StoreError, match="corrupt"):
            store.get(key)

    def test_missing_artifact_field_raises(self, store):
        store.put(_random_artifact(np.random.default_rng(2)))
        path, key = self._object_path(store)
        path.write_text(json.dumps({"key": key, "saved_at": 0.0}))
        with pytest.raises(StoreError, match="not a"):
            store.get(key)

    def test_artifact_error_is_value_error(self):
        assert issubclass(ArtifactError, ValueError)
        assert issubclass(StoreError, ValueError)


# ---------------------------------------------------------------- config hash
class TestConfigHash:
    def test_stable_across_calls(self):
        config = CEGISConfig(seed=3)
        assert config_hash(config) == config_hash(CEGISConfig(seed=3))

    def test_sensitive_to_nested_fields(self):
        base = CEGISConfig()
        assert config_hash(base) != config_hash(CEGISConfig(seed=1))
        assert config_hash(base) != config_hash(
            CEGISConfig(synthesis=SynthesisConfig(iterations=99))
        )
        assert config_hash(base) != config_hash(
            CEGISConfig(verification=VerificationConfig(invariant_degree=4))
        )

    def test_short_hex_digest(self):
        digest = config_hash(CEGISConfig())
        assert len(digest) == 16
        int(digest, 16)  # must be valid hex


# ------------------------------------------------------- service reuse key
class TestServiceReuseKey:
    def test_oracle_method_is_part_of_the_reuse_key(self, tmp_path, monkeypatch):
        import repro.store.service as service_module
        from repro.baselines import make_lqr_policy
        from repro.core.distance import DistanceConfig
        from repro.envs import make_environment
        from repro.store import SynthesisService

        env = make_environment("satellite")
        oracle = make_lqr_policy(env)
        config = CEGISConfig(
            synthesis=SynthesisConfig(
                iterations=5,
                distance=DistanceConfig(num_trajectories=2, trajectory_length=50),
                seed=0,
            ),
            verification=VerificationConfig(backend="lyapunov"),
            max_counterexamples=4,
        )
        service = SynthesisService(store=ShieldStore(tmp_path / "store"))
        stored = service.synthesize(
            env, oracle, config=config, environment="satellite", oracle_method="ars"
        )
        assert not stored.from_store
        assert stored.artifact.metadata["oracle"] == "ars"

        class Missed(Exception):
            pass

        def synthesize_shield(*args, **kwargs):
            raise Missed

        monkeypatch.setattr(service_module, "synthesize_shield", synthesize_shield)
        with pytest.raises(Missed):
            service.synthesize(
                env, oracle, config=config, environment="satellite", oracle_method="ddpg"
            )
        reused = service.synthesize(
            env, oracle, config=config, environment="satellite", oracle_method="ars"
        )
        assert reused.from_store and reused.key == stored.key
