"""Persistent shield artifact store, verdict cache, and the synthesis service."""

from .service import ServiceResult, SynthesisService, branch_regions, resolve_shield
from .store import (
    DEFAULT_STORE_DIR,
    CorruptArtifactError,
    ShieldStore,
    StoreEntry,
    StoreError,
    canonical_json,
    canonical_payload,
    config_hash,
)
from .verdicts import VerdictCache, environment_fingerprint, verdict_key

__all__ = [
    "DEFAULT_STORE_DIR",
    "CorruptArtifactError",
    "ShieldStore",
    "StoreEntry",
    "StoreError",
    "canonical_json",
    "canonical_payload",
    "config_hash",
    "ServiceResult",
    "SynthesisService",
    "branch_regions",
    "resolve_shield",
    "VerdictCache",
    "environment_fingerprint",
    "verdict_key",
]
