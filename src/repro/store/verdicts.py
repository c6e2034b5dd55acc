"""Store-backed caching of verification verdicts.

Proving a candidate program inductive is the hot path of Algorithm 2 — and it
is *pure*: the outcome is a deterministic function of the closed-loop dynamics,
the program, the initial region, and the verification settings.  The verdict
cache exploits that purity: every kernel verdict is filed under

    sha256(program fingerprint, environment fingerprint, init box, config hash)

so repeated sweeps (``table1``–``table3 --store``, ``repro robustness``,
re-synthesis after runtime adaptation, ``repro verify``) skip re-proving
unchanged shields entirely.

Two properties make a cache hit *exactly* equivalent to a fresh proof:

* the **environment fingerprint** captures the dynamics themselves — the rate
  polynomials are lowered symbolically over ``(state, action)`` variables, so
  two environments agree on the fingerprint iff they have the same transition
  relation, regions, actuator bounds, time step, and disturbance bound.
  Environments whose dynamics cannot be lowered to polynomials symbolically
  get no fingerprint and bypass the cache (sound: a miss just re-proves);
* every entry records the **condition counterexamples** the original search
  emitted, and a hit re-emits them through the caller's recorder, so the
  CEGIS replay cache sees the identical record stream cache-on and cache-off.

Entries are JSON files under ``<root>/<key[:2]>/<key>.json`` (one directory
per shard, like the object store) plus an in-memory layer; a
:class:`VerdictCache` constructed with ``root=None`` is memory-only.  It counts
``verdicts.hits``/``misses``/``puts`` in :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..certificates.backend import VerificationOutcome
from ..lang.serialize import (
    invariant_from_dict,
    invariant_to_dict,
    program_fingerprint,
)
from ..polynomials import Polynomial
from .store import canonical_json, config_hash

__all__ = ["VerdictCache", "environment_fingerprint", "verdict_key"]

_FORMAT = "repro-verdict-cache/v1"


def _poly_payload(poly: Polynomial) -> List[Tuple[Tuple[int, ...], float]]:
    return sorted(
        ((tuple(m.exponents), float(c)) for m, c in poly.terms.items()),
        key=lambda item: item[0],
    )


def environment_fingerprint(env) -> Optional[str]:
    """A 16-hex-digit digest of everything a verdict can depend on.

    Returns ``None`` when the environment's dynamics cannot be lowered to
    polynomials symbolically — callers must then bypass the cache.
    """
    n, m = env.state_dim, env.action_dim
    try:
        state_vars = [Polynomial.variable(i, n + m) for i in range(n)]
        action_vars = [Polynomial.variable(n + j, n + m) for j in range(m)]
        rate = env.rate(state_vars, action_vars)
        rate_payload = [
            _poly_payload(entry)
            if isinstance(entry, Polynomial)
            else [((0,) * (n + m), float(entry))]
            for entry in rate
        ]
    except Exception:  # noqa: BLE001 - non-polynomial dynamics: no fingerprint
        return None
    payload: Dict[str, Any] = {
        "class": type(env).__name__,
        "name": getattr(env, "name", ""),
        "state_dim": n,
        "action_dim": m,
        "dt": float(env.dt),
        "rate": rate_payload,
        "init": [list(env.init_region.low), list(env.init_region.high)],
        "safe": [list(env.safe_box.low), list(env.safe_box.high)],
        "domain": [list(env.domain.low), list(env.domain.high)],
        "action_low": None if env.action_low is None else list(map(float, env.action_low)),
        "action_high": None if env.action_high is None else list(map(float, env.action_high)),
        "disturbance_bound": (
            None
            if env.disturbance_bound is None
            else list(map(float, env.disturbance_bound))
        ),
        "extra_unsafe": [
            [list(box.low), list(box.high)] for box in getattr(env, "extra_unsafe_boxes", [])
        ],
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def verdict_key(program, env, init_box, config) -> Optional[str]:
    """The cache key of one verification query, or ``None`` when uncacheable."""
    env_print = environment_fingerprint(env)
    if env_print is None:
        return None
    payload = {
        "program": program_fingerprint(program),
        "environment": env_print,
        "init_box": [list(init_box.low), list(init_box.high)],
        "config": config_hash(config),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


class VerdictCache:
    """Content-addressed verification verdicts."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else None
        self._memory: Dict[str, Dict[str, Any]] = {}
        # Keys whose on-disk entry exists but failed to load — the next put()
        # overwrites them instead of treating the file as authoritative.
        self._corrupt: set = set()

    # ------------------------------------------------------------------ keys
    def key(self, env, program, init_box, config) -> Optional[str]:
        """Key a query; ``None`` (uncacheable dynamics) disables caching."""
        return verdict_key(program, env, init_box, config)

    # ------------------------------------------------------------------- api
    def get(self, key: str) -> Optional[Tuple[VerificationOutcome, List[Dict[str, Any]]]]:
        """The cached ``(outcome, records)`` for ``key``, counting hit/miss.

        A corrupt, truncated, or malformed entry — whether the JSON, the
        wrapper, or the outcome payload itself — counts as a miss and marks
        the key for overwrite by the next :meth:`put`.
        """
        entry = self._memory.get(key)
        if entry is None and self.root is not None:
            path = self._path_for(key)
            if path.is_file():
                try:
                    wrapper = json.loads(path.read_text())
                except (json.JSONDecodeError, UnicodeDecodeError, OSError):
                    wrapper = None
                if isinstance(wrapper, dict) and wrapper.get("format") == _FORMAT:
                    entry = wrapper.get("entry")
                if entry is None:
                    self._corrupt.add(key)
        if entry is not None:
            try:
                outcome = self._outcome_from(entry)
            except (KeyError, TypeError, ValueError):
                entry = None
                self._memory.pop(key, None)
                self._corrupt.add(key)
        if entry is None:
            obs.count("verdicts.misses")
            return None
        self._memory[key] = entry
        obs.count("verdicts.hits")
        return outcome, list(entry.get("records", []))

    def put(
        self,
        key: str,
        outcome: VerificationOutcome,
        records: List[Dict[str, Any]],
    ) -> None:
        """File a fresh verdict (idempotent; the first write wins)."""
        entry = self._entry_for(outcome, records)
        self._memory.setdefault(key, entry)
        obs.count("verdicts.puts")
        if self.root is None:
            return
        path = self._path_for(key)
        if path.exists() and key not in self._corrupt:
            return
        self._corrupt.discard(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps({"format": _FORMAT, "key": key, "entry": entry}, sort_keys=True)
        )
        tmp.replace(path)

    def __len__(self) -> int:
        count = len(self._memory)
        if self.root is not None and self.root.is_dir():
            on_disk = sum(1 for _ in self.root.glob("*/*.json"))
            count = max(count, on_disk)
        return count

    # ------------------------------------------------------------- internals
    def _path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key[2:]}.json"

    @staticmethod
    def _entry_for(outcome: VerificationOutcome, records: List[Dict[str, Any]]) -> Dict[str, Any]:
        return {
            "verified": bool(outcome.verified),
            "invariant": (
                invariant_to_dict(outcome.invariant) if outcome.invariant is not None else None
            ),
            "backend": outcome.backend,
            "wall_clock_seconds": float(outcome.wall_clock_seconds),
            "failure_reason": outcome.failure_reason,
            "counterexample": (
                None
                if outcome.counterexample is None
                else np.asarray(outcome.counterexample, dtype=float).tolist()
            ),
            "margin": float(outcome.margin),
            "disturbance_aware": bool(outcome.disturbance_aware),
            "attempts": list(outcome.attempts),
            "records": list(records),
        }

    @staticmethod
    def _outcome_from(entry: Dict[str, Any]) -> VerificationOutcome:
        invariant = entry.get("invariant")
        counterexample = entry.get("counterexample")
        return VerificationOutcome(
            verified=bool(entry["verified"]),
            invariant=invariant_from_dict(invariant) if invariant is not None else None,
            backend=str(entry["backend"]),
            wall_clock_seconds=float(entry.get("wall_clock_seconds", 0.0)),
            failure_reason=str(entry.get("failure_reason", "")),
            counterexample=(
                None if counterexample is None else np.asarray(counterexample, dtype=float)
            ),
            margin=float(entry.get("margin", 0.0)),
            disturbance_aware=bool(entry.get("disturbance_aware", True)),
            attempts=tuple(entry.get("attempts", ())),
            from_cache=True,
        )
