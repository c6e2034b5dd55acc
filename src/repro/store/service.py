"""The synthesis service: store-backed, cache-accelerated, parallel CEGIS.

:class:`SynthesisService` is the front door the CLI and the experiment
modules use instead of calling :func:`~repro.core.toolchain.synthesize_shield`
directly.  For every request it

1. looks the shield up in the :class:`~repro.store.ShieldStore` by
   ``(environment, config hash, seed)`` — a hit deserializes in milliseconds
   and skips synthesis entirely (what makes ``table1``/``table3`` reruns and
   interrupted sweeps resumable);
2. on a miss, runs the CEGIS loop with the service's worker count and shared
   counterexample replay cache;
3. persists the new shield with full provenance (environment id, seed, config
   hash, certificate backends, wall-clock, cache counters, worker count).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import numpy as np

from ..compile import warm_kernel_cache
from ..core.cegis import CEGISConfig, CEGISResult
from ..core.replay import CounterexampleCache
from ..core.shield import Shield
from ..core.toolchain import ShieldSynthesisResult, synthesize_shield
from ..envs.base import EnvironmentContext
from ..lang.invariant import InvariantUnion
from ..lang.program import GuardedProgram
from ..lang.serialize import ShieldArtifact
from ..lang.sketch import ProgramSketch
from .store import ShieldStore, StoreError, config_hash
from .verdicts import VerdictCache

__all__ = ["ServiceResult", "SynthesisService", "branch_regions", "resolve_shield"]


def branch_regions(artifact: ShieldArtifact):
    """The per-branch synthesis regions recorded in an artifact's provenance.

    Returns a list of :class:`~repro.certificates.regions.Box` (one per
    branch, in branch order), or ``None`` for artifacts that predate region
    provenance.  This is the single decoder every recheck path shares, so the
    reconstructed boxes — and therefore the verdict-cache keys — always match
    what the original CEGIS proofs used.
    """
    from ..certificates.regions import Box

    regions = artifact.metadata.get("branch_regions") or []
    if not regions:
        return None
    return [Box(low=tuple(low), high=tuple(high)) for low, high in regions]


class InputError(ValueError):
    """Outside input that names no usable shield or environment.

    A missing or malformed artifact file, a benchmark name the registry does
    not know, or malformed constructor overrides.  ``repro`` prints it on one
    ``error:`` line and exits 2.
    """


@dataclass
class ResolvedShield:
    """A saved shield and the environment it is checked or deployed on."""

    artifact: ShieldArtifact
    env: EnvironmentContext
    #: The registry name ``env`` was built from.
    environment: str
    #: The store key, or ``""`` for an artifact file.
    key: str = ""


def load_environment(name: str, overrides: Optional[Dict[str, Any]] = None) -> EnvironmentContext:
    """Build registry benchmark ``name`` with constructor ``overrides``.

    An unknown name is an :class:`InputError`.
    """
    from ..envs import BENCHMARKS, make_environment

    if name not in BENCHMARKS:
        raise InputError(f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}")
    return make_environment(name, **dict(overrides or {}))


def resolve_shield(
    source: str,
    store: ShieldStore | None = None,
    environment: Optional[str] = None,
    overrides: Optional[Dict[str, Any]] = None,
) -> ResolvedShield:
    """Open a saved shield on the environment it was verified against.

    ``source`` is an artifact file, or else a key (or unique prefix) in
    ``store``.  The artifact's recorded environment name and constructor
    overrides apply unless ``environment`` or ``overrides`` replaces them;
    the recorded overrides belong to the recorded name, so naming another
    environment drops them.
    """
    from ..lang.serialize import ArtifactError, load_artifact

    key = ""
    if Path(source).is_file():
        try:
            artifact = load_artifact(source)
        except ArtifactError as error:
            raise InputError(str(error)) from None
    elif store is None:
        raise InputError(f"no artifact file {source}")
    else:
        try:
            key = store.resolve(source)
        except StoreError as error:
            raise InputError(f"no artifact file {source}, and {error}") from None
        artifact = store.get(key)
    name = environment or artifact.environment
    if not name:
        raise InputError("the artifact does not record an environment; pass --env")
    if overrides is None:
        overrides = artifact.environment_overrides if name == artifact.environment else {}
    return ResolvedShield(artifact, load_environment(name, overrides), name, key)


@dataclass
class ServiceResult:
    """A shield obtained through the service, fresh or reloaded."""

    shield: Shield
    program: GuardedProgram
    invariant: InvariantUnion
    artifact: ShieldArtifact
    key: str = ""
    from_store: bool = False
    cegis: Optional[CEGISResult] = None
    total_seconds: float = 0.0

    @property
    def program_size(self) -> int:
        if self.cegis is not None:
            return self.cegis.program_size
        return int(self.artifact.metadata.get("program_size", len(self.program.branches)))

    @property
    def synthesis_seconds(self) -> float:
        """Synthesis + verification wall-clock; 0.0 for a store hit (nothing ran)."""
        if self.cegis is not None:
            return self.cegis.synthesis_seconds
        return 0.0

    @property
    def stored_synthesis_seconds(self) -> float:
        """The wall-clock originally paid for this shield, from provenance."""
        return float(self.artifact.metadata.get("synthesis_seconds", 0.0))


class SynthesisService:
    """Store lookup → parallel CEGIS on miss → persist with provenance."""

    def __init__(
        self,
        store: ShieldStore | str | None = None,
        workers: int = 1,
        replay_cache: CounterexampleCache | None = None,
        verdict_cache: VerdictCache | None = None,
        use_verdict_cache: bool = True,
    ) -> None:
        if store is not None and not isinstance(store, ShieldStore):
            store = ShieldStore(store)
        self.store = store
        self.workers = int(workers)
        self.replay_cache = replay_cache
        # Store-backed verification-verdict memo: lives next to the shield
        # objects (<store>/verdicts) so sweeps over an unchanged store skip
        # re-proving unchanged shields.  A service without a store keeps no
        # verdict cache unless one is passed explicitly.
        if verdict_cache is None and store is not None and use_verdict_cache:
            verdict_cache = VerdictCache(store.root / "verdicts")
        self.verdict_cache = verdict_cache if use_verdict_cache else None

    def synthesize(
        self,
        env: EnvironmentContext,
        oracle: Callable[[np.ndarray], np.ndarray],
        config: Optional[CEGISConfig] = None,
        sketch: Optional[ProgramSketch] = None,
        environment: str = "",
        environment_overrides: Optional[Dict[str, Any]] = None,
        reuse: bool = True,
        extra_metadata: Optional[Dict[str, Any]] = None,
    ) -> ServiceResult:
        """Return a shield for ``(env, oracle, config)``, reusing the store if possible.

        ``environment`` should be the registry name under which the shield can
        be reconstructed later; it defaults to ``env.name``.  ``reuse=False``
        forces a fresh synthesis (the result is still persisted).
        """
        from dataclasses import replace

        start = time.perf_counter()
        config = config or CEGISConfig()
        environment = environment or getattr(env, "name", "")
        # Hash the *effective* config — including the service-level worker
        # count — so runs under different parallelism never collide on one
        # store key and the recorded provenance matches what actually ran.
        config = replace(config, workers=self.workers)
        cfg_hash = config_hash(config)
        # A shield is only valid for the exact dynamics it was verified
        # against (§2.2), so constructor overrides are part of the reuse key.
        overrides_hash = config_hash(dict(environment_overrides or {}))

        if self.store is not None and reuse:
            entries = self.store.find(
                environment=environment,
                config_hash=cfg_hash,
                seed=config.seed,
                overrides_hash=overrides_hash,
            )
            if entries:
                artifact = self.store.get(entries[0].key)
                shield = artifact.build_shield(env, oracle)
                # Pre-compile the deployable kernels into the process-wide
                # cache so the first campaign over a store hit is already a
                # kernel-cache hit.
                warm_kernel_cache(program=artifact.program, invariant=artifact.invariant)
                return ServiceResult(
                    shield=shield,
                    program=artifact.program,
                    invariant=artifact.invariant,
                    artifact=artifact,
                    key=entries[0].key,
                    from_store=True,
                    total_seconds=time.perf_counter() - start,
                )

        result = synthesize_shield(
            env,
            oracle,
            sketch=sketch,
            config=config,
            replay_cache=self.replay_cache,
            verdict_cache=self.verdict_cache,
        )
        artifact = self._artifact_for(
            result,
            environment,
            environment_overrides,
            cfg_hash,
            overrides_hash,
            config,
            extra_metadata,
        )
        # Static lint before persisting: warning-severity findings are
        # recorded in provenance (only when present, so clean artifacts keep
        # their store keys); error-severity findings make ``put`` reject.
        from ..analysis import analyze_artifact

        lint = analyze_artifact(artifact, env=env)
        if lint.warnings:
            artifact.metadata["lint_warnings"] = sorted(
                {d.code for d in lint.warnings}
            )
        key = self.store.put(artifact) if self.store is not None else ""
        warm_kernel_cache(program=result.program, invariant=result.invariant)
        return ServiceResult(
            shield=result.shield,
            program=result.program,
            invariant=result.invariant,
            artifact=artifact,
            key=key,
            from_store=False,
            cegis=result.cegis,
            total_seconds=time.perf_counter() - start,
        )

    def verify_stored(
        self,
        source: "ResolvedShield | str",
        verification: Optional["VerificationConfig"] = None,
        use_cache: bool = True,
    ):
        """Re-prove a stored shield's branches through the verification kernel.

        ``source`` is a :class:`ResolvedShield`, or a store key (or artifact
        file) that :func:`resolve_shield` opens on its recorded environment.
        Each branch is re-verified on its recorded synthesis region
        (artifacts persisted since the kernel refactor carry
        ``branch_regions``; older ones fall back to the environment's full
        initial region), with verdicts served from the service's store-backed
        verdict cache when possible — re-verifying an unchanged shield costs
        cache reads, not proofs.

        Returns ``(all_ok, outcomes, artifact)`` where ``outcomes`` are the
        per-branch :class:`~repro.core.verification.VerificationOutcome`\\ s
        with full backend provenance.
        """
        from ..runtime.adaptation import recheck_certificate

        if isinstance(source, str):
            source = resolve_shield(source, self.store)
        all_ok, outcomes = recheck_certificate(
            source.env,
            source.artifact.program,
            verification=verification,
            verdict_cache=self.verdict_cache if use_cache else None,
            regions=branch_regions(source.artifact),
        )
        return all_ok, outcomes, source.artifact

    # ------------------------------------------------------------- internals
    def _artifact_for(
        self,
        result: ShieldSynthesisResult,
        environment: str,
        environment_overrides: Optional[Dict[str, Any]],
        cfg_hash: str,
        overrides_hash: str,
        config: CEGISConfig,
        extra_metadata: Optional[Dict[str, Any]],
    ) -> ShieldArtifact:
        cegis = result.cegis
        backends = sorted({branch.verification_backend for branch in cegis.branches})
        metadata: Dict[str, Any] = {
            # Per-branch initial regions: the boxes each (P_i, φ_i) pair was
            # actually verified on.  `repro verify` and the sweep rechecks
            # re-prove each branch on its own region (and therefore share
            # verdict-cache keys with the original CEGIS proofs).
            "branch_regions": [
                [list(branch.region.low), list(branch.region.high)]
                for branch in cegis.branches
            ],
            "program_size": result.program_size,
            "synthesis_seconds": round(result.synthesis_seconds, 6),
            "total_seconds": round(result.total_seconds, 6),
            "seed": config.seed,
            "config_hash": cfg_hash,
            "overrides_hash": overrides_hash,
            "certificate_backends": ",".join(backends),
            "workers": cegis.workers,
            "rounds": cegis.rounds,
            "cache_hits": cegis.cache_hits,
            "cache_misses": cegis.cache_misses,
            "counterexamples_used": cegis.counterexamples_used,
            "statically_pruned": cegis.statically_pruned,
        }
        if extra_metadata:
            metadata.update(extra_metadata)
        return ShieldArtifact(
            program=result.program,
            invariant=result.invariant,
            environment=environment,
            environment_overrides=dict(environment_overrides or {}),
            metadata=metadata,
        )
