"""Process-wide kernel cache keyed by artifact fingerprints.

Lowering is cheap but not free (it walks the syntax tree once and builds the
monomial tables), and a sweep compiles the *same* shield for every campaign,
episode batch, and re-check it appears in.  This cache memoises compiled
kernels by the same content fingerprint the shield store uses
(:func:`~repro.lang.serialize.program_fingerprint` — canonical JSON → SHA-256)
so ``SynthesisService`` and ``ShardPool`` compile each artifact once per
process no matter how many runs touch it.

Lookups count as ``kernel_cache.hits``/``misses`` in :mod:`repro.obs`; the CI
smoke asserts the second campaign over a stored shield is a pure hit.
Objects that cannot be fingerprinted or lowered (custom program classes,
non-polynomial invariants) simply return ``None`` and the caller stays on the
interpreted path.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from .. import obs
from .kernels import lower_guards, lower_program
from .lowering import LoweringError

__all__ = [
    "KernelCache",
    "KERNEL_CACHE",
    "compiled_program_for",
    "compiled_guards_for",
    "warm_kernel_cache",
    "kernel_cache_stats",
    "clear_kernel_cache",
]


class KernelCache:
    """A fingerprint-keyed memo table; lookups count in :mod:`repro.obs`.

    Bounded LRU: CEGIS replays witnesses against hundreds of *transient*
    candidate programs per synthesis run, each of which compiles exactly once
    and is never seen again — without eviction those dead kernels would
    accumulate for the life of the process.  The default capacity keeps every
    artifact a realistic sweep actually reuses (stored shields and guards)
    while the candidate churn falls off the cold end.
    """

    def __init__(self, max_entries: int = 512) -> None:
        self._entries: Dict[Any, Any] = {}
        self.max_entries = int(max_entries)

    def get_or_build(self, key: Any, builder):
        try:
            kernel = self._entries.pop(key)
        except KeyError:
            obs.count("kernel_cache.misses")
            kernel = builder()
        else:
            obs.count("kernel_cache.hits")
        self._entries[key] = kernel  # (re)insert at the warm end
        while len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        return kernel

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


KERNEL_CACHE = KernelCache()


def _program_key(program) -> Optional[str]:
    from ..lang.serialize import program_fingerprint

    try:
        return "program:" + program_fingerprint(program)
    except (TypeError, ValueError, AttributeError):
        return None


def _invariant_key(invariant) -> Optional[str]:
    from ..lang.serialize import invariant_to_dict, invariant_union_to_dict

    try:
        members = getattr(invariant, "members", None)
        data = (
            invariant_union_to_dict(invariant)
            if members is not None
            else invariant_to_dict(invariant)
        )
    except (TypeError, ValueError, AttributeError):
        return None
    body = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return "guards:" + hashlib.sha256(body.encode()).hexdigest()


def compiled_program_for(program):
    """The cached compiled kernel for a policy program, or ``None``."""
    key = _program_key(program)
    if key is None:
        return None
    try:
        return KERNEL_CACHE.get_or_build(key, lambda: lower_program(program))
    except LoweringError:
        return None


def compiled_guards_for(invariant):
    """The cached compiled guard set for an invariant (union), or ``None``."""
    key = _invariant_key(invariant)
    if key is None:
        return None
    try:
        return KERNEL_CACHE.get_or_build(key, lambda: lower_guards(invariant))
    except LoweringError:
        return None


def warm_kernel_cache(program=None, invariant=None) -> None:
    """Pre-compile a shield's kernels (used by the synthesis service on load)."""
    if program is not None:
        compiled_program_for(program)
    if invariant is not None:
        compiled_guards_for(invariant)


def kernel_cache_stats() -> Dict[str, int]:
    """Entries of the process-wide kernel cache, and this process's lookups."""
    counts = obs.snapshot()
    return {
        "entries": len(KERNEL_CACHE),
        "hits": counts.get("kernel_cache.hits", 0),
        "misses": counts.get("kernel_cache.misses", 0),
    }


def clear_kernel_cache() -> None:
    """Drop all compiled kernels (used by tests isolating cache behaviour)."""
    KERNEL_CACHE.clear()
