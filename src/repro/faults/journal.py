"""Crash-safe append-only journals: sweep rows and shard checkpoint manifests.

Both journals are JSON-lines files with a self-describing header line carrying
a fingerprint of the work they checkpoint.  Appends are flushed and fsynced
record by record, so a SIGKILL loses at most the record being written — and a
torn trailing line is tolerated on load (everything before it is kept).  A
fingerprint mismatch on resume (different experiment, scale, seed, shard plan)
discards the journal rather than resuming someone else's work.

* :class:`RowJournal` checkpoints one experiment row per line
  (``table1``/``table2``/``table3``/``robustness`` sweeps); ``--resume``
  re-executes only rows missing from the journal.
* :class:`ShardManifest` checkpoints one completed shard per line (result
  array slice + counter deltas) for long ``repro run`` campaigns; a resumed
  run pre-fills the arena from the manifest and executes only missing shards.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["JournalError", "RowJournal", "ShardManifest"]

_ROW_MAGIC = "repro-row-journal/v1"
_SHARD_MAGIC = "repro-shard-manifest/v2"


class JournalError(ValueError):
    """A journal file is unusable (unwritable path, malformed header)."""


def _fingerprint(meta: Dict[str, Any]) -> str:
    body = json.dumps(meta, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


class _JsonlJournal:
    """Shared machinery: header + fsynced appends + torn-tail-tolerant load."""

    magic = ""

    def __init__(self, path: str | Path, meta: Optional[Dict[str, Any]] = None) -> None:
        self.path = Path(path)
        self.meta = dict(meta or {})
        self.fingerprint = _fingerprint(self.meta)

    def load(self) -> Optional[List[Dict[str, Any]]]:
        """Entries of a matching journal; ``None`` = missing/foreign/corrupt header."""
        try:
            text = self.path.read_text()
        except (FileNotFoundError, OSError):
            return None
        entries: List[Dict[str, Any]] = []
        header = None
        for line_number, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                # A torn trailing line is the expected SIGKILL signature; keep
                # everything already durable and stop there.
                break
            if line_number == 0:
                header = payload
                if (
                    not isinstance(header, dict)
                    or header.get("kind") != self.magic
                    or header.get("fingerprint") != self.fingerprint
                ):
                    return None
                continue
            if isinstance(payload, dict):
                entries.append(payload)
        if header is None:
            return None
        return entries

    def begin(self, resume: bool = False) -> List[Dict[str, Any]]:
        """Open the journal; with ``resume`` return any durable entries.

        Without ``resume`` (or when the existing file belongs to different
        work) the journal restarts with a fresh header.
        """
        if resume:
            entries = self.load()
            if entries is not None:
                return entries
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {"kind": self.magic, "fingerprint": self.fingerprint, "meta": self.meta}
        with open(self.path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True, default=str) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        return []

    def append(self, entry: Dict[str, Any]) -> None:
        # No key sorting: insertion order is the sweep's column order, and a
        # resumed report must render byte-identically to an uninterrupted one.
        with open(self.path, "a") as handle:
            handle.write(json.dumps(entry) + "\n")
            handle.flush()
            os.fsync(handle.fileno())


class RowJournal(_JsonlJournal):
    """Per-row checkpointing for experiment sweeps (keyed rows)."""

    magic = _ROW_MAGIC

    def begin(self, resume: bool = False) -> Dict[str, Dict[str, Any]]:  # type: ignore[override]
        entries = super().begin(resume=resume)
        completed: Dict[str, Dict[str, Any]] = {}
        for entry in entries:
            key = entry.get("key")
            row = entry.get("row")
            if isinstance(key, str) and isinstance(row, dict):
                completed[key] = row
        return completed

    def record(self, key: str, row: Dict[str, Any]) -> None:
        self.append({"key": key, "row": row})


class ShardManifest(_JsonlJournal):
    """Per-shard checkpointing for sharded campaigns (keyed by shard index)."""

    magic = _SHARD_MAGIC

    def begin(self, resume: bool = False) -> Dict[int, Dict[str, Any]]:  # type: ignore[override]
        entries = super().begin(resume=resume)
        completed: Dict[int, Dict[str, Any]] = {}
        for entry in entries:
            index = entry.get("index")
            if isinstance(index, int):
                completed[index] = entry
        return completed
