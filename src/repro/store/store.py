"""The on-disk content-addressed store: sharded objects + JSONL index.

Layout (all under one store directory)::

    <store>/objects/ab/cdef...0123.json   one JSON object per result,
                                          sharded by the first two hex
                                          chars of the fingerprint
    <store>/index.jsonl                   append-only catalog: one line
                                          per put (fingerprint, label,
                                          timestamps) for ls/gc/stats
    <store>/meta.json                     schema tag + creation record

Durability and concurrency inherit the repository's atomic-IO
discipline (:mod:`repro.util.atomicio`):

* **Objects** are written via write-temp-fsync-rename, so a reader
  sees a complete object or nothing — never a torn prefix. Concurrent
  writers of the same fingerprint race safely: both temp files hold
  byte-identical payloads (results are pure functions of the
  fingerprinted closure), so last-writer-wins is a no-op.
* **The index** uses the durable single-line append; a crash can tear
  at worst the final line, which readers skip. The index is a cache of
  the object tree, not the source of truth — ``ls``/``stats`` fall
  back to scanning objects when entries are missing, and ``gc``
  rewrites it atomically to drop entries for deleted objects only.
* **Corruption is demoted to a miss.** Every object embeds a sha256 of
  its payload; ``get`` re-verifies on read, and a torn/bit-flipped
  object counts ``store.corrupt`` and returns ``None`` — the sweep
  recomputes that cell and the subsequent ``put`` heals the object.
  A corrupt entry is never served.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import telemetry
from repro.sim.results import SimulationResult
from repro.util.atomicio import (
    atomic_append_jsonl,
    atomic_write_json,
    read_jsonl,
)
from repro.util.fingerprint import digest_payload
from repro.store.fingerprint import STORE_SCHEMA, cell_fingerprint

#: Environment variable naming the default store directory.
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Conventional in-repo store location (what the docs suggest; nothing
#: creates it unless a command is pointed at it).
DEFAULT_STORE_DIR = ".repro-store"

INDEX_NAME = "index.jsonl"
META_NAME = "meta.json"
OBJECTS_DIR = "objects"


def resolve_store_dir(
    store_dir: Optional[Union[str, Path]] = None,
    no_store: bool = False,
) -> Optional[Path]:
    """CLI/env resolution: explicit flag beats ``$REPRO_STORE_DIR``;
    ``no_store`` beats both. ``None`` means the store stays off."""
    if no_store:
        return None
    if store_dir:
        return Path(store_dir)
    env = os.environ.get(STORE_DIR_ENV, "").strip()
    return Path(env) if env else None


def _is_fingerprint(text: str) -> bool:
    return len(text) == 64 and all(c in "0123456789abcdef" for c in text)


class ResultStore:
    """A persistent, content-addressed cache of sweep-cell results.

    Instances are cheap (no open handles between calls) and safe to use
    from many processes against one directory. Per-instance session
    counters (`hits`/`misses`/`puts`/`corrupt`) always accumulate;
    matching ``store.*`` telemetry counters fire when collection is
    enabled, so warm-ratio numbers land in the metrics document.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.session: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "corrupt": 0,
        }

    # -- paths --------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.directory / OBJECTS_DIR

    @property
    def index_path(self) -> Path:
        return self.directory / INDEX_NAME

    @property
    def meta_path(self) -> Path:
        return self.directory / META_NAME

    def object_path(self, fingerprint: str) -> Path:
        """``objects/ab/cdef...json`` — sharded so one directory never
        holds more than 1/256th of the store."""
        return (
            self.objects_dir / fingerprint[:2] / (fingerprint[2:] + ".json")
        )

    # -- lifecycle ----------------------------------------------------

    def ensure(self) -> "ResultStore":
        """Create the directory skeleton (idempotent, concurrent-safe)."""
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        if not self.meta_path.exists():
            atomic_write_json(
                self.meta_path,
                {"schema": STORE_SCHEMA, "created_at": _now_iso()},
            )
        return self

    # -- core CAS operations ------------------------------------------

    @staticmethod
    def key(cell: Any, config: Any) -> str:
        """The address of ``cell``'s result: every cell has one."""
        return cell_fingerprint(cell, config)

    def contains(self, fingerprint: str) -> bool:
        """Cheap existence probe — no digest verification (``get`` does
        that); a corrupt object still reads as a miss later."""
        return self.object_path(fingerprint).exists()

    def get(self, fingerprint: str) -> Optional[SimulationResult]:
        """The result stored under ``fingerprint``, or ``None``.

        ``None`` covers both a genuine miss and a corrupt object (torn
        write from a crashed writer, bit rot); corruption additionally
        counts ``store.corrupt``. Either way the caller recomputes —
        a corrupt entry is never served.
        """
        path = self.object_path(fingerprint)
        try:
            text = path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            self._count("misses")
            return None
        problem = _object_problem(text, fingerprint)
        if problem is not None:
            self._count("corrupt")
            self._count("misses")
            telemetry.emit_event(
                "store_corrupt", fingerprint=fingerprint, problem=problem
            )
            return None
        payload = json.loads(text)["payload"]
        self._count("hits")
        return SimulationResult.from_json_dict(payload)

    def put(
        self,
        fingerprint: str,
        result: SimulationResult,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist ``result`` under ``fingerprint`` (atomic, idempotent).

        Safe under concurrent multi-process writers: the object lands
        via write-temp-rename (unique temp names, atomic replace), and
        two writers of one fingerprint carry byte-identical payloads by
        the store's purity contract, so last-writer-wins cannot lose
        information. The index append is durable and single-line;
        duplicate index lines for one fingerprint are collapsed on read.
        """
        self.ensure()
        payload = result.to_json_dict()
        document = {
            "schema": STORE_SCHEMA,
            "fingerprint": fingerprint,
            "payload": payload,
            "payload_digest": digest_payload(payload),
        }
        if meta:
            document["meta"] = meta
        path = self.object_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Insertion order is preserved on disk deliberately: the codec
        # (to_json/from_json) keys stat dicts in emission order, and a
        # warm read must serialize byte-identically to the cold result
        # it replaced. The payload digest is canonical-JSON (sorted), so
        # verification is order-insensitive either way.
        atomic_write_json(path, document, indent=None, sort_keys=False)
        atomic_append_jsonl(
            self.index_path,
            {
                "fingerprint": fingerprint,
                "protocol": result.protocol,
                "workload": result.workload,
                "accesses": result.accesses,
                "created_at": _now_iso(),
            },
        )
        self._count("puts")
        return path

    @staticmethod
    def normalize(result: SimulationResult) -> SimulationResult:
        """A result as it would read back from the store (full JSON
        round trip). The incremental runners pass freshly computed
        misses through this, so a warm sweep and a cold sweep return
        structurally indistinguishable objects — the same codec
        discipline the run journal applies."""
        return SimulationResult.from_json(result.to_json())

    # -- maintenance --------------------------------------------------

    def fingerprints(self) -> List[str]:
        """Every object currently on disk (the source of truth)."""
        found: List[str] = []
        if not self.objects_dir.exists():
            return found
        for shard in sorted(self.objects_dir.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.iterdir()):
                if entry.suffix == ".json":
                    fingerprint = shard.name + entry.stem
                    if _is_fingerprint(fingerprint):
                        found.append(fingerprint)
        return found

    def verify(self) -> Dict[str, Any]:
        """Re-hash every object; report (and count) corruption.

        Returns ``{"checked": n, "ok": n, "corrupt": [{fingerprint,
        problem}, ...]}``. Verification never deletes — a corrupt
        object is healed by the next recompute's ``put``, and leaving
        it in place keeps the evidence for a curious operator.
        """
        corrupt: List[Dict[str, str]] = []
        checked = 0
        for fingerprint in self.fingerprints():
            checked += 1
            try:
                text = self.object_path(fingerprint).read_text(
                    encoding="utf-8"
                )
            except OSError as exc:
                corrupt.append(
                    {"fingerprint": fingerprint, "problem": str(exc)}
                )
                continue
            problem = _object_problem(text, fingerprint)
            if problem is not None:
                corrupt.append(
                    {"fingerprint": fingerprint, "problem": problem}
                )
        self.session["corrupt"] += len(corrupt)
        if corrupt:
            telemetry.counter("store.corrupt").inc(len(corrupt))
        return {
            "checked": checked,
            "ok": checked - len(corrupt),
            "corrupt": corrupt,
        }

    def gc(
        self,
        max_age_seconds: Optional[float] = None,
        max_objects: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Expire objects by age and/or count; compact the index.

        ``max_age_seconds`` drops objects whose mtime is older than the
        horizon; ``max_objects`` then keeps only the newest N. Both
        ``None`` makes gc a pure index compaction (drop lines whose
        objects vanished, dedupe). The index rewrite is atomic and
        keeps exactly the entries of surviving objects — live entries
        are never deleted.
        """
        now = time.time() if now is None else now
        ages: List[tuple] = []  # (mtime, fingerprint)
        for fingerprint in self.fingerprints():
            try:
                mtime = self.object_path(fingerprint).stat().st_mtime
            except OSError:
                continue
            ages.append((mtime, fingerprint))
        doomed: List[str] = []
        if max_age_seconds is not None:
            horizon = now - max_age_seconds
            doomed.extend(fp for mtime, fp in ages if mtime < horizon)
        if max_objects is not None and max_objects >= 0:
            aged_out = set(doomed)
            survivors = sorted(
                (pair for pair in ages if pair[1] not in aged_out),
                reverse=True,
            )
            doomed.extend(fp for _, fp in survivors[max_objects:])
        removed = 0
        for fingerprint in doomed:
            try:
                self.object_path(fingerprint).unlink()
                removed += 1
            except OSError:
                pass
        live = set(self.fingerprints())
        kept_entries = [
            entry
            for entry in self._index_entries()
            if entry.get("fingerprint") in live
        ]
        self._rewrite_index(kept_entries)
        if removed:
            telemetry.counter("store.gc_removed").inc(removed)
            telemetry.emit_event(
                "store_gc", removed=removed, kept=len(live)
            )
        return {
            "removed": removed,
            "kept": len(live),
            "index_entries": len(kept_entries),
        }

    def stats(self) -> Dict[str, Any]:
        """On-disk totals plus this process's session counters."""
        fingerprints = self.fingerprints()
        total_bytes = 0
        for fingerprint in fingerprints:
            try:
                total_bytes += self.object_path(fingerprint).stat().st_size
            except OSError:
                pass
        return {
            "directory": str(self.directory),
            "schema": STORE_SCHEMA,
            "objects": len(fingerprints),
            "bytes": total_bytes,
            "index_entries": len(self._index_entries()),
            "session": dict(self.session),
        }

    def ls(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Catalog rows, newest first: index entries for live objects
        (one per fingerprint, latest write wins), backfilled from the
        object tree for entries the index is missing."""
        live = set(self.fingerprints())
        by_fingerprint: Dict[str, Dict[str, Any]] = {}
        for entry in self._index_entries():
            fingerprint = entry.get("fingerprint")
            if fingerprint in live:
                by_fingerprint[fingerprint] = entry
        for fingerprint in live - set(by_fingerprint):
            by_fingerprint[fingerprint] = {"fingerprint": fingerprint}
        rows = sorted(
            by_fingerprint.values(),
            key=lambda entry: str(entry.get("created_at", "")),
            reverse=True,
        )
        return rows if limit is None else rows[:limit]

    # -- internals ----------------------------------------------------

    def _index_entries(self) -> List[Dict[str, Any]]:
        return [
            entry
            for entry in read_jsonl(self.index_path)
            if isinstance(entry, dict)
        ]

    def _rewrite_index(self, entries: List[Dict[str, Any]]) -> None:
        from repro.util.atomicio import atomic_write_text

        lines = [
            json.dumps(entry, sort_keys=True, separators=(",", ": "))
            for entry in entries
        ]
        self.directory.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.index_path, "\n".join(lines) + ("\n" if lines else "")
        )

    def _count(self, kind: str) -> None:
        self.session[kind] += 1
        telemetry.counter(f"store.{kind}").inc()


def _object_problem(text: str, fingerprint: str) -> Optional[str]:
    """Why this object text must not be served (``None`` when clean)."""
    try:
        document = json.loads(text)
    except ValueError:
        return "unparsable JSON (torn or truncated write)"
    if not isinstance(document, dict):
        return "not a JSON object"
    if document.get("fingerprint") != fingerprint:
        return "fingerprint does not match object address"
    payload = document.get("payload")
    if not isinstance(payload, dict):
        return "missing result payload"
    digest = document.get("payload_digest")
    if digest != digest_payload(payload):
        return "payload digest mismatch (bit rot or tampering)"
    return None


def _now_iso() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat(timespec="seconds")
