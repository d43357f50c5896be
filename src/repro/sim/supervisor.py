"""Resilient sweep orchestration: journal, checkpoint/resume, supervision.

The simulated memory systems survive power loss by design; this module
gives the *harness* the same discipline. A 1000-cell campaign on a
flaky shared machine faces three distinct failure classes, and each one
gets its own mechanism:

* **The orchestrator dies** (OOM kill, ctrl-C, reboot). Every
  completed cell is recorded in a :class:`RunJournal` — a JSONL file
  rewritten atomically (write-temp-fsync-rename) at each checkpoint —
  keyed by a run manifest (config digest, grid digest, library
  version). ``--resume`` loads the journal, verifies the manifest, and
  re-runs only the missing cells; because cells are pure functions of
  their spec, the finished artifact is bit-identical to an
  uninterrupted run.
* **A worker dies or wedges** (pool worker killed, simulator bug,
  runaway cell). :class:`SupervisedRunner` enforces a wall-clock
  budget per cell of a unit, splits a failed unit into its cells,
  retries failed cells with exponential backoff and jitter, and after
  ``max_attempts`` quarantines the cell — the run completes and
  reports the poison cell with its traceback instead of aborting the
  surviving grid.
* **The pool itself dies** (fork refused, repeated worker loss). Each
  retry round gets a fresh pool; after ``max_pool_respawns`` broken
  pools the remaining cells degrade to serial in-process execution.

SIGINT/SIGTERM trigger a final atomic journal flush before the
interrupt propagates, so a killed run is always resumable from its
last checkpoint.
"""

from __future__ import annotations

import json
import random
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import telemetry
from repro.errors import (
    CellTimeoutError,
    OrchestrationError,
    ResumeManifestMismatch,
)
from repro.sim.parallel import default_workers, pool_context
from repro.util.atomicio import atomic_write_text, jsonable
from repro.util.fingerprint import config_digest, grid_digest

#: Journal file name inside a run directory.
JOURNAL_NAME = "journal.jsonl"

Encode = Callable[[Any], Any]
Decode = Callable[[Any], Any]


# ----------------------------------------------------------------------
# policy and failure records
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SupervisionPolicy:
    """Retry, timeout, and checkpoint knobs for a supervised run."""

    #: Total tries per cell before quarantine (1 = no retries).
    max_attempts: int = 3
    #: Per-cell wall-clock budget in pool mode. ``None`` disables the
    #: watchdog — but then a lost worker task blocks the run forever,
    #: so supervised CLI runs always set one.
    cell_timeout_seconds: Optional[float] = None
    #: Exponential backoff between attempts: base * factor**(n-1),
    #: capped, plus up to ``jitter_fraction`` of random extra.
    backoff_base_seconds: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 10.0
    jitter_fraction: float = 0.25
    #: Broken pools tolerated before degrading to serial execution.
    max_pool_respawns: int = 2
    #: Completed/failed cells between atomic journal flushes.
    checkpoint_every: int = 1
    #: Test hook: raise KeyboardInterrupt after this many journal
    #: flushes, simulating an operator kill at a known checkpoint.
    die_after_flushes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise OrchestrationError("max_attempts must be at least 1")
        if self.checkpoint_every < 1:
            raise OrchestrationError("checkpoint_every must be at least 1")

    def backoff_seconds(
        self, attempt: int, rng: Optional[random.Random] = None
    ) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        base = self.backoff_base_seconds * (
            self.backoff_factor ** max(0, attempt - 1)
        )
        delay = min(base, self.backoff_max_seconds)
        jitter = (rng or random).random() * self.jitter_fraction * delay
        return delay + jitter


@dataclass(frozen=True, slots=True)
class CellFailure:
    """A quarantined cell: what failed, how often, and the traceback."""

    key: str
    attempts: int
    error_type: str
    message: str
    traceback: str

    def describe(self) -> str:
        return (
            f"{self.key}: {self.error_type} after "
            f"{self.attempts} attempt(s) — {self.message}"
        )


def split_outcomes(outcomes: Sequence[Any]) -> Tuple[List[Any], List[CellFailure]]:
    """Partition supervised-map outcomes into (results, failures)."""
    results = [o for o in outcomes if not isinstance(o, CellFailure)]
    failures = [o for o in outcomes if isinstance(o, CellFailure)]
    return results, failures


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------

#: Manifest fields a resume must match exactly.
MANIFEST_CHECKED_FIELDS = (
    "experiment",
    "library_version",
    "config_digest",
    "grid_digest",
    "cells",
    "parameters",
)


def build_manifest(
    experiment: str,
    config: Any,
    keys: Sequence[str],
    parameters: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Identity of a run: what grid, under what config, which code.

    ``config_digest`` hashes the config's repr (dataclass reprs are
    deterministic and cover every field); ``grid_digest`` hashes the
    ordered cell keys. Two runs with equal manifests plan identical
    cells, which is what makes journal entries transplantable. Both
    digests come from :mod:`repro.util.fingerprint` — the same
    implementation the result store builds its object addresses on —
    and keep the exact legacy byte formulas, so journals written by
    earlier versions still resume.
    """
    return {
        "experiment": experiment,
        "library_version": _library_version(),
        "config_digest": config_digest(config),
        "grid_digest": grid_digest(keys),
        "cells": len(keys),
        "parameters": jsonable(parameters or {}),
    }


def _library_version() -> str:
    from repro import __version__

    return __version__


def check_manifest(stored: Dict[str, Any], current: Dict[str, Any]) -> None:
    """Refuse to resume against a journal from a different run."""
    mismatches = {
        field: (stored.get(field), current.get(field))
        for field in MANIFEST_CHECKED_FIELDS
        if stored.get(field) != current.get(field)
    }
    if mismatches:
        raise ResumeManifestMismatch(mismatches)


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------


class RunJournal:
    """Crash-safe record of completed and quarantined cells.

    On disk the journal is one JSONL file: the first line wraps the
    manifest, each following line is one cell record. A *flush*
    rewrites the whole file through write-temp-fsync-rename, so the
    on-disk journal is always a complete, loadable snapshot of some
    checkpoint — never a torn prefix. (Records are small; rewriting
    a few thousand lines per checkpoint is microseconds, and the
    atomicity is what makes kill-anywhere resumability true.)
    """

    def __init__(self, directory: Union[str, Path], manifest: Dict[str, Any]):
        self.directory = Path(directory)
        self.manifest = manifest
        self.entries: Dict[str, Dict[str, Any]] = {}
        self._dirty = True

    @property
    def path(self) -> Path:
        return self.directory / JOURNAL_NAME

    # -- lifecycle ----------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        manifest: Dict[str, Any],
        resume: bool = False,
    ) -> "RunJournal":
        """Create a fresh journal, or load and verify one for resume."""
        directory = Path(directory)
        if resume:
            journal = cls.load(directory)
            check_manifest(journal.manifest, manifest)
            return journal
        directory.mkdir(parents=True, exist_ok=True)
        journal = cls(directory, manifest)
        journal.flush()
        return journal

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "RunJournal":
        """Load a journal written by a previous (possibly killed) run."""
        directory = Path(directory)
        path = directory / JOURNAL_NAME
        if not path.exists():
            raise FileNotFoundError(
                f"no journal at {path} — was this run started with a run dir?"
            )
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines:
            raise OrchestrationError(f"journal {path} is empty")
        try:
            head = json.loads(lines[0])
            manifest = head["manifest"]
        except (ValueError, KeyError, TypeError) as exc:
            raise OrchestrationError(
                f"journal {path} has no manifest header: {exc}"
            ) from None
        journal = cls(directory, manifest)
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # Defensive: flushes are atomic so torn lines should
                # never exist, but a truncated copy must still load.
                continue
            key = record.get("key")
            if isinstance(key, str):
                journal.entries[key] = record
        journal._dirty = False
        return journal

    # -- recording ----------------------------------------------------

    def entry(self, key: str) -> Optional[Dict[str, Any]]:
        return self.entries.get(key)

    def record_done(self, key: str, payload: Any, attempts: int) -> None:
        self.entries[key] = {
            "key": key,
            "status": "done",
            "attempts": attempts,
            "payload": payload,
        }
        self._dirty = True
        # Mirror every journal mutation into the event sink so the
        # event log is a faithful superset of the on-disk journal.
        telemetry.emit_event(
            "journal_record", key=key, status="done", attempts=attempts
        )

    def record_failed(self, failure: CellFailure) -> None:
        self.entries[failure.key] = {
            "key": failure.key,
            "status": "failed",
            "attempts": failure.attempts,
            "error_type": failure.error_type,
            "message": failure.message,
            "traceback": failure.traceback,
        }
        self._dirty = True
        telemetry.emit_event(
            "journal_record",
            key=failure.key,
            status="failed",
            attempts=failure.attempts,
            error_type=failure.error_type,
        )

    def failure_for(self, key: str) -> Optional[CellFailure]:
        record = self.entries.get(key)
        if record is None or record.get("status") != "failed":
            return None
        return CellFailure(
            key=key,
            attempts=int(record.get("attempts", 1)),
            error_type=str(record.get("error_type", "Exception")),
            message=str(record.get("message", "")),
            traceback=str(record.get("traceback", "")),
        )

    def counts(self) -> Dict[str, int]:
        done = sum(1 for r in self.entries.values() if r["status"] == "done")
        return {"done": done, "failed": len(self.entries) - done}

    # -- persistence --------------------------------------------------

    def flush(self) -> None:
        """Atomically persist the current snapshot (no-op when clean)."""
        if not self._dirty:
            return
        lines = [json.dumps({"manifest": self.manifest}, sort_keys=True)]
        lines.extend(
            json.dumps(record, sort_keys=True)
            for record in self.entries.values()
        )
        atomic_write_text(self.path, "\n".join(lines) + "\n")
        self._dirty = False


# ----------------------------------------------------------------------
# supervised execution
# ----------------------------------------------------------------------


class _Interrupted(BaseException):
    """Internal: SIGTERM or the die-after-flushes hook fired."""


def _worker_signal_reset() -> None:
    """Pool-worker initializer: undo the parent's signal routing.

    Forked workers inherit the supervisor's SIGTERM handler, which
    would raise :class:`_Interrupted` (and print a traceback) when the
    parent terminates the pool; ctrl-C likewise belongs to the parent,
    which re-dispatches or journals the interrupted cells.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@dataclass(slots=True)
class _Cell:
    index: int
    key: str
    payload: Any


#: The outcome slot of a cell that is neither done nor quarantined.
_UNSET = object()


def _each(func: Callable[[Any], Any], payloads: List[Any]) -> List[Any]:
    """:meth:`SupervisedRunner.map`'s unit function, ``func`` bound."""
    return [func(payload) for payload in payloads]


class SupervisedRunner:
    """Run cells in units with retries, timeouts, and a journal.

    The journaled executor beside
    :class:`~repro.sim.parallel.ParallelSweepRunner`. It ships the same
    units (a sweep's replay groups, a fault campaign's capture passes)
    and returns results in cell order, but each outcome slot holds
    either the cell's result or a :class:`CellFailure`, and (with a
    journal) every completed cell is checkpointed on its own, so the
    run is resumable after any kill.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        policy: Optional[SupervisionPolicy] = None,
        journal: Optional[RunJournal] = None,
    ) -> None:
        self.workers = default_workers() if workers is None else max(1, workers)
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.journal = journal
        self._records_since_flush = 0
        self._flushes = 0

    # -- public entry -------------------------------------------------

    def map(
        self,
        func: Callable[[Any], Any],
        payloads: Sequence[Any],
        keys: Sequence[str],
        encode: Optional[Encode] = None,
        decode: Optional[Decode] = None,
    ) -> List[Any]:
        """:meth:`run_units` with one cell per unit."""
        payloads = list(payloads)
        units = [[index] for index in range(len(payloads))]
        return self.run_units(partial(_each, func), payloads, keys, units, encode, decode)

    def run_units(
        self,
        func: Callable[[List[Any]], List[Any]],
        payloads: Sequence[Any],
        keys: Sequence[str],
        units: Sequence[Sequence[int]],
        encode: Optional[Encode] = None,
        decode: Optional[Decode] = None,
    ) -> List[Any]:
        """Run every cell; return results/failures in payload order.

        ``units`` partitions the payload indices. ``func`` takes one
        unit's payloads, in unit order, and returns their results in
        that order. ``keys`` are the stable journal identities (unique,
        and for resume: derived deterministically from the grid).
        ``encode`` maps a result to a JSON-able payload, ``decode``
        inverts it; with a journal attached, even fresh results are
        passed through ``decode(encode(...))`` so a resumed run and an
        uninterrupted run return indistinguishable objects.

        The journal keeps one entry per cell. A unit whose cells are
        all journaled is not dispatched; a partly journaled one reruns
        whole (cells are deterministic) and keeps its entries. A unit
        of several cells that fails or overruns its budget
        (``cell_timeout_seconds`` per cell) is split, uncharged, into
        its cells (:meth:`_fail`).
        """
        payloads = list(payloads)
        keys = [str(key) for key in keys]
        if len(payloads) != len(keys):
            raise OrchestrationError(
                f"{len(payloads)} payloads but {len(keys)} keys"
            )
        if len(set(keys)) != len(keys):
            raise OrchestrationError("cell keys must be unique")
        encode = encode if encode is not None else (lambda value: value)
        decode = decode if decode is not None else (lambda payload: payload)

        slots: List[Any] = [_UNSET] * len(payloads)
        for index, key in enumerate(keys):
            entry = self.journal.entry(key) if self.journal else None
            if entry is not None and entry.get("status") == "done":
                slots[index] = decode(entry["payload"])
                telemetry.emit_event(
                    "journal_restored", key=key, status="done"
                )
            elif entry is not None and entry.get("status") == "failed":
                slots[index] = self.journal.failure_for(key)
                telemetry.emit_event(
                    "journal_restored", key=key, status="failed"
                )
        pending = [
            [_Cell(index, keys[index], payloads[index]) for index in unit]
            for unit in units
            if any(slots[index] is _UNSET for index in unit)
        ]
        if not pending:
            return slots

        restore = self._install_sigterm_handler()
        try:
            self._execute(func, pending, slots, encode, decode)
        except (KeyboardInterrupt, _Interrupted):
            # Operator (or watchdog) kill: persist what finished so the
            # run is resumable, then surface the standard interrupt.
            self._final_flush()
            raise KeyboardInterrupt() from None
        finally:
            restore()
            self._final_flush()
        return slots

    # -- internals ----------------------------------------------------

    def _execute(self, func, pending, slots, encode, decode) -> None:
        attempts = {cell.key: 0 for unit in pending for cell in unit}
        queue = list(pending)
        respawns = 0
        use_pool = self.workers > 1 and len(queue) > 1
        while queue:
            if not use_pool or respawns > self.policy.max_pool_respawns:
                self._run_serial(func, queue, slots, attempts, encode, decode)
                return
            retried = max(attempts[c.key] for unit in queue for c in unit)
            if retried:
                time.sleep(self.policy.backoff_seconds(retried))
            try:
                pool = pool_context().Pool(
                    processes=min(self.workers, len(queue)),
                    initializer=_worker_signal_reset,
                )
            except Exception:
                # Pool creation itself failed (sandboxed fork, spawn
                # restrictions): everything left runs in-process.
                use_pool = False
                continue
            queue, broken = self._run_pool_round(
                pool, func, queue, slots, attempts, encode, decode
            )
            if broken:
                respawns += 1
                telemetry.counter("supervisor.pool_respawns").inc()
                telemetry.emit_event(
                    "pool_respawn", respawns=respawns, remaining=len(queue)
                )

    def _run_pool_round(
        self, pool, func, queue, slots, attempts, encode, decode
    ):
        """One pool generation: dispatch everything, harvest in order.

        Returns ``(requeue, broken)``. A unit's timeout fires when it
        is genuinely slow *or* its worker died and the task was lost
        (`multiprocessing.Pool` respawns workers but drops their
        in-flight task); both look identical from the parent, and both
        are handled by terminating this pool (leaving ``with``) — the
        only way to reclaim a stuck worker — after harvesting every
        already-finished unit.
        """
        requeue: List[List[_Cell]] = []
        broken = False
        # Each unit ships its worker's metrics back with it.
        task = partial(telemetry.with_metrics_delta, func)
        with pool:
            handles = [
                pool.apply_async(task, ([cell.payload for cell in unit],))
                for unit in queue
            ]
            for unit, handle in zip(queue, handles):
                if not broken:
                    budget = self.policy.cell_timeout_seconds
                    if budget is not None:
                        budget *= len(unit)
                    handle.wait(budget)
                    if not handle.ready():
                        broken = True
                        keys = ", ".join(cell.key for cell in unit)
                        timeout = CellTimeoutError(keys, budget or 0.0)
                        self._fail(unit, timeout, "", requeue, slots, attempts)
                        continue
                if handle.ready():
                    self._settle(
                        unit,
                        lambda: telemetry.merge_metrics_delta(handle.get()),
                        requeue, slots, attempts, encode, decode,
                    )
                    continue
                # In flight when the pool died — not the unit's fault,
                # re-dispatch without charge.
                requeue.append(unit)
                for cell in unit:
                    telemetry.counter("supervisor.requeued").inc()
                    telemetry.emit_event("cell_requeued", key=cell.key)
        return requeue, broken

    def _run_serial(self, func, queue, slots, attempts, encode, decode):
        """Degraded mode: in-process, retries inline, no wall-clock
        watchdog (a same-process cell cannot be preempted safely)."""
        queue = list(queue)
        while queue:
            unit = queue.pop(0)
            retry: List[List[_Cell]] = []
            self._settle(
                unit,
                lambda: func([cell.payload for cell in unit]),
                retry, slots, attempts, encode, decode,
            )
            if len(unit) == 1 and retry:
                time.sleep(self.policy.backoff_seconds(attempts[unit[0].key]))
            queue[:0] = retry

    def _settle(self, unit, call, requeue, slots, attempts, encode, decode):
        """Complete ``unit``'s unsettled cells with ``call()``'s values,
        or fail the unit with what ``call()`` raised."""
        try:
            values = call()
        except Exception as exc:
            self._fail(unit, exc, traceback.format_exc(), requeue, slots, attempts)
            return
        for cell, value in zip(unit, values):
            if slots[cell.index] is _UNSET:
                self._complete(cell, value, slots, attempts, encode, decode)

    def _fail(self, unit, exc, tb_text, requeue, slots, attempts) -> None:
        """Charge a failed lone cell (:meth:`_charge`); split a failed
        unit, uncharged, into lone units of its unsettled cells."""
        if isinstance(exc, CellTimeoutError):
            telemetry.counter("supervisor.timeouts").inc()
        if len(unit) == 1:
            self._charge(unit[0], attempts, exc, tb_text, requeue, slots)
            return
        lone = [[cell] for cell in unit if slots[cell.index] is _UNSET]
        requeue.extend(lone)
        telemetry.emit_event(
            "unit_split",
            keys=[cell.key for (cell,) in lone],
            error_type=type(exc).__name__,
        )

    def _charge(self, cell, attempts, exc, tb_text, requeue, slots) -> None:
        """Count a failed attempt; quarantine the cell, or requeue it
        as a unit of its own."""
        attempts[cell.key] += 1
        if isinstance(exc, CellTimeoutError):
            telemetry.emit_event(
                "cell_timeout", key=cell.key, attempt=attempts[cell.key]
            )
        if attempts[cell.key] >= self.policy.max_attempts:
            failure = CellFailure(
                key=cell.key,
                attempts=attempts[cell.key],
                error_type=type(exc).__name__,
                message=str(exc),
                traceback=tb_text,
            )
            slots[cell.index] = failure
            telemetry.counter("supervisor.quarantined").inc()
            telemetry.emit_event(
                "cell_quarantined",
                key=cell.key,
                attempts=attempts[cell.key],
                error_type=type(exc).__name__,
            )
            if self.journal:
                self.journal.record_failed(failure)
            self._checkpoint()
            return
        requeue.append([cell])
        telemetry.counter("supervisor.retries").inc()
        telemetry.emit_event(
            "cell_retry",
            key=cell.key,
            attempt=attempts[cell.key],
            error_type=type(exc).__name__,
        )

    def _complete(self, cell, value, slots, attempts, encode, decode):
        payload = encode(value)
        telemetry.counter("supervisor.cells_done").inc()
        telemetry.emit_event(
            "cell_done",
            key=cell.key,
            attempts=max(1, attempts.get(cell.key, 0) + 1),
        )
        if self.journal:
            self.journal.record_done(
                cell.key, payload, max(1, attempts.get(cell.key, 0) + 1)
            )
            # Normalize through the codec so fresh and resumed runs
            # return indistinguishable (bit-identical) objects.
            slots[cell.index] = decode(payload)
        else:
            slots[cell.index] = value
        self._checkpoint()

    def _checkpoint(self) -> None:
        if self.journal is None:
            return
        self._records_since_flush += 1
        if self._records_since_flush >= self.policy.checkpoint_every:
            self.journal.flush()
            self._records_since_flush = 0
            self._flushes += 1
            telemetry.emit_event(
                "checkpoint_flush",
                flushes=self._flushes,
                entries=len(self.journal.entries),
            )
            # Keep the event log at least as current as the journal —
            # the die-after-flushes hook fires right after this point.
            telemetry.get_sink().flush()
            die_after = self.policy.die_after_flushes
            if die_after is not None and self._flushes >= die_after:
                raise _Interrupted(
                    f"die_after_flushes={die_after} test hook fired"
                )

    def _final_flush(self) -> None:
        if self.journal is not None:
            self.journal.flush()
            self._records_since_flush = 0
        telemetry.get_sink().flush()

    def _install_sigterm_handler(self) -> Callable[[], None]:
        """Route SIGTERM into the interrupt path (main thread only)."""
        if threading.current_thread() is not threading.main_thread():
            return lambda: None

        def handler(signum, frame):
            raise _Interrupted(f"signal {signum}")

        try:
            previous = signal.signal(signal.SIGTERM, handler)
        except (ValueError, OSError):  # non-main interpreter contexts
            return lambda: None
        return lambda: signal.signal(signal.SIGTERM, previous)
