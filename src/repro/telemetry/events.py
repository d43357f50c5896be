"""Structured JSONL event sink for run-lifecycle observability.

The supervisor, fault campaigns, workload caches, and the result store
publish events here: cell start/finish/retry/timeout/requeue, pool respawns,
crash-injection verdicts, checkpoint flushes, compiled-cache
hit/miss/eviction. Events are buffered in memory and flushed as an
atomic full rewrite through ``util/atomicio.py`` — the same journal
discipline ``sim/supervisor.py`` uses — so a crash mid-flush can never
leave a half-written file, and readers tolerate torn lines anyway.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.util.atomicio import atomic_write_text


class EventSink:
    """Buffered JSONL writer with atomic flushes.

    Each event is one JSON object per line with at least ``seq`` (dense
    per-sink ordinal), ``t`` (seconds since the sink was opened,
    monotonic clock), and ``kind``; remaining keys are event payload.
    """

    def __init__(
        self, path: Union[str, Path], flush_every: int = 64
    ) -> None:
        self.path = Path(path)
        self.flush_every = max(1, int(flush_every))
        self._events: List[Dict] = []
        self._dirty = 0
        self._epoch = time.monotonic()

    def emit(self, kind: str, **fields: object) -> None:
        event = {
            "seq": len(self._events),
            "t": round(time.monotonic() - self._epoch, 6),
            "kind": kind,
        }
        event.update(fields)
        self._events.append(event)
        self._dirty += 1
        if self._dirty >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        if not self._dirty:
            return
        lines = "".join(
            json.dumps(event, sort_keys=True) + "\n" for event in self._events
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.path, lines)
        self._dirty = 0

    def close(self) -> None:
        # Force out a file even for an empty event stream so consumers
        # can distinguish "no events" from "sink never installed".
        if not self.path.exists():
            self._dirty = max(self._dirty, 1)
        self.flush()

    def __len__(self) -> int:
        return len(self._events)


class _NullSink:
    """No-op sink installed by default."""

    __slots__ = ()

    def emit(self, kind: str, **fields: object) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_SINK = _NullSink()

_SINK: Union[EventSink, _NullSink] = NULL_SINK


def get_sink() -> Union[EventSink, _NullSink]:
    return _SINK


def set_sink(sink: Optional[EventSink]) -> None:
    global _SINK
    _SINK = sink if sink is not None else NULL_SINK


def install_sink(
    path: Union[str, Path], flush_every: int = 64
) -> EventSink:
    """Create an :class:`EventSink` at ``path`` and make it global."""
    sink = EventSink(path, flush_every=flush_every)
    set_sink(sink)
    return sink


def emit_event(kind: str, **fields: object) -> None:
    """Publish an event through the global sink (no-op by default)."""
    _SINK.emit(kind, **fields)


def load_events(path: Union[str, Path]) -> List[Dict]:
    """Read a JSONL event log, tolerating torn or corrupt lines.

    A missing file yields ``[]``; undecodable lines (e.g. a torn tail
    from a crashed non-atomic writer) are skipped rather than fatal.
    """
    p = Path(path)
    if not p.exists():
        return []
    events: List[Dict] = []
    for line in p.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            decoded = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(decoded, dict):
            events.append(decoded)
    return events
