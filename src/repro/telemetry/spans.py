"""Lightweight span tracing: sweep -> cell -> phase.

Spans measure wall-clock phases with the monotonic clock and record
parent/child structure via a per-tracer stack. Finished spans land in a
bounded ring (``collections.deque`` with ``maxlen``), so long campaigns
cannot grow memory without bound. Span timing is observational only —
it never feeds back into simulation state, preserving the bit-identity
contract between telemetry-on and telemetry-off runs.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Optional

DEFAULT_CAPACITY = 4096


class SpanTracer:
    """Records finished spans into a bounded in-memory ring."""

    __slots__ = ("capacity", "_ring", "_stack", "_next_id", "_epoch")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("span ring capacity must be >= 1")
        self.capacity = capacity
        self._ring: Deque[Dict] = deque(maxlen=capacity)
        self._stack: List[int] = []
        self._next_id = 1
        self._epoch = time.monotonic()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        span_id = self._next_id
        self._next_id += 1
        parent: Optional[int] = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.monotonic()
        try:
            yield span_id
        finally:
            duration = time.monotonic() - start
            self._stack.pop()
            self._ring.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start_s": start - self._epoch,
                    "duration_s": duration,
                }
            )

    def finished(self) -> List[Dict]:
        """Finished spans, oldest first (bounded by ``capacity``)."""
        return list(self._ring)

    def mark(self) -> int:
        """The id the next span will get: :meth:`finished_since` takes
        it to name the spans started from here on."""
        return self._next_id

    def finished_since(self, mark: int) -> List[Dict]:
        """The finished spans started since ``mark`` (see :meth:`mark`),
        oldest first, with ``start_s`` on the absolute monotonic clock
        so another process's tracer can :meth:`adopt` them."""
        return [
            dict(span, start_s=span["start_s"] + self._epoch)
            for span in self._ring
            if span["id"] >= mark
        ]

    def adopt(self, spans: List[Dict]) -> None:
        """Record ``spans`` (from another process's
        :meth:`finished_since`) as if they had run here: each gets a
        fresh id, a span whose parent is not among them nests under the
        span open here, and starts move to this tracer's epoch."""
        ids: Dict[int, int] = {}
        for span in sorted(spans, key=lambda span: span["id"]):
            ids[span["id"]] = self._next_id
            self._next_id += 1
        open_span = self._stack[-1] if self._stack else None
        for span in spans:
            self._ring.append(
                dict(
                    span,
                    id=ids[span["id"]],
                    parent=ids.get(span["parent"], open_span),
                    start_s=span["start_s"] - self._epoch,
                )
            )

    def reset(self) -> None:
        self._ring.clear()
        self._stack.clear()
        self._next_id = 1
        self._epoch = time.monotonic()


@contextmanager
def _null_span() -> Iterator[None]:
    yield None


_TRACER = SpanTracer()


def get_tracer() -> SpanTracer:
    return _TRACER


def span(name: str):
    """Context manager timing ``name`` under the global tracer.

    Returns a no-op context when telemetry is disabled so call sites
    stay branch-free: ``with span("cell"): ...``.
    """
    from repro.telemetry import metrics

    if not metrics.enabled():
        return _null_span()
    return _TRACER.span(name)


def reset() -> None:
    _TRACER.reset()
