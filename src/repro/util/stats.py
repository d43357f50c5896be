"""Lightweight statistics counters for simulator components.

Every component (caches, protocols, the MEE, the OS allocator) owns a
:class:`StatRegistry` and increments named counters as events occur.
The registry is hierarchical by dotted name purely by convention —
``"mee.writes.strict_path"`` — and supports snapshot/diff so a harness
can measure a region of interest without resetting global state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Tuple


@dataclass(slots=True)
class StatCounter:
    """A single named monotonically increasing counter.

    Hot components pre-resolve counters once (``registry.counter(...)``)
    and bump ``.value`` directly; ``__slots__`` keeps each bump a fixed
    offset load instead of an instance-dict probe.
    """

    name: str
    value: int = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def reset(self) -> None:
        self.value = 0


@dataclass
class StatRegistry:
    """A flat collection of named counters with snapshot support."""

    prefix: str = ""
    _counters: Dict[str, StatCounter] = field(default_factory=dict)

    def counter(self, name: str) -> StatCounter:
        """Get (creating if necessary) the counter called ``name``."""
        full = f"{self.prefix}.{name}" if self.prefix else name
        existing = self._counters.get(full)
        if existing is None:
            existing = StatCounter(full)
            self._counters[full] = existing
        return existing

    def add(self, name: str, amount: int = 1) -> None:
        """Increment ``name`` by ``amount`` (creating it at zero first)."""
        self.counter(name).add(amount)

    def get(self, name: str) -> int:
        """Current value of ``name`` (zero if never touched)."""
        full = f"{self.prefix}.{name}" if self.prefix else name
        counter = self._counters.get(full)
        return counter.value if counter is not None else 0

    def snapshot(self) -> Dict[str, int]:
        """An immutable-by-copy view of every counter's value."""
        return {name: counter.value for name, counter in self._counters.items()}

    def diff(self, earlier: Mapping[str, int]) -> Dict[str, int]:
        """Per-counter delta versus an earlier :meth:`snapshot`.

        Counters created after the snapshot diff against zero.
        """
        return {
            name: counter.value - earlier.get(name, 0)
            for name, counter in self._counters.items()
        }

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()

    def merge_from(self, other: "StatRegistry") -> None:
        """Add every counter from ``other`` into this registry, matched
        by full (prefixed) name; a counter this registry lacks is
        created after its own."""
        counters = self._counters
        for name, counter in other._counters.items():
            mine = counters.get(name)
            if mine is None:
                mine = counters[name] = StatCounter(name)
            mine.add(counter.value)

    def items(self) -> Iterator[Tuple[str, int]]:
        for name in sorted(self._counters):
            yield name, self._counters[name].value

    def __len__(self) -> int:
        return len(self._counters)
