"""Crash triggers and the crash scheduler.

The scheduler is the campaign's armed bomb: wired onto a live machine
(``mee.fault_probe`` plus, for modified-OS runs, the restructurer's
``phase_hook``), it watches the replay and raises
:class:`~repro.errors.PowerFailure` when its last armed trigger fires
(earlier firings are captured, see :class:`CrashScheduler`).

Three trigger kinds exist:

* ``"access"`` — fire at the start of trace access ``at`` (the
  every-Nth and seeded-random sweeps are built from these);
* ``"phase"`` — fire at the ``at``-th occurrence of a named
  instrumentation phase, landing the crash *inside* a protocol
  operation where torn metadata is actually possible;
* ``"persist-window"`` — fire at the ``at``-th persist write-through,
  *without* the persist-group deferral below: the crash lands between
  two fences of an open group, which is exactly the window the WPQ
  persistence model (repro.mem.nvm) plus the crash-state explorer
  (repro.faults.crashstates) are built to audit.

Crash-atomicity model. The functional tree updates the NV root register
atomically with every counter bump, so a failure raised between a
write's counter bump and its protocol persists would fabricate torn
states no ADR machine can produce (the write queue drains on power
loss). The engine therefore brackets each data write in a *persist
group*: phase triggers that fire inside an uncommitted group are
deferred and raise at the group's commit point with
``write_committed=True`` (the write is durable; the crash lands at the
access boundary the hardware would expose), while triggers outside any
group — read-path cache evictions, AMNT movement after the early
commit, AMNT++ restructuring, access boundaries — raise immediately
and produce genuinely torn volatile state.

An *unarmed* scheduler (no triggers) never raises; it just counts
phase occurrences, which is how the campaign's probe pass discovers how
many crash windows each (protocol, workload) pair exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError, PowerFailure

#: Phase names fired by the instrumented engine and protocols. The
#: hook sites use string literals (core modules must not import this
#: package); these constants are the catalogue the campaign plans from.
PHASE_ACCESS = "access"
PHASE_MDCACHE_EVICTION = "mdcache_eviction"
PHASE_AMNT_MOVEMENT = "amnt_movement"
PHASE_STRICT_WRITE_THROUGH = "strict_write_through"
PHASE_AMNTPP_RESTRUCTURE = "amntpp_restructure"
#: Counted by :meth:`CrashScheduler.on_persist` immediately before
#: every persist write-through (the moment the line is *not yet*
#: durable). Phase triggers on this name defer like any other in-group
#: phase; the ``"persist-window"`` trigger kind fires here undeferred.
PHASE_PERSIST_WINDOW = "persist_window"

KNOWN_PHASES: Tuple[str, ...] = (
    PHASE_MDCACHE_EVICTION,
    PHASE_AMNT_MOVEMENT,
    PHASE_STRICT_WRITE_THROUGH,
    PHASE_AMNTPP_RESTRUCTURE,
    PHASE_PERSIST_WINDOW,
)

#: ``--list-triggers`` catalogue: (kind, example, description).
TRIGGER_KINDS: Tuple[Tuple[str, str, str], ...] = (
    (
        "access",
        "access@N",
        "cut power at the start of trace access N (0-based); the "
        "every-Nth, seeded-random, and tamper sweeps are built from "
        "these",
    ),
    (
        "phase",
        "<phase>@N",
        "cut power at the Nth occurrence (1-based) of a named "
        "instrumentation window; fires inside an uncommitted persist "
        "group are deferred to the group's commit (ADR drain) point",
    ),
    (
        "persist-window",
        "persist-window@N",
        "cut power immediately before the Nth persist write-through "
        "(1-based), WITHOUT persist-group deferral: the in-flight "
        "write's fences are only partially issued, and under "
        "persist_model=wpq every fence-respecting drain subset of the "
        "pending lines is explored as its own crash state",
    ),
)


def trigger_catalog() -> Tuple[Tuple[str, str, str], ...]:
    """Every trigger kind with an example ``describe()`` string and a
    one-line explanation (the ``repro faults --list-triggers`` body)."""
    return TRIGGER_KINDS


@dataclass(frozen=True, slots=True)
class CrashTrigger:
    """Picklable description of when the power fails.

    ``kind`` is ``"access"`` (``at`` = 0-based trace position),
    ``"phase"`` (``at`` = 1-based occurrence of ``phase``), or
    ``"persist-window"`` (``at`` = 1-based persist write-through,
    fired inside persist groups without deferral).
    """

    kind: str
    at: int
    phase: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("access", "phase", "persist-window"):
            raise ConfigError(f"unknown trigger kind {self.kind!r}")
        if self.kind == "phase" and not self.phase:
            raise ConfigError("phase triggers need a phase name")
        if self.kind == "access" and self.at < 0:
            raise ConfigError("access triggers need a position >= 0")
        if self.kind in ("phase", "persist-window") and self.at < 1:
            raise ConfigError(f"{self.kind} occurrences are 1-based")

    def describe(self) -> str:
        if self.kind == "access":
            return f"access@{self.at}"
        if self.kind == "persist-window":
            return f"persist-window@{self.at}"
        return f"{self.phase}@{self.at}"


class CrashScheduler:
    """Counts phases, arms triggers, raises the power failure.

    One scheduler drives one replay; it is not reusable across runs
    (the phase counters are the run's fingerprint and are read by the
    campaign afterwards).

    Each armed trigger fires once. The last one to fire raises
    :class:`~repro.errors.PowerFailure`, and the replay stops there;
    every earlier firing goes to ``capture(trigger, record)`` instead
    and the replay keeps going. ``record`` is the crash
    :class:`~repro.sim.engine.ReplayRecord` of that point, from the
    ``crash_record`` callable the replay driver
    (:func:`~repro.sim.engine.drive_memory_boundary`) sets. So a
    campaign drives a trace once for all the crash cells of one
    (protocol, workload), and ``capture`` audits what survives each
    earlier cut before the replay goes on. A trigger that never fires
    leaves the replay running to completion. Deferred in-group firings
    queue and release, in order, at the group's commit.
    """

    def __init__(
        self,
        *triggers: CrashTrigger,
        capture: Optional[Callable[[CrashTrigger, object], None]] = None,
    ) -> None:
        if len(set(triggers)) != len(triggers):
            raise ConfigError("a trigger is armed once per scheduler")
        if len(triggers) > 1 and capture is None:
            raise ConfigError("several triggers need a capture")
        self.capture = capture
        #: Set by the replay driver: the crash record of a failure at
        #: the current point of the replay.
        self.crash_record: Optional[Callable[[PowerFailure], object]] = None
        self.access_index = -1
        self.phase_counts: Dict[str, int] = {}
        #: The raised failure and the trigger that raised it.
        self.fired: Optional[PowerFailure] = None
        self.fired_trigger: Optional[CrashTrigger] = None
        self._remaining = len(triggers)
        # Armed triggers by firing point: one lookup per callback.
        self._at_access = {t.at: t for t in triggers if t.kind == "access"}
        self._at_window = {
            t.at: t for t in triggers if t.kind == "persist-window"
        }
        self._at_phase = {
            (t.phase, t.at): t for t in triggers if t.kind == "phase"
        }
        self._group_depth = 0
        self._group_committed = False
        self._pending: List[Tuple[CrashTrigger, str, int]] = []

    # -- driver callbacks ----------------------------------------------

    def on_access(self, index: int) -> None:
        """Called by the replay driver at the start of each access."""
        self.access_index = index
        self._group_depth = 0
        self._group_committed = False
        trigger = self._at_access.get(index)
        if trigger is not None:
            self._fire(trigger, PHASE_ACCESS, index)

    # -- engine/protocol callbacks -------------------------------------

    def on_phase(self, name: str) -> None:
        """Called from instrumentation hooks inside the engine."""
        count = self.phase_counts.get(name, 0) + 1
        self.phase_counts[name] = count
        if self._at_phase:
            trigger = self._at_phase.get((name, count))
            if trigger is not None:
                self._fire_in_group(trigger, name, count)

    def on_persist(self) -> None:
        """Called by the MEE immediately *before* each persist
        write-through: the window where the fence's line is not yet
        durable. Counts as the ``persist_window`` phase; the
        ``"persist-window"`` trigger kind fires here with no group
        deferral (that un-deferred torn state is the one the WPQ
        crash-state explorer exists to audit)."""
        count = self.phase_counts.get(PHASE_PERSIST_WINDOW, 0) + 1
        self.phase_counts[PHASE_PERSIST_WINDOW] = count
        trigger = self._at_window.get(count)
        if trigger is not None:
            self._fire(trigger, PHASE_PERSIST_WINDOW, count)
        if self._at_phase:
            trigger = self._at_phase.get((PHASE_PERSIST_WINDOW, count))
            if trigger is not None:
                self._fire_in_group(trigger, PHASE_PERSIST_WINDOW, count)

    def begin_group(self) -> None:
        """A data write's persist group opens (engine write path).

        Groups nest (an LLC victim writeback inside another write's
        group, a re-entrant engine call): depth is tracked so an inner
        ``begin``/``commit`` pair cannot silently reset the outer
        group's deferral state — deferred crashes release only when the
        outermost group commits.
        """
        self._group_depth += 1
        if self._group_depth == 1:
            self._group_committed = False

    def commit_group(self) -> None:
        """The in-flight write's persists are durable (ADR drain
        point); deferred crashes fire here, in the order they were
        deferred. Inner commits of a nested group only pop depth."""
        if self._group_depth > 0:
            self._group_depth -= 1
            if self._group_depth > 0:
                return
        self._group_committed = True
        if self._pending:
            pending, self._pending = self._pending, []
            for trigger, phase, occurrence in pending:
                self._fire(trigger, phase, occurrence)

    # -- internals ------------------------------------------------------

    def _fire_in_group(
        self, trigger: CrashTrigger, phase: str, count: int
    ) -> None:
        """Fire a phase trigger, deferred to the commit inside an open
        persist group."""
        if self._group_depth > 0 and not self._group_committed:
            self._pending.append((trigger, phase, count))
        else:
            self._fire(trigger, phase, count)

    def _fire(
        self, trigger: CrashTrigger, phase: str, occurrence: int
    ) -> None:
        failure = PowerFailure(
            phase=phase,
            occurrence=occurrence,
            access_index=self.access_index,
            write_committed=self._group_committed,
            in_group=self._group_depth > 0 and not self._group_committed,
        )
        self._remaining -= 1
        if self._remaining:
            self.capture(trigger, self.crash_record(failure))
            return
        self.fired = failure
        self.fired_trigger = trigger
        raise failure
