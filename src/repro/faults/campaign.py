"""Fault-injection campaigns: plan, fan out, aggregate.

A campaign turns "this protocol recovers from a crash" into a swept,
counted property. For every (protocol, workload) pair it first runs a
*probe* replay with an unarmed scheduler — a full functional run that
both sanity-checks the engine (reads are verified against the golden
shadow as they happen) and counts how many of each crash window the
pair exposes. From those counts it plans the crash cells:

* every-Nth-access triggers (``crash_every``),
* seeded random access triggers (``random_crashes``),
* phase-boundary triggers at ordinals spread across each observed
  phase's occurrences (``phase_samples`` per phase),
* tamper cells: access-triggered crashes followed by a seeded bit flip
  in the persisted NVM image, which the recovery/readback must detect.

Cells are picklable :class:`FaultCampaignSpec` values fanned over the
existing :class:`~repro.sim.parallel.ParallelSweepRunner`; every cell
is a pure function of (config, spec), so serial and parallel campaigns
are bit-identical. The crash cells of one (protocol, workload) share
one drive of the trace (:func:`run_fault_group`), split into a few
only to keep a pool's workers busy; each still equals its lone
:func:`run_fault_cell`. Results aggregate into a :class:`CampaignReport`
with per-protocol and per-phase verdict breakdowns and a JSON artifact
(written through :mod:`repro.bench.export`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.config import MetadataCacheConfig, SystemConfig, default_config
from repro.errors import ConfigError, ConfigValidationError
from repro.faults.crashstates import (
    DEFAULT_MAX_CRASH_STATES,
    explore_crash_states,
    install_crash_state,
    worst_verdict,
)
from repro.faults.oracle import (
    VERDICT_RECOVERED,
    VERDICT_SILENT,
    run_oracle,
)
from repro.faults.triggers import (
    PHASE_AMNTPP_RESTRUCTURE,
    PHASE_PERSIST_WINDOW,
    CrashScheduler,
    CrashTrigger,
)
from repro.mem.backend import MetadataRegion
from repro.sim.engine import ReplayRecord, drive_memory_boundary
from repro.sim.machine import build_engine, build_machine
from repro.sim.parallel import ParallelSweepRunner, default_workers
from repro.sim.supervisor import (
    CellFailure,
    RunJournal,
    SupervisedRunner,
    SupervisionPolicy,
    build_manifest,
    split_outcomes,
)
from repro.util.rng import Seed, make_rng
from repro.util.units import KB, MB
from repro.workloads.registry import (
    TraceSpec,
    materialize_trace,
    validate_trace_spec,
)

#: Verdict label for probe (unarmed) cells.
VERDICT_BASELINE = "baseline"

#: Tamper targets: flip a bit in a persisted data block / counter line.
TAMPER_TARGETS = ("data", "counter")


@dataclass(frozen=True, slots=True)
class FaultCampaignSpec:
    """One picklable campaign cell: who crashes, when, and how.

    ``trigger=None`` is the probe form: replay to completion, verify
    reads, count phase occurrences. ``config`` overrides the campaign
    config per cell (mirrors :class:`~repro.sim.parallel.SweepCell`).
    """

    protocol: str
    trace: TraceSpec
    trigger: Optional[CrashTrigger] = None
    seed: Seed = 0
    #: "" for a clean crash, else a TAMPER_TARGETS entry.
    tamper: str = ""
    churn_interval: int = 1024
    config: Optional[SystemConfig] = None
    #: Crash-state exploration budget (persist_model="wpq" cells):
    #: drain subsets beyond this are sampled, never silently dropped.
    max_crash_states: int = DEFAULT_MAX_CRASH_STATES
    #: Also audit one half-applied (torn) variant per pending line.
    torn_lines: bool = True


@dataclass(frozen=True, slots=True)
class FaultCellOutcome:
    """Flat, picklable result of one campaign cell."""

    protocol: str
    workload: str
    trigger: str
    seed: str
    tamper: str
    verdict: str
    crash_phase: str = ""
    crash_occurrence: int = 0
    crash_access_index: int = -1
    write_committed: bool = False
    accesses_completed: int = 0
    recovery_ok: bool = False
    recovery_detail: str = ""
    nodes_recomputed: int = 0
    blocks_checked: int = 0
    blocks_recovered: int = 0
    blocks_detected: int = 0
    blocks_diverged: int = 0
    pages_verified: int = 0
    pages_inconsistent: int = 0
    in_flight_outcome: str = "none"
    tamper_detail: str = ""
    crash_consistent: bool = True
    #: Phase-occurrence counts observed up to the crash (or the whole
    #: run for probes): (("mdcache_eviction", 12), ...).
    phase_counts: Tuple[Tuple[str, int], ...] = ()
    anomaly: str = ""
    first_divergence: str = ""
    #: The crash fired inside an open persist group (persist-window
    #: triggers): partial fences are expected, so "detected" carries
    #: no anomaly for crash-consistent protocols.
    crash_in_group: bool = False
    #: Crash-state coverage (persist_model="wpq" cells; all zero under
    #: write-through). ``crash_states_total`` counts every reachable
    #: fence-respecting drain subset including the as-crashed image;
    #: explored = audited subsets (+ torn variants + as-crashed pass).
    crash_states_total: int = 0
    crash_states_explored: int = 0
    crash_states_sampled: int = 0
    crash_states_skipped: int = 0
    torn_states: int = 0
    #: "" (no WPQ) | "exhaustive" | "sampled".
    exploration: str = ""
    #: Label of the most severe explored state, when not recovered.
    worst_state: str = ""

    @property
    def phase_label(self) -> str:
        """Reporting key: the crash window this cell landed in."""
        return self.crash_phase or "none"


def default_fault_config(
    capacity_bytes: int = 64 * MB,
    metadata_cache_bytes: int = 8 * KB,
    persist_model: str = "writethrough",
) -> SystemConfig:
    """Campaign default: a small machine under eviction pressure.

    The paper-sized 64 kB metadata cache never evicts on a
    campaign-sized trace, which would leave the ``mdcache_eviction``
    crash window unexercised; an 8 kB cache restores the pressure.
    ``persist_model="wpq"`` additionally stages functional stores in a
    write-pending queue so crashed cells explore every reachable drain
    subset (repro.faults.crashstates).
    """
    config = default_config(capacity_bytes=capacity_bytes)
    return replace(
        config,
        metadata_cache=MetadataCacheConfig(capacity_bytes=metadata_cache_bytes),
        persist_model=persist_model,
    )


# ----------------------------------------------------------------------
# one cell
# ----------------------------------------------------------------------


def run_fault_cell(
    spec: FaultCampaignSpec, config: SystemConfig
) -> FaultCellOutcome:
    """Build, replay, crash, (tamper,) recover, audit — one cell: the
    one-spec case of :func:`run_fault_group`, audited on the machine
    it drove. A probe (``trigger=None``) replays to completion."""
    return run_fault_group([spec], config)[0]


def _group_key(spec: FaultCampaignSpec) -> tuple:
    """What one drive fixes: the cells of a group share all of it."""
    return (
        spec.protocol,
        spec.trace,
        spec.seed,
        spec.churn_interval,
        spec.config,
    )


def run_fault_group(
    specs: Sequence[FaultCampaignSpec], config: SystemConfig
) -> List[FaultCellOutcome]:
    """The outcomes of ``specs``, in order, from one drive of their
    trace.

    The specs share their protocol, trace, seed, churn interval and
    config; their tamper and exploration settings are their own. The
    drive arms every spec's trigger at once (:class:`CrashScheduler`).
    At each firing but the last the drive waits while the trigger's
    cells are audited, each on a fresh engine put in the crash state
    the drive would leave now
    (:func:`~repro.faults.crashstates.install_crash_state`), then keeps
    going; so no crash state outlives its audits. The last firing
    raises and stops the drive, and its cell is audited on the driven
    machine itself, after any cell sharing its trigger is audited on a
    fresh engine. A probe (no trigger) runs alone.
    """
    lead = specs[0]
    key = _group_key(lead)
    if any(_group_key(spec) != key for spec in specs):
        raise ConfigError(
            "a fault group shares one protocol, trace, seed, churn "
            "interval and config"
        )
    if len(specs) > 1 and any(spec.trigger is None for spec in specs):
        raise ConfigError("a probe runs alone")
    cell_config = lead.config if lead.config is not None else config
    trace = materialize_trace(lead.trace)
    # Fault campaigns force functional mode unconditionally — no flag
    # reaches here. Boundary-stream replay (repro.sim.replay) is
    # bypassed: a crash ordinal counts *accesses*, not boundary events,
    # and the injector must observe the live LLC/OS state at the crash
    # point, so every fault cell keeps the full direct simulate() path.
    machine = build_machine(
        cell_config, lead.protocol, functional=True, seed=lead.seed
    )
    mee = machine.mee
    cells: Dict[Optional[CrashTrigger], List[int]] = {}
    for index, spec in enumerate(specs):
        cells.setdefault(spec.trigger, []).append(index)
    outcomes: List[Optional[FaultCellOutcome]] = [None] * len(specs)

    def audit_copies(indices, record: ReplayRecord, pending) -> None:
        """Audit the cells at ``indices``, each on its own fresh engine
        in the crash state ``mee`` holds now."""
        phase_counts = tuple(sorted(scheduler.phase_counts.items()))
        for index in indices:
            spec = specs[index]
            engine = build_engine(cell_config, spec.protocol, functional=True)
            install_crash_state(engine, mee)
            outcomes[index] = _audit(
                spec, engine, record, phase_counts, pending
            )

    def capture(trigger: CrashTrigger, record: ReplayRecord) -> None:
        # The drive waits for these audits, so the live write-pending
        # queue's lines are the undo log at the cut until they finish.
        wpq = mee.nvm.wpq
        pending = list(wpq.entries.values()) if wpq is not None else []
        audit_copies(cells[trigger], record, pending)

    scheduler = CrashScheduler(
        *(trigger for trigger in cells if trigger is not None),
        capture=capture,
    )
    mee.fault_probe = scheduler
    restructurer = machine.mm.restructurer
    if restructurer is not None:
        restructurer.phase_hook = lambda: scheduler.on_phase(
            PHASE_AMNTPP_RESTRUCTURE
        )
    try:
        record = drive_memory_boundary(
            machine,
            trace,
            seed=lead.seed,
            scheduler=scheduler,
            churn_interval=lead.churn_interval,
        )
    finally:
        # The oracle's own reads must not re-arm the bomb.
        mee.fault_probe = None
        if restructurer is not None:
            restructurer.phase_hook = None

    phase_counts = tuple(sorted(scheduler.phase_counts.items()))
    if record.crashed:
        mee.crash()
        # Freeze the write-pending queue before anything (tamper,
        # recovery, per-state audits) writes through the backend again:
        # the undo log must describe exactly the stores that were
        # volatile at the cut.
        wpq = mee.nvm.wpq
        pending = wpq.freeze() if wpq is not None else []
        live, *sharing = cells[scheduler.fired_trigger]
        # Cells sharing the trigger go first: the live audit below
        # writes to the image they copy.
        audit_copies(sharing, record, pending)
        outcomes[live] = _audit(
            specs[live], mee, record, phase_counts, pending
        )
    for index, outcome in enumerate(outcomes):
        if outcome is None:
            # The probe, or a trigger the whole drive never reached.
            spec = specs[index]
            outcomes[index] = FaultCellOutcome(
                verdict=VERDICT_BASELINE,
                anomaly="" if spec.trigger is None else "trigger-not-fired",
                **_common(spec, mee, record, phase_counts),
            )
    return outcomes


def _common(spec, mee, record, phase_counts) -> Dict[str, Any]:
    """The outcome fields every cell reports, crashed or not."""
    return dict(
        protocol=spec.protocol,
        workload=spec.trace.label(),
        trigger=spec.trigger.describe() if spec.trigger else "probe",
        seed=str(spec.seed),
        tamper=spec.tamper,
        accesses_completed=record.accesses_completed,
        crash_consistent=mee.protocol.is_crash_consistent,
        phase_counts=phase_counts,
    )


def _audit(
    spec: FaultCampaignSpec,
    mee,
    record: ReplayRecord,
    phase_counts: Tuple[Tuple[str, int], ...],
    pending,
) -> FaultCellOutcome:
    """(Tamper,) explore and judge one crashed cell on ``mee``, which
    holds the cell's crash state with its volatile state dropped;
    ``pending`` is the write-pending queue's undo log at the cut."""
    tamper_detail = ""
    if spec.tamper:
        tamper_detail = _tamper(mee, record, spec)
    exploration = None
    if pending:
        # Audits every reachable rollback first, then leaves the
        # machine back on the as-crashed (all-drained) image for the
        # ordinary oracle pass below.
        exploration = explore_crash_states(
            mee,
            record,
            pending,
            max_crash_states=spec.max_crash_states,
            torn_lines=spec.torn_lines,
            seed=spec.seed,
        )
    report = run_oracle(mee, record)

    verdict = report.verdict
    first_divergence = report.first_divergence
    worst_state = ""
    if exploration is not None and exploration.outcomes:
        worst = exploration.worst
        verdict = worst_verdict([report.verdict, worst.verdict])
        if worst.verdict != VERDICT_RECOVERED and verdict == worst.verdict:
            worst_state = worst.label
        if not first_divergence:
            for state in exploration.silent_states():
                first_divergence = f"[{state.label}] {state.detail}"
                break

    anomaly = ""
    if spec.tamper and tamper_detail and report.verdict == VERDICT_RECOVERED:
        anomaly = "tamper-missed"
    elif (
        not spec.tamper
        and mee.protocol.is_crash_consistent
        and not record.crash_in_group
        and report.verdict != VERDICT_RECOVERED
    ):
        # Judged on the as-crashed image: a rolled-back drain subset
        # that recovery refuses loudly is correct "detected" behaviour,
        # not an anomaly — only silent divergence (caught above via the
        # cell verdict) ever is. Inside an open persist group the
        # write's fences are partially issued, so even the as-crashed
        # image may legitimately be refused.
        anomaly = "clean-cell-not-recovered"

    if mee.nvm.wpq is not None:
        states_total = exploration.total_reachable if exploration else 1
        states_explored = (exploration.explored if exploration else 0) + 1
        states_sampled = exploration.sampled if exploration else 0
        states_skipped = exploration.skipped if exploration else 0
        torn_states = exploration.torn if exploration else 0
        exploration_label = (
            "exhaustive"
            if exploration is None or exploration.exhaustive
            else "sampled"
        )
    else:
        states_total = states_explored = states_sampled = 0
        states_skipped = torn_states = 0
        exploration_label = ""

    return FaultCellOutcome(
        verdict=verdict,
        crash_phase=record.crash_phase,
        crash_occurrence=record.crash_occurrence,
        crash_access_index=record.crash_access_index,
        write_committed=record.crash_write_committed,
        recovery_ok=report.recovery_ok,
        recovery_detail=report.recovery_detail,
        nodes_recomputed=report.nodes_recomputed,
        blocks_checked=report.blocks_checked,
        blocks_recovered=report.blocks_recovered,
        blocks_detected=report.blocks_detected,
        blocks_diverged=report.blocks_diverged,
        pages_verified=report.pages_verified,
        pages_inconsistent=report.pages_inconsistent,
        in_flight_outcome=report.in_flight_outcome,
        tamper_detail=tamper_detail,
        anomaly=anomaly,
        first_divergence=first_divergence,
        crash_in_group=record.crash_in_group,
        crash_states_total=states_total,
        crash_states_explored=states_explored,
        crash_states_sampled=states_sampled,
        crash_states_skipped=states_skipped,
        torn_states=torn_states,
        exploration=exploration_label,
        worst_state=worst_state,
        **_common(spec, mee, record, phase_counts),
    )


def _tamper(mee, record, spec: FaultCampaignSpec) -> str:
    """Flip one seeded bit in the persisted NVM image; returns a
    description, or "" when the image holds nothing to tamper with."""
    rng = make_rng(
        f"{spec.seed}/tamper/{spec.protocol}/{spec.trace.label()}"
        f"/{spec.trigger.describe() if spec.trigger else 'probe'}"
    )
    backend = mee.nvm.backend
    block_bytes = mee.config.security.block_bytes
    if spec.tamper == "counter":
        pages = sorted(
            {mee.address_space.page_index(base) for base in record.golden}
        )
        persisted = [
            index
            for index in pages
            if backend.contains(MetadataRegion.COUNTERS, index)
        ]
        if persisted:
            index = rng.choice(persisted)
            raw = bytearray(
                backend.read(MetadataRegion.COUNTERS, index, block_bytes)
            )
            bit = rng.randrange(len(raw) * 8)
            raw[bit // 8] ^= 1 << (bit % 8)
            backend.write(MetadataRegion.COUNTERS, index, bytes(raw))
            return f"counter[{index}] bit {bit}"
        return ""
    written = sorted(
        base
        for base in record.golden
        if backend.contains(
            MetadataRegion.DATA, mee.address_space.block_index(base)
        )
    )
    if not written:
        return ""
    base = rng.choice(written)
    block = mee.address_space.block_index(base)
    raw = bytearray(backend.read(MetadataRegion.DATA, block, block_bytes))
    bit = rng.randrange(len(raw) * 8)
    raw[bit // 8] ^= 1 << (bit % 8)
    backend.write(MetadataRegion.DATA, block, bytes(raw))
    return f"data[{block:#x}] bit {bit}"


def _fault_pool_entry(
    payload: Tuple[FaultCampaignSpec, SystemConfig]
) -> FaultCellOutcome:
    """Top-level pool target (must be importable for spawn contexts)."""
    spec, config = payload
    return run_fault_cell(spec, config)


def _fault_group_entry(
    payload: Tuple[List[FaultCampaignSpec], SystemConfig]
) -> List[FaultCellOutcome]:
    """Top-level pool target of one :func:`run_fault_group`."""
    specs, config = payload
    return run_fault_group(specs, config)


def _run_grouped(
    runner: ParallelSweepRunner,
    specs: Sequence[FaultCampaignSpec],
    config: SystemConfig,
) -> List[FaultCellOutcome]:
    """Every cell of ``specs``, in order: one payload (one drive) per
    :func:`_group_key`, unless that leaves the pool fewer payloads than
    it runs at once. A group would then audit its cells one after
    another while workers idle, so each group splits round-robin into
    enough parts, one drive each, to give every such worker a payload.
    """
    groups: Dict[tuple, List[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(_group_key(spec), []).append(index)
    concurrent = min(runner.workers, default_workers())
    parts = -(-concurrent // max(1, len(groups)))
    units = [
        group[part::parts]
        for group in groups.values()
        for part in range(min(parts, len(group)))
    ]
    results = runner.map(
        _fault_group_entry,
        [([specs[i] for i in unit], config) for unit in units],
    )
    cells: List[Optional[FaultCellOutcome]] = [None] * len(specs)
    for unit, outcomes in zip(units, results):
        for index, outcome in zip(unit, outcomes):
            cells[index] = outcome
    return cells


# ----------------------------------------------------------------------
# journal codec and keys
# ----------------------------------------------------------------------

_OUTCOME_FIELDS = frozenset(f.name for f in fields(FaultCellOutcome))


def outcome_to_payload(outcome: FaultCellOutcome) -> Dict[str, Any]:
    """JSON-able journal payload of one cell outcome."""
    return asdict(outcome)


def outcome_from_payload(payload: Dict[str, Any]) -> FaultCellOutcome:
    """Inverse of :func:`outcome_to_payload`.

    JSON turns the ``phase_counts`` tuple-of-tuples into lists; restore
    the canonical shape so a journaled outcome compares equal to the
    freshly computed one (the property kill-and-resume tests assert).
    """
    data = {k: v for k, v in payload.items() if k in _OUTCOME_FIELDS}
    data["phase_counts"] = tuple(
        (str(phase), int(count))
        for phase, count in data.get("phase_counts", ())
    )
    return FaultCellOutcome(**data)


def fault_spec_key(stage: str, index: int, spec: FaultCampaignSpec) -> str:
    """Stable journal identity of one campaign cell.

    The ``index`` prefix guarantees uniqueness (planned tamper points
    can collide on tiny traces); it is deterministic because planning
    is a pure function of the probe outcomes and campaign parameters.
    """
    trigger = spec.trigger.describe() if spec.trigger else "probe"
    return (
        f"{stage}/{index:04d}/{spec.protocol}/{spec.trace.label()}"
        f"/a{spec.trace.accesses}/{trigger}/{spec.tamper or 'clean'}"
        f"/s{spec.seed}"
    )


def validate_campaign(
    protocols: Sequence[str], traces: Sequence[TraceSpec]
) -> None:
    """Reject unknown protocols/workloads before any probe runs."""
    from repro.core.protocol import protocol_names

    known = set(protocol_names())
    for protocol in protocols:
        if protocol not in known:
            raise ConfigValidationError(
                "campaign.protocols",
                f"unknown protocol {protocol!r}; known: {sorted(known)}",
            )
    for trace in traces:
        validate_trace_spec(trace)


# ----------------------------------------------------------------------
# planning and aggregation
# ----------------------------------------------------------------------


def spread_ordinals(count: int, samples: int) -> List[int]:
    """Up to ``samples`` 1-based ordinals spread evenly over
    ``count`` occurrences, always including the first and last."""
    if count <= 0 or samples <= 0:
        return []
    if count <= samples:
        return list(range(1, count + 1))
    if samples == 1:
        return [(count + 1) // 2]
    return sorted(
        {round(i * (count - 1) / (samples - 1)) + 1 for i in range(samples)}
    )


@dataclass
class CampaignReport:
    """Aggregated campaign outcome."""

    parameters: Dict[str, Any]
    baselines: List[FaultCellOutcome]
    cells: List[FaultCellOutcome]
    #: Quarantined cells (supervised runs): the run completed without
    #: them, but they must surface in reports and exit codes.
    failures: List[CellFailure] = field(default_factory=list)

    def by_protocol(self) -> Dict[str, Dict[str, int]]:
        return self._matrix(lambda cell: cell.protocol)

    def by_phase(self) -> Dict[str, Dict[str, int]]:
        return self._matrix(lambda cell: cell.phase_label)

    def _matrix(self, key) -> Dict[str, Dict[str, int]]:
        counts: Dict[str, Dict[str, int]] = {}
        for cell in self.cells:
            row = counts.setdefault(key(cell), {})
            row[cell.verdict] = row.get(cell.verdict, 0) + 1
        return counts

    def phase_occurrences(self) -> Dict[str, int]:
        """Total crash-window occurrences observed by the probes."""
        totals: Dict[str, int] = {}
        for probe in self.baselines:
            for phase, count in probe.phase_counts:
                totals[phase] = totals.get(phase, 0) + count
        return totals

    def silent_cells(self) -> List[FaultCellOutcome]:
        return [c for c in self.cells if c.verdict == VERDICT_SILENT]

    def crash_state_coverage(self) -> Dict[str, int]:
        """Aggregate crash-state exploration counts across all cells.

        All zero for write-through campaigns (no WPQ, one reachable
        state per crash, already covered by the ordinary oracle pass).
        """
        coverage = {
            "total_reachable": 0,
            "explored": 0,
            "sampled": 0,
            "skipped": 0,
            "torn": 0,
            "exhaustive_cells": 0,
            "sampled_cells": 0,
        }
        for cell in self.cells:
            coverage["total_reachable"] += cell.crash_states_total
            coverage["explored"] += cell.crash_states_explored
            coverage["sampled"] += cell.crash_states_sampled
            coverage["skipped"] += cell.crash_states_skipped
            coverage["torn"] += cell.torn_states
            if cell.exploration == "exhaustive":
                coverage["exhaustive_cells"] += 1
            elif cell.exploration == "sampled":
                coverage["sampled_cells"] += 1
        return coverage

    def anomalies(self) -> List[FaultCellOutcome]:
        return [
            c for c in self.baselines + self.cells if c.anomaly
        ]

    def summary(self) -> Dict[str, Any]:
        verdicts: Dict[str, int] = {}
        for cell in self.cells:
            verdicts[cell.verdict] = verdicts.get(cell.verdict, 0) + 1
        return {
            "cells": len(self.cells),
            "baselines": len(self.baselines),
            "verdicts": verdicts,
            "by_protocol": self.by_protocol(),
            "by_phase": self.by_phase(),
            "phase_occurrences": self.phase_occurrences(),
            "silent_divergence": len(self.silent_cells()),
            "anomalies": len(self.anomalies()),
            "failed_cells": len(self.failures),
            "crash_states": self.crash_state_coverage(),
        }

    def write_json(self, path) -> None:
        from repro.bench.export import export_experiment

        export_experiment(
            "fault-campaign",
            {
                "summary": self.summary(),
                "baselines": list(self.baselines),
                "cells": list(self.cells),
                "failures": list(self.failures),
            },
            path,
            parameters=self.parameters,
        )


def plan_cells(
    baseline: FaultCellOutcome,
    probe_spec: FaultCampaignSpec,
    crash_every: int = 0,
    random_crashes: int = 0,
    phase_samples: int = 3,
    tamper_crashes: int = 0,
    tamper_target: str = "data",
) -> List[FaultCampaignSpec]:
    """Crash cells for one (protocol, workload), from its probe run."""
    total = baseline.accesses_completed
    specs: List[FaultCampaignSpec] = []
    points = set()
    if crash_every > 0:
        points.update(range(crash_every, total, crash_every))
    if random_crashes > 0:
        rng = make_rng(
            f"{probe_spec.seed}/faults/plan/{probe_spec.protocol}"
            f"/{probe_spec.trace.label()}"
        )
        candidates = range(1, max(2, total))
        picks = min(random_crashes, len(candidates))
        points.update(rng.sample(candidates, picks))
    for at in sorted(points):
        specs.append(replace(probe_spec, trigger=CrashTrigger("access", at)))
    for phase, count in baseline.phase_counts:
        for ordinal in spread_ordinals(count, phase_samples):
            specs.append(
                replace(
                    probe_spec,
                    trigger=CrashTrigger("phase", ordinal, phase),
                )
            )
    # Persist-window cells cut power *inside* the open group (a phase
    # trigger on the same window defers to the group commit instead):
    # together the two kinds cover both edges of every persist group.
    window_count = dict(baseline.phase_counts).get(PHASE_PERSIST_WINDOW, 0)
    for ordinal in spread_ordinals(window_count, phase_samples):
        specs.append(
            replace(
                probe_spec,
                trigger=CrashTrigger("persist-window", ordinal),
            )
        )
    for i in range(tamper_crashes):
        at = max(1, total * (i + 1) // (tamper_crashes + 1))
        specs.append(
            replace(
                probe_spec,
                trigger=CrashTrigger("access", at),
                tamper=tamper_target,
            )
        )
    return specs


def run_campaign(
    protocols: Sequence[str],
    traces: Sequence[TraceSpec],
    config: Optional[SystemConfig] = None,
    crash_every: int = 0,
    random_crashes: int = 0,
    phase_samples: int = 3,
    tamper_crashes: int = 0,
    tamper_target: str = "data",
    seed: Seed = 0,
    churn_interval: int = 1024,
    max_crash_states: int = DEFAULT_MAX_CRASH_STATES,
    torn_lines: bool = True,
    workers: Optional[int] = 1,
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    policy: Optional[SupervisionPolicy] = None,
) -> CampaignReport:
    """Probe, plan, and sweep the full campaign grid.

    With ``run_dir`` set the campaign runs under supervision: every
    probe and cell outcome is checkpointed to a crash-safe journal in
    that directory, failed cells are retried and then quarantined
    instead of aborting, and ``resume=True`` continues a killed run —
    producing a report bit-identical to an uninterrupted one (planning
    is a pure function of the journaled probe outcomes). ``policy``
    alone (no ``run_dir``) supervises without journaling.
    """
    if config is None:
        config = default_fault_config()
    protocols = list(protocols)
    traces = list(traces)
    validate_campaign(protocols, traces)
    probe_specs = [
        FaultCampaignSpec(
            protocol=protocol,
            trace=trace,
            trigger=None,
            seed=seed,
            churn_interval=churn_interval,
            max_crash_states=max_crash_states,
            torn_lines=torn_lines,
        )
        for protocol in protocols
        for trace in traces
    ]
    parameters = {
        "protocols": list(protocols),
        "workloads": [trace.label() for trace in traces],
        "crash_every": crash_every,
        "random_crashes": random_crashes,
        "phase_samples": phase_samples,
        "tamper_crashes": tamper_crashes,
        "tamper_target": tamper_target,
        "seed": seed,
        "churn_interval": churn_interval,
        "persist_model": config.persist_model,
        "max_crash_states": max_crash_states,
        "torn_lines": torn_lines,
        "capacity_bytes": config.pcm.capacity_bytes,
        "metadata_cache_bytes": config.metadata_cache.capacity_bytes,
    }

    supervised = run_dir is not None or policy is not None
    if not supervised:
        runner = ParallelSweepRunner(workers=workers)
        baselines = runner.map(
            _fault_pool_entry, [(spec, config) for spec in probe_specs]
        )
        specs = _plan_all(
            baselines,
            probe_specs,
            crash_every=crash_every,
            random_crashes=random_crashes,
            phase_samples=phase_samples,
            tamper_crashes=tamper_crashes,
            tamper_target=tamper_target,
        )
        cells = _run_grouped(runner, specs, config)
        report = CampaignReport(
            parameters=parameters, baselines=baselines, cells=cells
        )
        _record_campaign_telemetry(report)
        return report

    probe_keys = [
        fault_spec_key("probe", i, spec)
        for i, spec in enumerate(probe_specs)
    ]
    journal = None
    if run_dir is not None:
        manifest = build_manifest(
            "fault-campaign", config, probe_keys, parameters
        )
        journal = RunJournal.open(run_dir, manifest, resume=resume)
    supervisor = SupervisedRunner(
        workers=workers, policy=policy, journal=journal
    )
    probe_outcomes = supervisor.map(
        _fault_pool_entry,
        [(spec, config) for spec in probe_specs],
        probe_keys,
        encode=outcome_to_payload,
        decode=outcome_from_payload,
    )
    # A quarantined probe removes its (protocol, workload) pair from
    # planning — deterministically, since the failure is journaled too.
    planned_baselines = [
        None if isinstance(outcome, CellFailure) else outcome
        for outcome in probe_outcomes
    ]
    specs = _plan_all(
        planned_baselines,
        probe_specs,
        crash_every=crash_every,
        random_crashes=random_crashes,
        phase_samples=phase_samples,
        tamper_crashes=tamper_crashes,
        tamper_target=tamper_target,
    )
    cell_keys = [
        fault_spec_key("cell", i, spec) for i, spec in enumerate(specs)
    ]
    cell_outcomes = supervisor.map(
        _fault_pool_entry,
        [(spec, config) for spec in specs],
        cell_keys,
        encode=outcome_to_payload,
        decode=outcome_from_payload,
    )
    baselines, probe_failures = split_outcomes(probe_outcomes)
    cells, cell_failures = split_outcomes(cell_outcomes)
    report = CampaignReport(
        parameters=parameters,
        baselines=baselines,
        cells=cells,
        failures=probe_failures + cell_failures,
    )
    _record_campaign_telemetry(report)
    return report


def _record_campaign_telemetry(report: "CampaignReport") -> None:
    """Fold campaign verdicts into metrics and the event sink.

    Runs parent-side on the assembled report so counts are complete no
    matter which worker (or the in-process fallback) ran each cell, and
    are never double counted across pool and fallback paths.
    """
    telemetry.record_fault_outcomes(report.cells)
    for cell in report.cells:
        telemetry.emit_event(
            "fault_verdict",
            protocol=cell.protocol,
            workload=cell.workload,
            verdict=cell.verdict,
            phase=cell.phase_label,
        )
    telemetry.get_sink().flush()


def _plan_all(
    baselines: Sequence[Optional[FaultCellOutcome]],
    probe_specs: Sequence[FaultCampaignSpec],
    **plan_kwargs: Any,
) -> List[FaultCampaignSpec]:
    """Crash cells for every successfully probed (protocol, workload)."""
    specs: List[FaultCampaignSpec] = []
    for baseline, probe_spec in zip(baselines, probe_specs):
        if baseline is None:
            continue
        specs.extend(plan_cells(baseline, probe_spec, **plan_kwargs))
    return specs
