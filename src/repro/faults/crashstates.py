"""Crash-state exploration: every NVM image a power cut could leave.

Under ``persist_model="wpq"`` (repro.mem.nvm) a crashed machine's
backend holds every store *applied*, while the write-pending queue's
undo log records which lines were still volatile and in which fence
epoch each value was enqueued. The reachable post-crash images are the
*fence-respecting* rollbacks of that log: a value enqueued in epoch
``e`` may only survive if every value from earlier epochs survives too
(fences order the queue), while values within one epoch drain in any
order (any subset may survive). Formally, each reachable state picks a
boundary epoch ``k`` — epochs below ``k`` fully drained, epochs above
``k`` fully lost — plus an arbitrary subset of the epoch-``k`` lines,
giving::

    reachable = 1 + sum over epochs k of (2^lines_at(k) - 1)

(the ``1`` is the nothing-drained state; the all-drained state is the
full subset at the last epoch — it is the image as crashed, audited by
the campaign's ordinary oracle pass and therefore not re-emitted
here).

When ``reachable`` fits the budget every state is enumerated
(*exhaustive*); beyond it, states are seeded-random *sampled* — always
including the nothing-drained extreme — and the skipped count is
reported so truncation is never silent. *Torn-line* variants add, per
pending line, one image where the line's newest value is half-applied:
``new[:cut] + previous[cut:]`` at a seeded byte offset, modeling a
64-byte line interrupted mid-burst.

Each state is materialized as a patched clone of the crashed image and
judged by the existing recovery + oracle contract
(repro.faults.oracle): ``recovered`` and ``detected`` are acceptable,
``silent-divergence`` never is. The non-volatile registers (and the
tree's root register) are restored from their crash-time snapshot
before every state so one state's recovery cannot leak into the next.

A campaign's capture pass keeps driving past all but its last crash;
at each of those cuts it audits a fresh engine put in the crash state
(:func:`install_crash_state`) before the drive goes on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.oracle import (
    VERDICT_DETECTED,
    VERDICT_RECOVERED,
    VERDICT_SILENT,
    run_oracle,
)
from repro.mem.backend import Key, MetadataRegion, SparseMemory
from repro.mem.nvm import PendingLine
from repro.util.rng import Seed, make_rng

#: Default ceiling on enumerated/sampled drain subsets per crash
#: (2^12; the ISSUE's exhaustiveness bound).
DEFAULT_MAX_CRASH_STATES = 4096

#: Verdict severity for worst-across-states aggregation.
_SEVERITY = {VERDICT_RECOVERED: 0, VERDICT_DETECTED: 1, VERDICT_SILENT: 2}


def worst_verdict(verdicts: Sequence[str]) -> str:
    """The most severe verdict of a non-empty sequence."""
    return max(verdicts, key=lambda v: _SEVERITY.get(v, 2))


# ----------------------------------------------------------------------
# state planning (pure — unit-testable without a machine)
# ----------------------------------------------------------------------


#: One line's rollback target: ``None`` erases the line (it did not
#: exist before the first un-drained store), bytes installs that value.
Patch = Tuple[Tuple[MetadataRegion, Key, Optional[bytes]], ...]


@dataclass(frozen=True, slots=True)
class CrashState:
    """One reachable post-crash image, as a patch over the full image."""

    label: str
    patch: Patch
    sampled: bool = False
    torn: bool = False


@dataclass
class CrashStatePlan:
    """Every image the explorer will audit, plus coverage accounting."""

    states: List[CrashState]
    #: All fence-respecting subsets, including the all-drained state
    #: audited by the ordinary oracle pass (not re-emitted here).
    total_reachable: int
    exhaustive: bool
    sampled: int
    skipped: int
    torn: int


def _value_before(line: PendingLine, version_index: int) -> Optional[bytes]:
    """The line's content if versions[version_index] had not drained."""
    if version_index == 0:
        return line.original if line.existed else None
    return line.versions[version_index - 1][1]


def _rollback_to(line: PendingLine, boundary: int, include_at: bool):
    """(changed, value) once epochs above ``boundary`` are lost.

    ``include_at`` keeps the line's epoch-``boundary`` version (the
    free subset choice). ``changed`` is False when every version
    survives, i.e. the image already holds the right bytes.
    """
    applied = -1
    for i, (epoch, _) in enumerate(line.versions):
        if epoch < boundary or (epoch == boundary and include_at):
            applied = i
    if applied == len(line.versions) - 1:
        return False, None
    if applied < 0:
        return True, (line.original if line.existed else None)
    return True, line.versions[applied][1]


def _subset_patch(
    lines: Sequence[PendingLine], boundary: int, chosen: Sequence[PendingLine]
) -> Patch:
    chosen_ids = {id(line) for line in chosen}
    patch = []
    for line in lines:
        changed, value = _rollback_to(
            line, boundary, include_at=id(line) in chosen_ids
        )
        if changed:
            patch.append((line.region, line.key, value))
    return tuple(patch)


def _line_label(line: PendingLine) -> str:
    return f"{line.region.value}:{line.key}"


def plan_crash_states(
    pending: Sequence[PendingLine],
    max_crash_states: int = DEFAULT_MAX_CRASH_STATES,
    torn_lines: bool = True,
    seed: Seed = 0,
) -> CrashStatePlan:
    """Enumerate (or sample) the fence-respecting rollback states.

    Pure function of the frozen pending set: exhaustive when the
    reachable count (minus the all-drained state) fits
    ``max_crash_states``, else seeded-random sampling with exact
    skipped-state accounting. Torn variants ride on top and do not
    consume the subset budget (they are bounded by the pending line
    count).
    """
    lines = list(pending)
    if not lines:
        return CrashStatePlan(
            states=[],
            total_reachable=1,
            exhaustive=True,
            sampled=0,
            skipped=0,
            torn=0,
        )
    epochs = sorted({epoch for line in lines for epoch, _ in line.versions})
    lines_at: Dict[int, List[PendingLine]] = {
        epoch: [
            line
            for line in lines
            if any(e == epoch for e, _ in line.versions)
        ]
        for epoch in epochs
    }
    total_reachable = 1 + sum(
        (1 << len(group)) - 1 for group in lines_at.values()
    )

    states: List[CrashState] = []

    def subset_state(
        boundary: int, mask: int, sampled: bool
    ) -> CrashState:
        group = lines_at[boundary]
        chosen = [line for i, line in enumerate(group) if mask >> i & 1]
        return CrashState(
            label=f"epoch{boundary}:mask{mask:x}",
            patch=_subset_patch(lines, boundary, chosen),
            sampled=sampled,
        )

    base = CrashState(
        label="none-drained", patch=_subset_patch(lines, epochs[0], [])
    )
    candidates = total_reachable - 1  # all-drained audited separately
    if candidates <= max_crash_states:
        exhaustive = True
        sampled_count = 0
        states.append(base)
        last_epoch = epochs[-1]
        for boundary in epochs:
            group = lines_at[boundary]
            full = (1 << len(group)) - 1
            for mask in range(1, full + 1):
                if boundary == last_epoch and mask == full:
                    continue  # the all-drained state (ordinary pass)
                states.append(subset_state(boundary, mask, sampled=False))
    else:
        exhaustive = False
        rng = make_rng(f"{seed}/crashstates/{len(lines)}/{total_reachable}")
        # Boundary epochs weighted by how many subsets they own, so the
        # sample is uniform over reachable states.
        weights = [(1 << len(lines_at[e])) - 1 for e in epochs]
        states.append(base)
        seen = {("", 0)}
        budget = max(1, max_crash_states)
        attempts = 0
        while len(states) < budget and attempts < budget * 32:
            attempts += 1
            boundary = rng.choices(epochs, weights=weights)[0]
            mask = rng.randrange(1, 1 << len(lines_at[boundary]))
            if boundary == epochs[-1] and mask == (
                (1 << len(lines_at[boundary])) - 1
            ):
                continue
            if (boundary, mask) in seen:
                continue
            seen.add((boundary, mask))
            states.append(subset_state(boundary, mask, sampled=True))
        sampled_count = len(states) - 1
    skipped = candidates - len(states)

    torn_count = 0
    if torn_lines:
        rng = make_rng(f"{seed}/crashstates/torn/{len(lines)}")
        for line in lines:
            epoch, new = line.versions[-1][0], line.versions[-1][1]
            if len(new) < 2:
                continue  # nothing to tear in a 1-byte line
            prev = _value_before(line, len(line.versions) - 1)
            prev_bytes = prev if prev is not None else bytes(len(new))
            if len(prev_bytes) < len(new):
                prev_bytes = prev_bytes + bytes(len(new) - len(prev_bytes))
            cut = rng.randrange(1, len(new))
            torn_value = new[:cut] + prev_bytes[cut : len(new)]
            if torn_value == new:
                continue  # tear is invisible; skip the duplicate image
            # Everything below the line's last epoch drained, nothing
            # else at/above it — the state in which this line was the
            # one mid-burst when the power died.
            patch = list(_subset_patch(lines, epoch, []))
            patch = [
                entry for entry in patch if entry[:2] != (line.region, line.key)
            ]
            patch.append((line.region, line.key, torn_value))
            states.append(
                CrashState(
                    label=f"torn:{_line_label(line)}@{cut}",
                    patch=tuple(patch),
                    torn=True,
                )
            )
            torn_count += 1

    return CrashStatePlan(
        states=states,
        total_reachable=total_reachable,
        exhaustive=exhaustive,
        sampled=sampled_count,
        skipped=skipped,
        torn=torn_count,
    )


# ----------------------------------------------------------------------
# state auditing (drives recovery + oracle per image)
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CrashStateOutcome:
    """Verdict of one explored crash state."""

    label: str
    verdict: str
    in_flight_outcome: str = "none"
    detail: str = ""
    sampled: bool = False
    torn: bool = False


@dataclass
class CrashExploration:
    """Everything the explorer measured for one crashed cell."""

    total_reachable: int
    exhaustive: bool
    explored: int = 0
    sampled: int = 0
    skipped: int = 0
    torn: int = 0
    outcomes: List[CrashStateOutcome] = field(default_factory=list)

    @property
    def worst(self) -> Optional[CrashStateOutcome]:
        if not self.outcomes:
            return None
        return max(
            self.outcomes, key=lambda o: _SEVERITY.get(o.verdict, 2)
        )

    def silent_states(self) -> List[CrashStateOutcome]:
        return [o for o in self.outcomes if o.verdict == VERDICT_SILENT]


def _snapshot_registers(mee) -> Dict[str, Tuple[bytes, object]]:
    return {
        name: (register.value, register.tag)
        for name, register in mee.registers._registers.items()
    }


def _install_state(
    mee,
    image: SparseMemory,
    registers: Dict[str, Tuple[bytes, object]],
    root: bytes,
) -> None:
    """Point the crashed machine at ``image`` with pristine NV state.

    Volatile structures are re-dropped (one state's recovery fills the
    metadata cache and tree overlay; the next state must start from
    the crash) and the NV registers are rolled back to their values at
    the moment of the crash.
    """
    mee.nvm.backend = image
    mee.tree.backend = image
    mee.mdcache.drop_all()
    mee._volatile_hmacs.clear()
    mee.tree._volatile_counters.clear()
    mee.tree._volatile_nodes.clear()
    for name, (value, tag) in registers.items():
        register = mee.registers._registers[name]
        register.value = value
        register.tag = tag
    mee.tree.root_register = root


def install_crash_state(engine, mee) -> None:
    """Put ``engine`` — a fresh engine of ``mee``'s protocol and config
    — in the state a power cut now would leave ``mee`` in: the NVM
    image, on the engine's own copy (tamper and recovery write to it),
    the NV registers, the BMT root register and the protocol's
    Python-held anchors
    (:meth:`~repro.core.protocol.MetadataPersistencePolicy.save_anchors`).

    Everything else ``mee`` holds is volatile (metadata cache, tree
    overlay, volatile HMACs) and dies in ``mee.crash()`` anyway. Moves
    nothing: ``mee`` may keep going once the engine is done with.
    """
    _install_state(
        engine,
        mee.nvm.backend.snapshot(),
        _snapshot_registers(mee),
        mee.tree.root_register,
    )
    engine.protocol.restore_anchors(mee.protocol.save_anchors())


def explore_crash_states(
    mee,
    record,
    pending: Sequence[PendingLine],
    max_crash_states: int = DEFAULT_MAX_CRASH_STATES,
    torn_lines: bool = True,
    seed: Seed = 0,
) -> CrashExploration:
    """Audit every planned crash state of a crashed, frozen machine.

    Call after ``mee.crash()`` with the WPQ's frozen pending set. The
    machine is left installed on a pristine clone of the as-crashed
    (all-drained) image, so the caller's ordinary oracle pass runs
    unperturbed afterwards; that pass covers the all-drained state the
    plan deliberately omits.
    """
    plan = plan_crash_states(
        pending,
        max_crash_states=max_crash_states,
        torn_lines=torn_lines,
        seed=seed,
    )
    exploration = CrashExploration(
        total_reachable=plan.total_reachable,
        exhaustive=plan.exhaustive,
        sampled=plan.sampled,
        skipped=plan.skipped,
        torn=plan.torn,
    )
    if not plan.states:
        return exploration
    base_image = mee.nvm.backend.snapshot()
    registers = _snapshot_registers(mee)
    root = mee.tree.root_register
    for state in plan.states:
        image = base_image.snapshot()
        for region, key, value in state.patch:
            if value is None:
                image.erase(region, key)
            else:
                image.write(region, key, value)
        _install_state(mee, image, registers, root)
        report = run_oracle(mee, record)
        detail = ""
        if report.verdict != VERDICT_RECOVERED:
            detail = report.first_divergence or report.recovery_detail
        exploration.outcomes.append(
            CrashStateOutcome(
                label=state.label,
                verdict=report.verdict,
                in_flight_outcome=report.in_flight_outcome,
                detail=detail,
                sampled=state.sampled,
                torn=state.torn,
            )
        )
    # ``explored`` counts drain subsets only — comparable against
    # ``total_reachable`` — while torn variants are tallied separately.
    exploration.explored = sum(
        1 for outcome in exploration.outcomes if not outcome.torn
    )
    # Hand the machine back on the unexplored image for the ordinary
    # (all-drained) oracle pass.
    _install_state(mee, base_image.snapshot(), registers, root)
    return exploration
