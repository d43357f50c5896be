"""The integrity oracle: judge a crashed machine's recovery.

After the campaign cuts power (and optionally tampers with the NVM
image) the oracle runs the bound protocol's recovery and audits the
result against the replay's golden shadow copy:

1. **recovery** — ``protocol.recover(tree)``; a raised
   :class:`~repro.errors.SecurityError` or a not-ok outcome means the
   system *detected* an unrecoverable/tampered state (which is correct
   behaviour under tamper, and a failure of the protocol's
   crash-consistency claim otherwise);
2. **full-tree verify** — every page the replay wrote is re-verified
   against the persisted tree image;
3. **data readback** — every golden block is read back through the
   normal authenticated read path and compared to the shadow payload.

Verdicts, strongest claim last:

* ``"recovered"`` — recovery succeeded and every golden block read
  back bit-identical;
* ``"detected"`` — the system refused: recovery failed loudly, or
  reads raised integrity errors. Data may be lost but nothing lied;
* ``"silent-divergence"`` — a read *succeeded* and returned bytes
  different from the golden copy. The one outcome a secure-memory
  system must never produce.

An interrupted write whose persist group had not drained may read back
as the old value, the new value, or raise — all acceptable for a torn
write; silent third values are not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SecurityError
from repro.sim.engine import ReplayRecord

VERDICT_RECOVERED = "recovered"
VERDICT_DETECTED = "detected"
VERDICT_SILENT = "silent-divergence"


@dataclass
class OracleReport:
    """Everything the oracle measured for one cell."""

    verdict: str
    recovery_ok: bool
    recovery_detail: str
    nodes_recomputed: int
    blocks_checked: int = 0
    blocks_recovered: int = 0
    blocks_detected: int = 0
    blocks_diverged: int = 0
    pages_verified: int = 0
    pages_inconsistent: int = 0
    #: "none" | "old" | "new" | "detected" | "diverged"
    in_flight_outcome: str = "none"
    first_divergence: str = ""


def run_oracle(mee, record: ReplayRecord) -> OracleReport:
    """Recover the crashed engine and audit it against the shadow."""
    try:
        outcome = mee.protocol.recover(mee.tree)
        recovery_ok = bool(outcome.ok)
        detail = outcome.detail
        nodes = outcome.nodes_recomputed
    except SecurityError as error:
        recovery_ok = False
        detail = f"{type(error).__name__}: {error}"
        nodes = 0
    if not recovery_ok:
        return OracleReport(
            verdict=VERDICT_DETECTED,
            recovery_ok=False,
            recovery_detail=detail,
            nodes_recomputed=nodes,
        )

    report = OracleReport(
        verdict=VERDICT_RECOVERED,
        recovery_ok=True,
        recovery_detail=detail,
        nodes_recomputed=nodes,
    )
    page_index = mee.address_space.page_index
    pages = sorted({page_index(base) for base in record.golden})
    for index in pages:
        report.pages_verified += 1
        if not mee.tree.verify_counter(index, persisted_only=True).ok:
            report.pages_inconsistent += 1

    # The in-flight block is judged by the old/new/detected contract
    # below, not by byte equality: its golden entry still holds the
    # pre-crash payload, and a legitimately applied new value must not
    # be miscounted as divergence.
    in_flight_base = record.in_flight[0] if record.in_flight else None
    for base, payload in sorted(record.golden.items()):
        if base == in_flight_base:
            continue
        report.blocks_checked += 1
        try:
            data = mee.read_block_data(base)
        except SecurityError:
            report.blocks_detected += 1
            continue
        if data == payload:
            report.blocks_recovered += 1
        else:
            report.blocks_diverged += 1
            if not report.first_divergence:
                report.first_divergence = (
                    f"block {base:#x}: read {data[:8].hex()}.., "
                    f"golden {payload[:8].hex()}.."
                )

    if record.in_flight is not None:
        base, old, new = record.in_flight
        block_bytes = len(new)
        try:
            data = mee.read_block_data(base)
        except SecurityError:
            report.in_flight_outcome = "detected"
        else:
            if data == new:
                report.in_flight_outcome = "new"
            elif data == (old if old is not None else bytes(block_bytes)):
                report.in_flight_outcome = "old"
            else:
                report.in_flight_outcome = "diverged"
                if not report.first_divergence:
                    report.first_divergence = (
                        f"in-flight block {base:#x} read back a third value"
                    )

    if report.blocks_diverged or report.in_flight_outcome == "diverged":
        report.verdict = VERDICT_SILENT
    elif report.blocks_detected or report.pages_inconsistent:
        report.verdict = VERDICT_DETECTED
    return report
