"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``sweep`` — run one benchmark profile under a set of protocols and
  print the normalized-cycles table (one bar group of Figure 4/8);
* ``experiment`` — regenerate a whole paper artifact by name
  (``fig3``..``fig8``, ``table2``..``table4``);
* ``faults`` — run a fault-injection campaign (swept crash points,
  recovery + integrity oracle) and write ``FAULTS_campaign.json``;
* ``area-table`` — print Table 3;
* ``recovery-table`` — print Table 4;
* ``protocols`` — list registered protocols;
* ``store`` — inspect/maintain the content-addressed result store
  (``stats``/``verify``/``gc``/``ls``, see docs/STORE.md);
* ``metrics`` — print a ``repro.metrics/v1`` document (from
  ``--metrics-out``) as snapshot tables or Prometheus text.

``sweep`` and ``experiment`` accept ``--workers N`` to fan the sweep
grid out over a process pool; results are bit-identical to the serial
run. Sweeps compile each trace's data side and metadata plan once and
replay them into every protocol (see docs/PERFORMANCE.md). Host-time
measurement lives in ``perfbench/``; for one cell's hotspots run
``python -m cProfile -s cumtime -m repro.cli sweep <bench> --protocols
amnt``.

``sweep`` and ``faults`` accept ``--run-dir DIR`` to journal every
completed cell (crash-safe, resumable with ``--resume DIR``) and
supervision knobs (``--max-attempts``, ``--cell-timeout``); see
docs/RESILIENCE.md for the journal format and exit codes. A journaled
sweep writes its per-cell results to ``<run-dir>/SWEEP_results.json``;
it runs PARSEC benchmarks at the default subtree level without
scatter. Supervised runs additionally write lifecycle events to
``<run-dir>/events.jsonl``.

``sweep`` and ``faults`` accept ``--metrics-out PATH`` (export the
run's metrics as a ``repro.metrics/v1`` document) and
``--no-telemetry`` (disable collection; results are bit-identical
either way) — see docs/OBSERVABILITY.md.

``sweep`` accepts ``--store-dir DIR`` (or ``$REPRO_STORE_DIR``) to
reuse cells already computed under identical inputs through the
content-addressed result store, and ``--no-store`` to force it off;
fault campaigns never consult the store (they mutate machine state
mid-run). Without a store, a process still simulates each distinct
cell once: sweep grids read through an in-memory result tier keyed by
the same fingerprints. ``sweep`` accepts ``--cache-limit N`` (or
``$REPRO_CACHE_LIMIT``) to cap the process-wide trace,
compiled-artifact and result caches — see docs/STORE.md.

Everything the CLI does is a thin wrapper over the public API, so the
printed numbers are identical to what the pytest benchmark harness
reports for the same sizes and seeds.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench import experiments
from repro.bench.reporting import format_series, format_table
from repro.config import default_config
from repro.core.protocol import protocol_names
from repro.errors import ResumeManifestMismatch

#: Distinct exit codes for supervised runs (documented in
#: docs/RESILIENCE.md): integrity failures keep the historic 1.
EXIT_OK = 0
EXIT_INTEGRITY = 1
EXIT_QUARANTINED = 3
EXIT_RESUME_MISMATCH = 4
EXIT_INTERRUPTED = 130
from repro.sim.runner import FIGURE_PROTOCOLS, sweep_normalized
from repro.workloads.parsec import PARSEC_PROFILES, parsec_profile
from repro.workloads.registry import (
    DEFAULT_COMPILED_CACHE_LIMIT,
    DEFAULT_RESULT_CACHE_LIMIT,
    DEFAULT_TRACE_CACHE_LIMIT,
    profile_spec,
)
from repro.workloads.spec import SPEC_PROFILES, spec_profile


def _profile_for(name: str):
    if name in PARSEC_PROFILES:
        return parsec_profile(name)
    if name in SPEC_PROFILES:
        return spec_profile(name)
    known = sorted(set(PARSEC_PROFILES) | set(SPEC_PROFILES))
    raise SystemExit(f"unknown benchmark {name!r}; known: {known}")


def cmd_sweep(args: argparse.Namespace) -> int:
    config = default_config(subtree_level=args.subtree_level)
    run_dir, resume = _resolve_run_dir(args)
    if run_dir:
        # The journaled grid always runs the default machine unscattered.
        if config != default_config() or args.scatter_chunks:
            raise SystemExit(
                "--run-dir/--resume run the default subtree level without "
                "scatter; drop --subtree-level and --scatter-chunks"
            )
        if args.benchmark not in PARSEC_PROFILES:
            raise SystemExit(
                f"--run-dir/--resume journal PARSEC benchmarks only, "
                f"got {args.benchmark!r}"
            )
    _telemetry_begin(args)
    _apply_cache_limit(args)
    store = _resolve_store(args)
    if run_dir:
        return _journaled_sweep(args, run_dir, resume, store)
    if args.benchmark in PARSEC_PROFILES:
        trace = profile_spec("parsec", args.benchmark, args.accesses, args.seed)
    elif args.benchmark in SPEC_PROFILES:
        trace = profile_spec("spec", args.benchmark, args.accesses, args.seed)
    else:
        _profile_for(args.benchmark)  # raises with the known-name list
        raise AssertionError("unreachable")
    normalized = sweep_normalized(
        trace,
        config,
        protocols=tuple(args.protocols),
        seed=args.seed,
        scatter_span_chunks=args.scatter_chunks,
        workers=args.workers,
        store=store,
    )
    rows = [
        {"protocol": name, "normalized_cycles": value}
        for name, value in normalized.items()
    ]
    print(
        format_table(
            rows,
            title=f"{args.benchmark} ({args.accesses} accesses, "
            f"subtree level {args.subtree_level})",
        )
    )
    _print_store_session(store)
    _telemetry_end(args, "sweep")
    return 0


def _journaled_sweep(args: argparse.Namespace, run_dir, resume, store) -> int:
    """``sweep --run-dir``: the same grid under supervision, each
    cell's deterministic result journaled and exported to
    ``<run-dir>/SWEEP_results.json`` (see docs/RESILIENCE.md)."""
    from pathlib import Path

    from repro.sim.runner import run_resilient_sweep

    _install_run_events(run_dir)
    outcome = run_resilient_sweep(
        Path(run_dir),
        resume=resume,
        workers=args.workers,
        benchmarks=(args.benchmark,),
        protocols=tuple(args.protocols),
        accesses=args.accesses,
        seed=args.seed,
        policy=_policy_from_args(args),
        store=store,
    )
    _print_store_session(store)
    print(
        f"resilient sweep: {outcome['completed']}/{outcome['cells']} "
        f"cells completed, {len(outcome['failures'])} quarantined"
    )
    print(f"journal: {outcome['journal']}")
    print(f"wrote {outcome['artifact']}")
    _telemetry_end(args, "sweep-resilient")
    if outcome["failures"]:
        _report_failures(outcome["failures"])
        return EXIT_QUARANTINED
    return EXIT_OK


def _print_store_session(store) -> None:
    if store is None:
        return
    session = store.session
    print(
        f"store: {session['hits']} hit(s), {session['misses']} miss(es), "
        f"{session['puts']} put(s) in {store.directory}"
    )


def cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name
    workers = args.workers
    if name == "fig3":
        print(format_series(experiments.fig3_hotness(accesses=args.accesses)))
    elif name == "fig4":
        print(
            format_series(
                experiments.fig4_single_program(
                    accesses=args.accesses, workers=workers
                ),
                title="Figure 4",
            )
        )
    elif name == "fig5":
        print(
            format_series(
                experiments.fig5_multiprogram(
                    accesses_each=args.accesses // 2, workers=workers
                ),
                title="Figure 5",
            )
        )
    elif name in ("fig6", "fig7"):
        sweep = experiments.fig6_fig7_level_sweep(
            accesses_each=args.accesses // 2, workers=workers
        )
        key = "cycles" if name == "fig6" else "hitrate"
        rows = []
        for pair, series in sweep.items():
            for protocol in ("amnt", "amnt++"):
                row = {"workload": pair, "protocol": protocol}
                row.update(
                    {
                        f"L{level}": value
                        for level, value in series[f"{protocol}_{key}"].items()
                    }
                )
                rows.append(row)
        print(format_table(rows, title=f"Figure {name[-1]} ({key})"))
    elif name == "fig8":
        print(
            format_series(
                experiments.fig8_spec(accesses=args.accesses, workers=workers),
                title="Figure 8",
            )
        )
    elif name == "table2":
        print(
            format_table(
                experiments.table2_os_cost(
                    accesses_each=args.accesses // 2, workers=workers
                ),
                title="Table 2",
            )
        )
    elif name == "table3":
        return cmd_area_table(args)
    elif name == "table4":
        return cmd_recovery_table(args)
    else:
        raise SystemExit(f"unknown experiment {name!r}")
    return 0


def cmd_area_table(_args: argparse.Namespace) -> int:
    rows = [row.row() for row in experiments.table3_area()]
    print(format_table(rows, title="Table 3 — hardware overheads"))
    return 0


def cmd_recovery_table(_args: argparse.Namespace) -> int:
    print(
        format_table(
            experiments.table4_recovery(),
            title="Table 4 — recovery time (ms)",
            precision=2,
        )
    )
    return 0


def cmd_protocols(_args: argparse.Namespace) -> int:
    for name in protocol_names():
        print(name)
    return 0


def cmd_profiles(_args: argparse.Namespace) -> int:
    from repro.workloads.storage import STORAGE_PROFILES

    rows = []
    for suite, profiles in (
        ("parsec", PARSEC_PROFILES),
        ("spec", SPEC_PROFILES),
    ):
        for profile in profiles.values():
            rows.append(
                {
                    "suite": suite,
                    "benchmark": profile.name,
                    "footprint_mb": profile.footprint_bytes // (1024 * 1024),
                    "write_frac": profile.write_fraction,
                    "seq_frac": profile.sequential_fraction,
                    "think": profile.think_cycles,
                }
            )
    for storage in STORAGE_PROFILES.values():
        rows.append(
            {
                "suite": "storage",
                "benchmark": storage.name,
                "footprint_mb": storage.base.footprint_bytes // (1024 * 1024),
                "write_frac": storage.base.write_fraction,
                "seq_frac": storage.base.sequential_fraction,
                "think": storage.base.think_cycles,
            }
        )
    rows.sort(key=lambda row: (row["suite"], row["benchmark"]))
    print(format_table(rows, title="Workload profiles", precision=2))
    return 0


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """Shared telemetry flags for simulation-running commands."""
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable metrics/span collection for this run",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's metrics as a repro.metrics/v1 document",
    )


def _telemetry_begin(args: argparse.Namespace) -> None:
    """Apply the telemetry flags and start from a clean registry."""
    from repro import telemetry

    if getattr(args, "no_telemetry", False):
        telemetry.set_enabled(False)
        return
    telemetry.set_enabled(True)
    telemetry.reset()


def _telemetry_end(args: argparse.Namespace, command: str) -> None:
    """Export the command's metrics snapshot if ``--metrics-out`` asked."""
    from repro import telemetry

    path = getattr(args, "metrics_out", None)
    if not path:
        return
    telemetry.write_metrics_artifact(
        path,
        telemetry.get_registry(),
        run={"kind": command},
        spans=telemetry.get_tracer().finished(),
    )
    print(f"wrote {path}")


def _install_run_events(run_dir) -> None:
    """Route the event sink to ``<run_dir>/events.jsonl`` for
    supervised runs, so lifecycle events land next to the journal."""
    from pathlib import Path

    from repro import telemetry

    telemetry.install_sink(Path(run_dir) / "events.jsonl")


def _add_store_args(parser: argparse.ArgumentParser) -> None:
    """Shared result-store flags for sweep-running commands."""
    parser.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="content-addressed result store: reuse cells already "
        "computed under identical inputs, write back the rest "
        "(default: $REPRO_STORE_DIR if set, else off)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="ignore --store-dir and $REPRO_STORE_DIR for this run",
    )


def _resolve_store(args: argparse.Namespace):
    """The ResultStore the flags ask for, or ``None`` (store off)."""
    from repro.store import ResultStore, resolve_store_dir

    directory = resolve_store_dir(
        getattr(args, "store_dir", None), getattr(args, "no_store", False)
    )
    return ResultStore(directory) if directory is not None else None


def _add_cache_limit_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-limit",
        type=int,
        default=None,
        metavar="N",
        help="cap the trace, compiled-artifact and result caches at N "
        "entries each (default: $REPRO_CACHE_LIMIT if set, else "
        f"{DEFAULT_TRACE_CACHE_LIMIT}/{DEFAULT_COMPILED_CACHE_LIMIT}/"
        f"{DEFAULT_RESULT_CACHE_LIMIT})",
    )


def _apply_cache_limit(args: argparse.Namespace) -> None:
    limit = getattr(args, "cache_limit", None)
    if limit is None:
        return
    if limit < 1:
        raise SystemExit(f"--cache-limit must be >= 1, got {limit}")
    from repro.workloads.registry import apply_cache_limit

    apply_cache_limit(limit)


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    """Shared supervision/journal flags for long-running commands."""
    parser.add_argument(
        "--run-dir",
        default=None,
        help="journal directory: checkpoint each cell for kill-safe resume",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="RUN_DIR",
        help="resume a killed run from its journal directory",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="tries per cell before quarantine (supervised runs)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=600.0,
        help="per-cell wall-clock budget in seconds (pool mode)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="completed cells between journal flushes",
    )
    parser.add_argument(
        "--die-after-flushes",
        type=int,
        default=None,
        help=argparse.SUPPRESS,  # test hook: simulate a kill at a checkpoint
    )


def _policy_from_args(args: argparse.Namespace):
    from repro.sim.supervisor import SupervisionPolicy

    return SupervisionPolicy(
        max_attempts=args.max_attempts,
        cell_timeout_seconds=args.cell_timeout,
        checkpoint_every=args.checkpoint_every,
        die_after_flushes=args.die_after_flushes,
    )


def _resolve_run_dir(args: argparse.Namespace):
    if args.resume and args.run_dir:
        raise SystemExit("--run-dir and --resume are mutually exclusive")
    return args.resume or args.run_dir, bool(args.resume)


def _report_failures(failures) -> None:
    for failure in failures:
        print(f"QUARANTINED: {failure.describe()}", file=sys.stderr)
        if failure.traceback:
            print(failure.traceback, file=sys.stderr)


def cmd_crash_drill(args: argparse.Namespace) -> int:
    """Functional crash/recovery drill: write, pull the plug, recover,
    audit — the quickest way to see a protocol's guarantee in action."""
    from repro.core.mee import MemoryEncryptionEngine
    from repro.core.protocol import make_protocol
    from repro.core.recovery import CrashInjector
    from repro.util.units import MB

    config = default_config(capacity_bytes=64 * MB)
    mee = MemoryEncryptionEngine(
        config, make_protocol(args.protocol, config), functional=True
    )
    records = {}
    for i in range(args.records):
        # 48 pages x 64 blocks: unique addresses up to 3072 records.
        addr = (i % 48) * 4096 + (i // 48) * 64
        payload = f"drill-{i:05d}".encode().ljust(64, b"\x00")
        mee.write_block(addr, data=payload)
        records[addr] = payload
    outcome = CrashInjector(mee).crash_and_recover()
    intact = sum(
        1 for addr, payload in records.items()
        if outcome.ok and mee.read_block_data(addr) == payload
    )
    print(
        f"protocol={args.protocol}  recovery="
        f"{'OK' if outcome.ok else 'FAILED'}  "
        f"nodes_recomputed={outcome.nodes_recomputed}  "
        f"records_intact={intact}/{len(records)}"
        + (f"  ({outcome.detail})" if outcome.detail else "")
    )
    return 0 if outcome.ok else 1


def cmd_faults(args: argparse.Namespace) -> int:
    """Run a fault-injection campaign and write the JSON report."""
    from pathlib import Path

    from repro.bench.reporting import format_matrix
    from repro.faults.campaign import default_fault_config, run_campaign
    from repro.faults.triggers import trigger_catalog
    from repro.workloads.faultprofiles import FAULT_PROFILES

    if args.list_triggers:
        print("crash-trigger kinds:")
        for kind, example, description in trigger_catalog():
            print(f"  {kind:<16} e.g. {example:<18} {description}")
        return EXIT_OK

    def split(values: List[str]) -> List[str]:
        return [item for chunk in values for item in chunk.split(",") if item]

    protocols = split(args.protocols)
    known = protocol_names()
    for protocol in protocols:
        if protocol not in known:
            raise SystemExit(
                f"unknown protocol {protocol!r}; known: {known}"
            )
    workloads = split(args.workloads)
    for workload in workloads:
        if workload not in FAULT_PROFILES:
            raise SystemExit(
                f"unknown fault workload {workload!r}; "
                f"known: {sorted(FAULT_PROFILES)}"
            )
    traces = [
        profile_spec("faults", name, args.accesses, args.seed)
        for name in workloads
    ]
    _telemetry_begin(args)
    run_dir, resume = _resolve_run_dir(args)
    if run_dir:
        _install_run_events(run_dir)
    report = run_campaign(
        protocols,
        traces,
        config=default_fault_config(persist_model=args.persist_model),
        crash_every=args.crash_every,
        random_crashes=args.random_crashes,
        phase_samples=args.phase_samples,
        tamper_crashes=args.tamper_crashes,
        tamper_target=args.tamper_target,
        seed=args.seed,
        max_crash_states=args.max_crash_states,
        torn_lines=args.torn_lines,
        workers=args.workers,
        run_dir=run_dir,
        resume=resume,
        policy=_policy_from_args(args) if run_dir else None,
    )
    summary = report.summary()
    print(
        format_matrix(
            report.by_protocol(),
            "protocol",
            title=f"Fault campaign — {summary['cells']} cells, "
            f"{summary['baselines']} baselines",
        )
    )
    print()
    print(format_matrix(report.by_phase(), "crash_phase"))
    print()
    occurrences = summary["phase_occurrences"]
    if occurrences:
        print(
            "crash windows observed: "
            + ", ".join(f"{k}={v}" for k, v in sorted(occurrences.items()))
        )
    coverage = summary["crash_states"]
    if coverage["total_reachable"]:
        print(
            f"crash states: {coverage['explored']} explored of "
            f"{coverage['total_reachable']} reachable "
            f"(sampled={coverage['sampled']}, skipped={coverage['skipped']}, "
            f"torn={coverage['torn']}; "
            f"{coverage['exhaustive_cells']} exhaustive / "
            f"{coverage['sampled_cells']} sampled cells)"
        )
    if args.output:
        report.write_json(Path(args.output))
        print(f"wrote {args.output}")
    _telemetry_end(args, "faults")
    failed = False
    for cell in report.silent_cells():
        failed = True
        state = f" state={cell.worst_state}" if cell.worst_state else ""
        print(
            f"SILENT DIVERGENCE: {cell.protocol}/{cell.workload} "
            f"{cell.trigger}:{state} {cell.first_divergence}"
        )
    for cell in report.anomalies():
        failed = True
        print(
            f"ANOMALY ({cell.anomaly}): {cell.protocol}/{cell.workload} "
            f"{cell.trigger}: verdict={cell.verdict} "
            f"{cell.recovery_detail}"
        )
    if failed:
        return EXIT_INTEGRITY
    if report.failures:
        _report_failures(report.failures)
        return EXIT_QUARANTINED
    return EXIT_OK


def cmd_store(args: argparse.Namespace) -> int:
    """Inspect and maintain a content-addressed result store."""
    from repro.store import ResultStore, resolve_store_dir

    directory = resolve_store_dir(args.store_dir)
    if directory is None:
        raise SystemExit(
            "no store directory: pass --store-dir or set $REPRO_STORE_DIR"
        )
    store = ResultStore(directory)

    if args.action == "stats":
        stats = store.stats()
        rows = [
            {"property": "objects", "value": stats["objects"]},
            {"property": "bytes", "value": stats["bytes"]},
            {"property": "index entries", "value": stats["index_entries"]},
        ]
        print(
            format_table(
                rows, title=f"result store — {stats['directory']}", precision=0
            )
        )
        return EXIT_OK

    if args.action == "verify":
        report = store.verify()
        print(
            f"verified {report['checked']} object(s): {report['ok']} ok, "
            f"{len(report['corrupt'])} corrupt"
        )
        for item in report["corrupt"]:
            print(
                f"CORRUPT: {item['fingerprint']} — {item['problem']}",
                file=sys.stderr,
            )
        return EXIT_INTEGRITY if report["corrupt"] else EXIT_OK

    if args.action == "gc":
        max_age = (
            args.max_age_days * 86400.0
            if args.max_age_days is not None
            else None
        )
        report = store.gc(max_age_seconds=max_age, max_objects=args.max_objects)
        print(
            f"gc: removed {report['removed']} object(s), "
            f"kept {report['kept']} "
            f"({report['index_entries']} index entries)"
        )
        return EXIT_OK

    if args.action == "ls":
        rows = [
            {
                "fingerprint": entry.get("fingerprint", "")[:16],
                "protocol": entry.get("protocol", "?"),
                "workload": entry.get("workload", "?"),
                "created_at": entry.get("created_at", "?"),
            }
            for entry in store.ls(limit=args.limit)
        ]
        if not rows:
            print(f"store at {store.directory} is empty")
            return EXIT_OK
        print(format_table(rows, title=f"result store — {store.directory}"))
        return EXIT_OK

    raise SystemExit(f"unknown store action {args.action!r}")


def cmd_metrics(args: argparse.Namespace) -> int:
    """Print a ``repro.metrics/v1`` document as snapshot tables."""
    import json
    from pathlib import Path

    from repro import telemetry
    from repro.bench.reporting import format_metrics

    path = Path(args.path)
    if not path.exists():
        raise SystemExit(
            f"no metrics document at {path} — produce one with "
            f"--metrics-out on sweep/faults"
        )
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SystemExit(f"{path} is not valid JSON: {exc}")
    problems = telemetry.validate_metrics_document(document)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return EXIT_INTEGRITY
    if args.prometheus:
        print(telemetry.render_prometheus(document["metrics"]), end="")
        return EXIT_OK
    print(format_metrics(document, source=str(path)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AMNT reproduction command-line interface"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser(
        "sweep", help="run one benchmark under several protocols"
    )
    sweep.add_argument("benchmark", help="PARSEC or SPEC profile name")
    sweep.add_argument("--accesses", type=int, default=60_000)
    sweep.add_argument("--seed", type=int, default=2024)
    sweep.add_argument("--subtree-level", type=int, default=3)
    sweep.add_argument("--scatter-chunks", type=int, default=0)
    sweep.add_argument(
        "--protocols",
        nargs="+",
        default=list(FIGURE_PROTOCOLS),
        choices=protocol_names(),
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for the sweep grid (1 = in-process serial)",
    )
    _add_store_args(sweep)
    _add_cache_limit_arg(sweep)
    _add_resilience_args(sweep)
    _add_telemetry_args(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table or figure"
    )
    experiment.add_argument(
        "name",
        choices=[
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "table2", "table3", "table4",
        ],
    )
    experiment.add_argument("--accesses", type=int, default=40_000)
    experiment.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for the experiment's sweep grid",
    )
    experiment.set_defaults(handler=cmd_experiment)

    area = commands.add_parser("area-table", help="print Table 3")
    area.set_defaults(handler=cmd_area_table)

    recovery = commands.add_parser("recovery-table", help="print Table 4")
    recovery.set_defaults(handler=cmd_recovery_table)

    protocols = commands.add_parser("protocols", help="list protocols")
    protocols.set_defaults(handler=cmd_protocols)

    profiles = commands.add_parser(
        "profiles", help="list workload profiles and their parameters"
    )
    profiles.set_defaults(handler=cmd_profiles)

    drill = commands.add_parser(
        "crash-drill",
        help="functional crash/recovery drill for one protocol",
    )
    drill.add_argument(
        "--protocol", default="amnt", choices=protocol_names()
    )
    drill.add_argument("--records", type=int, default=150)
    drill.set_defaults(handler=cmd_crash_drill)

    faults = commands.add_parser(
        "faults",
        help="fault-injection campaign: swept crash points + oracle",
    )
    faults.add_argument(
        "--protocols",
        nargs="+",
        default=["leaf", "strict", "amnt", "amnt++"],
        help="protocol names (space- or comma-separated)",
    )
    faults.add_argument(
        "--workloads",
        nargs="+",
        default=["hotshift"],
        help="fault workload profiles (see repro.workloads.faultprofiles)",
    )
    faults.add_argument("--accesses", type=int, default=5_000)
    faults.add_argument(
        "--crash-every",
        type=int,
        default=0,
        help="crash at every Nth access (0 = none)",
    )
    faults.add_argument(
        "--random-crashes",
        type=int,
        default=0,
        help="seeded random crash points per (protocol, workload)",
    )
    faults.add_argument(
        "--phase-samples",
        type=int,
        default=3,
        help="crash ordinals sampled per observed phase window",
    )
    faults.add_argument(
        "--tamper-crashes",
        type=int,
        default=2,
        help="crash+tamper cells per (protocol, workload)",
    )
    faults.add_argument(
        "--tamper-target", choices=["data", "counter"], default="data"
    )
    faults.add_argument(
        "--persist-model",
        choices=["writethrough", "wpq"],
        default="writethrough",
        help="NVM persistence model: writethrough (stores durable "
        "immediately) or wpq (stores staged in a write-pending queue; "
        "crashed cells explore every reachable drain subset)",
    )
    faults.add_argument(
        "--max-crash-states",
        type=int,
        default=4096,
        help="crash-state budget per cell under --persist-model wpq "
        "(beyond it, subsets are seeded-sampled, never silently dropped)",
    )
    faults.add_argument(
        "--torn-lines",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="also audit one half-applied (torn) variant per pending line",
    )
    faults.add_argument(
        "--list-triggers",
        action="store_true",
        help="print the crash-trigger catalog and exit",
    )
    faults.add_argument("--seed", type=int, default=2024)
    faults.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes for the campaign grid (1 = in-process serial)",
    )
    faults.add_argument(
        "--output",
        default="FAULTS_campaign.json",
        help="JSON report path ('' to skip writing)",
    )
    _add_resilience_args(faults)
    _add_telemetry_args(faults)
    faults.set_defaults(handler=cmd_faults)

    store = commands.add_parser(
        "store",
        help="inspect/maintain the content-addressed result store",
    )
    store.add_argument(
        "action",
        choices=["stats", "verify", "gc", "ls"],
        help="stats: totals; verify: re-hash every object; "
        "gc: expire by age/count; ls: catalog entries",
    )
    store.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="store directory (default: $REPRO_STORE_DIR)",
    )
    store.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="gc: remove objects older than this many days",
    )
    store.add_argument(
        "--max-objects",
        type=int,
        default=None,
        help="gc: keep at most this many (newest) objects",
    )
    store.add_argument(
        "--limit",
        type=int,
        default=None,
        help="ls: show at most this many entries (newest first)",
    )
    store.set_defaults(handler=cmd_store)

    metrics = commands.add_parser(
        "metrics",
        help="print a repro.metrics/v1 document as snapshot tables",
    )
    metrics.add_argument(
        "path",
        nargs="?",
        default="METRICS_run.json",
        help="metrics document to print (default: METRICS_run.json)",
    )
    metrics.add_argument(
        "--prometheus",
        action="store_true",
        help="emit Prometheus text exposition format instead of tables",
    )
    metrics.set_defaults(handler=cmd_metrics)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # stdout piped into a pager/head that exited early; not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
    except ResumeManifestMismatch as exc:
        print(f"resume refused: {exc}", file=sys.stderr)
        return EXIT_RESUME_MISMATCH
    except KeyboardInterrupt:
        print(
            "interrupted — journal checkpoint flushed; "
            "continue with --resume <run-dir>",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
