"""Command-line interface: simulate, analyze, and reproduce from a shell.

Usage (also via ``python -m repro``):

    repro simulate --sessions 2000 --out trace/         # run + persist
    repro simulate --sessions 2000 --out trace/ \
        --metrics-out metrics.json                       # + observability doc
    repro analyze trace/                                 # QoE + localization
    repro findings trace/                                # Table-1 checks
    repro experiment fig05 [--scale small] [--plot]      # reproduce a figure
    repro report --scale medium --out report.md          # the whole suite
    repro list                                           # experiment catalog
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from . import __version__
from .analysis import plotting
from .api import run
from .core import diagnose_dataset, evaluate_key_findings, filter_proxies, qoe, whatif
from .simulation.config import SimulationConfig
from .telemetry.io import load_dataset
from .telemetry.spill import DEFAULT_SPILL_THRESHOLD_ROWS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "End-to-end video streaming characterization "
            "(IMC 2016 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="simulate a collection period")
    sim.add_argument("--sessions", type=int, default=2000)
    sim.add_argument("--warmup", type=int, default=None,
                     help="warmup sessions (default: 2x sessions)")
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("--videos", type=int, default=150)
    sim.add_argument("--abr", choices=["rate", "buffer", "hybrid"], default="rate")
    sim.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; >1 shards the run across CPUs with "
             "identical telemetry (default: 1, the classic serial loop)",
    )
    sim.add_argument(
        "--shard-timeout", type=float, default=None, metavar="S",
        help="wall-clock budget per shard attempt in seconds; a shard "
             "exceeding it is killed and retried once (default: none)",
    )
    sim.add_argument(
        "--spill-dir", default=None, metavar="DIR",
        help="bounded-memory mode: spill telemetry to sorted columnar runs "
             "under DIR instead of keeping them in RAM; the persisted "
             "dataset is byte-identical either way (see docs/TELEMETRY.md)",
    )
    sim.add_argument(
        "--spill-threshold", type=int, default=DEFAULT_SPILL_THRESHOLD_ROWS,
        metavar="ROWS",
        help="rows buffered per record kind before a sorted run is flushed "
             "(the RSS knob; default: %(default)s, ~80 MB of write buffer)",
    )
    sim.add_argument("--out", required=True, help="output dataset directory")
    sim.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the deterministic observability document (run manifest "
             "+ metrics registry) as JSON; byte-identical for any --workers "
             "value (see docs/OBSERVABILITY.md)",
    )
    sim.add_argument(
        "--profile", default=None, metavar="FILE",
        help="profile the run with cProfile and dump pstats data to FILE "
             "(with --workers >1 only the parent process is profiled)",
    )
    sim.add_argument(
        "--faults", default=None, metavar="SPEC.json",
        help="inject a seeded fault schedule from a FaultSpec JSON file; "
             "ground-truth fault labels are stamped into the telemetry "
             "(see docs/FAULTS.md and examples/fault_*.json)",
    )
    sim.add_argument(
        "--trace-out", default=None, metavar="FILE.jsonl",
        help="export the per-chunk causal trace as JSONL (plus a sibling "
             ".chrome.json for chrome://tracing); byte-identical for any "
             "--workers value (see docs/OBSERVABILITY.md, 'Tracing')",
    )
    sim.add_argument(
        "--trace-sample", type=float, default=1.0, metavar="P",
        help="fraction of sessions to trace, head-sampled by session-id "
             "hash so the sampled set is shard-independent (default: 1.0; "
             "only meaningful with --trace-out)",
    )

    trace = commands.add_parser(
        "trace",
        help="drill into a causal trace: reconstruct one chunk's timeline "
             "and name its dominant latency stage",
    )
    trace.add_argument("trace_file", help="JSONL trace from 'simulate --trace-out'")
    trace.add_argument(
        "--session", default=None, help="session id (default: slowest chunk)"
    )
    trace.add_argument(
        "--chunk", type=int, default=None,
        help="chunk index within --session (default: slowest chunk)",
    )
    trace.add_argument(
        "--validate", action="store_true",
        help="check every event against the tracing contract and exit",
    )

    metrics = commands.add_parser(
        "metrics", help="observability document utilities"
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    mdiff = metrics_sub.add_parser(
        "diff",
        help="compare two --metrics-out documents; print the first "
             "divergent key (the determinism-break debugging tool)",
    )
    mdiff.add_argument("doc_a", help="first metrics JSON document")
    mdiff.add_argument("doc_b", help="second metrics JSON document")
    mdiff.add_argument(
        "--include-execution", action="store_true",
        help="also compare the execution block (spans, shard reports, "
             "spill/analysis counters); excluded by default because it "
             "legitimately varies across --workers/--spill-dir choices",
    )

    faultscore = commands.add_parser(
        "faultscore",
        help="score bottleneck localization against injected fault ground truth",
    )
    faultscore.add_argument(
        "dataset", help="dataset directory from 'simulate --faults ...'"
    )

    scenario = commands.add_parser(
        "scenario", help="run a canned multi-period incident scenario"
    )
    scenario.add_argument(
        "name", help="scenario name (flash-crowd, cache-flush, backend-brownout)"
    )
    scenario.add_argument("--seed", type=int, default=29)
    scenario.add_argument(
        "--workers", type=int, default=1,
        help="shard the scenario across N worker processes",
    )
    scenario.add_argument(
        "--out", default=None,
        help="directory to persist per-period datasets (baseline/, incident/)",
    )
    scenario.add_argument(
        "--json", default=None, metavar="FILE", dest="json_out",
        help="write the outcome document (per-period QoE, deltas, "
             "faultscore) as JSON — the same serialization sweep cells "
             "use ('-' for stdout; see docs/SCENARIOS.md)",
    )

    sweep = commands.add_parser(
        "sweep",
        help="factorial scenario sweeps: run a grid, list its cells, "
             "re-aggregate a report (docs/SCENARIOS.md)",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    sweep_run = sweep_sub.add_parser(
        "run", help="execute every cell of a sweep spec through repro.api.run"
    )
    sweep_run.add_argument("spec", help="SweepSpec JSON file (the scenario DSL)")
    sweep_run.add_argument(
        "--out", default=None,
        help="output directory (sweep.json, report.json/.txt, cells/*)",
    )
    sweep_run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per cell; cells run one after another and "
             "each shards internally, preserving per-cell byte identity",
    )
    sweep_run.add_argument(
        "--shard-timeout", type=float, default=None, metavar="S",
        help="wall-clock budget per shard attempt within each cell",
    )
    sweep_run.add_argument(
        "--cell", action="append", default=None, metavar="NAME",
        help="run only the named cell(s); repeatable — a single cell "
             "reproduces its record stream exactly (determinism contract)",
    )
    sweep_run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run up to N whole cells concurrently on a process pool; "
             "outcomes aggregate in canonical grid order, so the report "
             "artifacts are byte-identical to a serial run "
             "(see docs/SCENARIOS.md)",
    )
    sweep_list = sweep_sub.add_parser(
        "list", help="print the factorial grid of a sweep spec in run order"
    )
    sweep_list.add_argument("spec", help="SweepSpec JSON file")
    sweep_report = sweep_sub.add_parser(
        "report",
        help="re-aggregate a sweep output directory into report.json/.txt",
    )
    sweep_report.add_argument("out_dir", help="directory from 'sweep run --out'")

    serve = commands.add_parser(
        "serve",
        help="live service mode: continuous arrival rounds with rolling "
             "windows and online localization behind an HTTP/JSONL plane "
             "(docs/OBSERVABILITY.md, 'Service mode')",
    )
    serve.add_argument(
        "--scenario", default=None, metavar="NAME|SPEC.json",
        help="canned scenario name (flash-crowd, cache-flush, "
             "backend-brownout) or a ScenarioSpec JSON file; the first "
             "resolved period's config (and faults) drives the service",
    )
    serve.add_argument(
        "--faults", default=None, metavar="SPEC.json",
        help="inject a FaultSpec schedule (overrides the scenario's)",
    )
    serve.add_argument(
        "--sessions", type=int, default=150,
        help="session arrivals per round (default: 150)",
    )
    serve.add_argument(
        "--warmup", type=int, default=2000,
        help="cache-warming sessions before the first round (default: "
             "2000 — enough that organic miss-driven server verdicts "
             "settle below the incident threshold)",
    )
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--window-ms", type=float, default=10_000.0, metavar="MS",
        help="rolling-window width in simulated ms (default: 10000)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="HTTP port for the observability plane (0 = ephemeral)",
    )
    serve.add_argument(
        "--rounds", type=int, default=None, metavar="N",
        help="exit after N rounds (default: run until interrupted)",
    )
    serve.add_argument(
        "--trace-sample", type=float, default=0.05, metavar="P",
        help="fraction of sessions feeding the /events trace ring "
             "(default: 0.05; 0 disables)",
    )
    serve.add_argument(
        "--retain-windows", type=int, default=256, metavar="N",
        help="sealed windows kept for /windows (bounded memory; "
             "default: 256)",
    )
    serve.add_argument(
        "--threshold", type=float, default=0.6,
        help="per-window anomalous chunk fraction opening an incident "
             "(default: 0.6)",
    )
    serve.add_argument(
        "--min-chunks", type=int, default=64,
        help="minimum chunks before a window is scorable (default: 64)",
    )
    serve.add_argument(
        "--out", default=None, metavar="DIR",
        help="on exit, write windows.jsonl, incidents.jsonl and "
             "report.json under DIR",
    )

    watch = commands.add_parser(
        "watch", help="tail a running 'repro serve' observability plane"
    )
    watch.add_argument(
        "url", nargs="?", default="http://127.0.0.1:8765",
        help="service base URL (default: http://127.0.0.1:8765)",
    )
    watch.add_argument(
        "--interval", type=float, default=2.0, help="seconds between polls"
    )
    watch.add_argument(
        "--max-polls", type=int, default=None, metavar="N",
        help="stop after N polls (default: poll until interrupted)",
    )
    watch.add_argument(
        "--once", action="store_true", help="poll once and exit"
    )

    analyze = commands.add_parser("analyze", help="QoE + bottleneck localization")
    analyze.add_argument("dataset", help="dataset directory from 'simulate'")
    analyze.add_argument("--no-proxy-filter", action="store_true")

    findings = commands.add_parser("findings", help="evaluate Table-1 findings")
    findings.add_argument("dataset", help="dataset directory from 'simulate'")

    experiment = commands.add_parser("experiment", help="reproduce a paper artifact")
    experiment.add_argument("experiment_id", help="e.g. fig05, table04")
    experiment.add_argument(
        "--scale", choices=["tiny", "small", "medium", "large"], default="small"
    )
    experiment.add_argument(
        "--plot", action="store_true", help="render the series as terminal charts"
    )
    experiment.add_argument(
        "--workers", type=int, default=1,
        help="shard the underlying simulation across N worker processes",
    )

    commands.add_parser("list", help="list reproducible paper artifacts")

    report = commands.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report.add_argument(
        "--scale", choices=["tiny", "small", "medium", "large"], default="small"
    )
    report.add_argument("--out", default=None, help="markdown file (default: stdout)")
    report.add_argument(
        "--workers", type=int, default=1,
        help="shard the underlying simulation across N worker processes",
    )
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    warmup = args.warmup if args.warmup is not None else 2 * args.sessions
    config = SimulationConfig(
        n_sessions=args.sessions,
        warmup_sessions=warmup,
        seed=args.seed,
        n_videos=args.videos,
        abr_name=args.abr,
        workers=args.workers,
        shard_timeout_s=args.shard_timeout,
        # tracing is an execution knob: it never changes the workload
        trace_sample=args.trace_sample if args.trace_out else 0.0,
        # memory mode is an execution knob too (docs/TELEMETRY.md)
        spill_dir=args.spill_dir,
        spill_threshold_rows=args.spill_threshold,
    )
    mode = "serially" if args.workers <= 1 else f"on {args.workers} shard workers"
    injected = f", faults from {args.faults}" if args.faults else ""
    print(
        f"simulating {args.sessions} sessions (+{warmup} warmup), "
        f"seed {args.seed}, {mode}{injected}..."
    )
    started = time.perf_counter()
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        result = profiler.runcall(run, config, faults=args.faults)
        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler).sort_stats("cumulative")
        print(f"wrote cProfile data to {args.profile}; top stages:")
        stats.print_stats(10)
    else:
        result = run(config, faults=args.faults)
    wall_time_s = time.perf_counter() - started
    path = result.save(args.out, wall_time_s=wall_time_s)
    print(
        f"wrote {result.dataset.n_sessions} sessions / "
        f"{result.dataset.n_chunks} chunks to {path} "
        f"(+ manifest.json)"
    )
    for report in result.shard_reports:
        print(
            f"  shard {report.shard_index}/{report.n_shards}: "
            f"{report.sessions} sessions on {report.n_servers} servers in "
            f"{report.wall_time_s:.2f}s, retries={report.retries}, "
            f"peak_rss={report.peak_rss_bytes / 1e6:.0f} MB"
        )
    if args.metrics_out:
        metrics_path = result.write_metrics_document(args.metrics_out)
        print(f"wrote metrics document to {metrics_path}")
    if args.trace_out:
        jsonl_path, chrome_path = result.write_trace(args.trace_out)
        print(
            f"wrote {result.trace.n_events} trace events "
            f"(sample {result.config.trace_sample:g}) to {jsonl_path} "
            f"+ {chrome_path}"
        )
    for name, total_s in result.metrics.tracer.totals():
        print(f"  span {name}: {total_s:.3f}s")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.trace import (
        TRACE_EVENT_SPECS,
        chunk_events,
        chunk_fault_labels,
        dominant_stage,
        read_trace_jsonl,
        slowest_chunk,
        stage_durations,
        validate_trace,
    )

    try:
        rows = read_trace_jsonl(args.trace_file)
    except OSError as error:
        print(error, file=sys.stderr)
        return 1
    if args.validate:
        try:
            summary = validate_trace(rows)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 1
        print(
            f"trace OK: {summary['events']} events, "
            f"{summary['sessions']} sessions, {summary['chunks']} chunks"
        )
        return 0
    if not rows:
        print("trace holds no events", file=sys.stderr)
        return 1
    if args.session is not None:
        session_rows = [row for row in rows if row["session"] == args.session]
        if not session_rows:
            print(f"no events for session {args.session!r}", file=sys.stderr)
            return 1
        if args.chunk is not None:
            key = (args.session, args.chunk)
        else:
            key = slowest_chunk(session_rows)
    else:
        key = slowest_chunk(rows)
    events = chunk_events(rows, *key)
    if not events:
        print(f"no events for chunk {key}", file=sys.stderr)
        return 1
    labels = chunk_fault_labels(events)
    suffix = f"  [fault epochs: {labels}]" if labels else ""
    print(f"chunk timeline: session={key[0]} chunk={key[1]}{suffix}")
    t0 = events[0]["t_ms"]
    # canonical order is per-session seq (emission order); wall-clock
    # order reads better for a timeline, with seq as the tie-break
    for row in sorted(events, key=lambda row: (row["t_ms"], row["seq"])):
        spec = TRACE_EVENT_SPECS[row["name"]]
        duration = f"{row['dur_ms']:10.3f} ms" if spec.phase == "span" else " " * 13
        details = " ".join(
            f"{name}={value}" for name, value in sorted(row["args"].items())
        )
        fault = f"  !{row['faults']}" if row["faults"] else ""
        print(
            f"  +{row['t_ms'] - t0:10.3f} ms  {row['name']:<20}{duration}"
            f"  {details}{fault}".rstrip()
        )
    totals = stage_durations(events)
    total_fb = sum(totals.values())
    print("\nfirst-byte stage breakdown:")
    for stage, total in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])):
        share = 100.0 * total / total_fb if total_fb > 0 else 0.0
        print(f"  {stage:<12} {total:10.3f} ms  ({share:5.1f}%)")
    stage, total = dominant_stage(events)
    print(f"\ndominant stage: {stage} ({total:.3f} ms of first-byte latency)")
    return 0


def _flatten_document(payload, prefix: str = ""):
    """Depth-first (key path, scalar) pairs with sorted dict keys."""
    if isinstance(payload, dict):
        for key in sorted(payload):
            yield from _flatten_document(
                payload[key], f"{prefix}.{key}" if prefix else str(key)
            )
    elif isinstance(payload, (list, tuple)):
        for index, value in enumerate(payload):
            yield from _flatten_document(value, f"{prefix}[{index}]")
    else:
        yield prefix or "<root>", payload


def _cmd_metrics(args: argparse.Namespace) -> int:
    import itertools
    import json

    from .obs.manifest import validate_manifest

    # only `metrics diff` exists today; the subparser enforces that
    documents = []
    dropped_execution = False
    for path in (args.doc_a, args.doc_b):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if isinstance(payload, dict) and "manifest" in payload:
            try:
                validate_manifest(payload["manifest"])
            except ValueError as error:
                print(f"{path}: {error}", file=sys.stderr)
                return 2
        if (
            isinstance(payload, dict)
            and not args.include_execution
            and payload.pop("execution", None) is not None
        ):
            # the execution block (spans, shard reports, spill/analysis
            # counters) legitimately varies across --workers/--spill-dir;
            # only the workload-scoped payload is under the byte-identity
            # contract (docs/OBSERVABILITY.md)
            dropped_execution = True
        documents.append(payload)
    if dropped_execution:
        print(
            "note: execution block excluded from the comparison "
            "(pass --include-execution to compare it)"
        )
    sentinel = object()
    n_compared = 0
    for (key_a, value_a), (key_b, value_b) in itertools.zip_longest(
        _flatten_document(documents[0]),
        _flatten_document(documents[1]),
        fillvalue=(None, sentinel),
    ):
        if key_a != key_b:
            only = (key_a, args.doc_a) if value_b is sentinel else (key_b, args.doc_b)
            if value_a is not sentinel and value_b is not sentinel:
                print(f"documents diverge at key: {key_a} vs {key_b}")
            else:
                print(f"key only in {only[1]}: {only[0]}")
            return 1
        if value_a != value_b:
            print(f"first divergent key: {key_a}")
            print(f"  {args.doc_a}: {value_a!r}")
            print(f"  {args.doc_b}: {value_b!r}")
            return 1
        n_compared += 1
    print(f"documents identical ({n_compared} keys compared)")
    return 0


def _cmd_faultscore(args: argparse.Namespace) -> int:
    from .core.faultscore import score_fault_localization

    dataset = load_dataset(args.dataset)
    report = score_fault_localization(dataset)
    print(report.format_report())
    if report.n_labeled == 0:
        print(
            "no fault-labeled chunks in this dataset — was it produced by "
            "'repro simulate --faults spec.json'?",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .core import compare_datasets
    from .sweep.spec import CANNED_SCENARIOS

    if args.name not in CANNED_SCENARIOS:
        print(
            f"unknown scenario {args.name!r}; choose from "
            f"{', '.join(sorted(CANNED_SCENARIOS))}",
            file=sys.stderr,
        )
        return 2
    print(f"running scenario {args.name!r}, seed {args.seed}, "
          f"workers {args.workers}...")
    periods = CANNED_SCENARIOS[args.name].resolve(seed=args.seed, workers=args.workers)
    result = run(periods=periods)
    baseline, incident = result.period("baseline"), result.period("incident")
    comparison = compare_datasets(baseline, incident)
    print(comparison)
    if args.out:
        path = result.save(args.out)
        print(f"wrote baseline/ and incident/ datasets (+ manifest.json) under {path}")
    if args.json_out:
        from .obs.manifest import dump_json
        from .sweep.report import outcome_document

        document = outcome_document(
            name=args.name,
            labels=["baseline", "incident"],
            datasets=[baseline, incident],
        )
        payload = dump_json(document)
        if args.json_out == "-":
            sys.stdout.write(payload)
        else:
            path = Path(args.json_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(payload, encoding="utf-8")
            print(f"wrote outcome document to {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import (
        SweepSpec,
        aggregate_report,
        format_report,
        load_cell_documents,
        run_sweep,
        write_report,
    )

    if args.sweep_command == "list":
        spec = SweepSpec.load(args.spec)
        print(f"sweep {spec.name!r}: {spec.n_cells} cells over "
              f"{len(spec.axes)} axes "
              f"({' x '.join(axis.axis for axis in spec.axes)})")
        for cell in spec.cells():
            print(f"  {cell.name}")
        return 0

    if args.sweep_command == "report":
        documents, failures = load_cell_documents(args.out_dir)
        if not documents and not failures:
            print(f"no cells found under {args.out_dir}", file=sys.stderr)
            return 2
        sweep_name = Path(args.out_dir).name
        sweep_json = Path(args.out_dir) / "sweep.json"
        if sweep_json.is_file():
            import json as _json

            sweep_name = _json.loads(
                sweep_json.read_text(encoding="utf-8")
            ).get("name", sweep_name)
        report = aggregate_report(sweep_name, documents, failures)
        write_report(report, args.out_dir)
        print(format_report(report))
        return 0

    # sweep run
    spec = SweepSpec.load(args.spec)
    n_selected = len(args.cell) if args.cell else spec.n_cells
    print(f"running sweep {spec.name!r}: {n_selected} of {spec.n_cells} "
          f"cells, workers {args.workers}...")
    started = time.perf_counter()
    try:
        result = run_sweep(
            spec,
            workers=args.workers,
            shard_timeout_s=args.shard_timeout,
            out_dir=args.out,
            cell_names=args.cell,
            progress=print,
            jobs=args.jobs,
        )
    except KeyError as error:
        print(str(error), file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    print()
    print(format_report(result.report))
    print(f"\nsweep finished in {elapsed:.1f}s "
          f"({result.n_failed}/{len(result.cells)} cells failed)")
    if result.out_dir is not None:
        print(f"wrote sweep.json, report.json, report.txt and "
              f"cells/ under {result.out_dir}")
    return 1 if result.n_failed else 0


def _serve_config(args: argparse.Namespace) -> SimulationConfig:
    """Resolve the service config: scenario (canned or file) + CLI knobs."""
    from .sweep.spec import CANNED_SCENARIOS, ScenarioSpec

    if args.scenario:
        if args.scenario in CANNED_SCENARIOS:
            spec = CANNED_SCENARIOS[args.scenario]
        else:
            spec = ScenarioSpec.load(args.scenario)
        # the service is single-period by nature: round after round on one
        # config; the first resolved period carries the scenario's base
        # overrides and composed fault schedule
        config = spec.resolve(seed=args.seed)[0].config
    else:
        config = SimulationConfig(seed=args.seed)
    config = config.with_overrides(
        n_sessions=args.sessions,
        warmup_sessions=args.warmup,
        trace_sample=args.trace_sample,
    )
    if args.faults:
        from .faults.spec import FaultSpec

        config = config.with_overrides(faults=FaultSpec.load(args.faults))
    return config


def _cmd_serve(args: argparse.Namespace) -> int:
    import itertools
    import json

    from .obs.manifest import dump_json
    from .serve import SERVE_ENDPOINTS, LiveService, start_plane
    from .serve.watch import format_incident_line

    config = _serve_config(args)
    service = LiveService(
        config,
        window_ms=args.window_ms,
        sessions_per_round=args.sessions,
        retain_windows=args.retain_windows,
        threshold=args.threshold,
        min_chunks=args.min_chunks,
    )
    plane = start_plane(service, host=args.host, port=args.port)
    fault_note = (
        f", faults: {config.faults.name}" if config.faults is not None else ""
    )
    print(
        f"serving on {plane.url} — {args.sessions} sessions/round, "
        f"window {args.window_ms:g} ms, seed {config.seed}{fault_note}"
    )
    print(f"endpoints: {', '.join(sorted(SERVE_ENDPOINTS))}")
    print("tail with: repro watch " + plane.url)
    announced = 0
    try:
        for round_index in itertools.count():
            if args.rounds is not None and round_index >= args.rounds:
                break
            summary = service.step()
            print(
                f"round {summary['round']}: {summary['sessions']} sessions, "
                f"{summary['chunks']} chunks, "
                f"{summary['windows_sealed']} windows sealed, "
                f"clock {summary['clock_ms'] / 1000.0:.1f}s, "
                f"{summary['incidents_open']} incident(s) open"
            )
            incidents = service.incident_documents()
            for incident in incidents[announced:]:
                print("  " + format_incident_line(incident))
            announced = len(incidents)
    except KeyboardInterrupt:
        print("\ninterrupted — shutting down")
    finally:
        plane.close()
    health = service.health_document()
    score = health["faultscore"]
    print(
        f"served {health['rounds']} rounds, {health['sessions']} sessions, "
        f"{health['windows_sealed']} windows, {health['incidents']} "
        f"incident(s), {health['sessions_per_s']:.1f} sessions/s"
    )
    if score["events"]:
        print(
            f"live fault scoring: recall {score['recall']:.2f} over "
            f"{score['windows_total']} fault windows, detected within one "
            f"window: {score['detected_within_one_window']}"
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        windows_path = out / "windows.jsonl"
        windows_path.write_text(
            "".join(
                json.dumps(doc, sort_keys=True) + "\n"
                for doc in service.window_documents()
            ),
            encoding="utf-8",
        )
        incidents_path = out / "incidents.jsonl"
        incidents_path.write_text(
            "".join(
                json.dumps(doc, sort_keys=True) + "\n"
                for doc in service.incident_documents()
            ),
            encoding="utf-8",
        )
        report_path = out / "report.json"
        report_path.write_text(dump_json(health), encoding="utf-8")
        print(f"wrote windows.jsonl, incidents.jsonl, report.json under {out}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from .serve.watch import watch

    return watch(
        args.url,
        interval=args.interval,
        max_polls=args.max_polls,
        once=args.once,
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    from . import obs

    dataset = load_dataset(args.dataset)
    if not args.no_proxy_filter:
        dataset, report = filter_proxies(dataset)
        print(
            f"proxy filter kept {report.n_kept_sessions}/{report.n_input_sessions} "
            f"sessions {report.removal_reasons()}"
        )

    # each analysis pass publishes its own registry; sum the analysis.*
    # span totals across passes so the breakdown covers the whole command
    analysis_spans: dict = {}

    def collect_spans() -> None:
        for span in obs.last_run()["spans"]:
            if span["name"].startswith("analysis."):
                analysis_spans[span["name"]] = (
                    analysis_spans.get(span["name"], 0.0) + span["total_s"]
                )

    summary = qoe.summarize(dataset)
    collect_spans()
    print(
        plotting.format_table(
            ["metric", "value"],
            [(k, f"{v:.4g}") for k, v in summary.items()],
            title="\nQoE summary",
        )
    )
    fractions = diagnose_dataset(dataset)
    collect_spans()
    if fractions:
        ordered = sorted(fractions.items(), key=lambda kv: kv[1], reverse=True)
        print()
        print(
            plotting.ascii_bars(
                [k for k, _ in ordered],
                [100.0 * v for _, v in ordered],
                unit="%",
                title="Bottleneck localization (share of chunks)",
            )
        )
    headrooms = whatif.all_headrooms(dataset)
    if headrooms:
        print("\nCounterfactual headroom (upper bounds on direct effects):")
        for report in headrooms.values():
            print(f"  {report}")
    print("\nRead-path span breakdown (docs/PERFORMANCE.md):")
    for name, total_s in sorted(analysis_spans.items()):
        print(f"  span {name}: {total_s:.3f}s")
    return 0


def _cmd_findings(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    dataset, _ = filter_proxies(dataset)
    report = evaluate_key_findings(dataset)
    print(report)
    return 0 if report.all_passed else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    # imported lazily: pulls in the full experiment registry
    from .analysis.experiments import (
        DATASET_EXPERIMENTS,
        RESULT_EXPERIMENTS,
        common,
        run_experiment,
    )

    experiment_id = args.experiment_id
    if experiment_id in DATASET_EXPERIMENTS:
        result = run_experiment(
            experiment_id, common.filtered_dataset(args.scale, workers=args.workers)
        )
    elif experiment_id in RESULT_EXPERIMENTS:
        result = run_experiment(
            experiment_id, common.standard_result(args.scale, workers=args.workers)
        )
    else:
        result = run_experiment(experiment_id)
    print(result.format_report())
    if args.plot:
        for name, value in result.series.items():
            chart = plotting.render_series_auto(name, value)
            if chart:
                print()
                print(chart)
    return 0 if result.all_checks_passed else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.experiments import run_all

    results = run_all(scale=args.scale, workers=args.workers)
    lines = [
        "# Reproduction report",
        "",
        f"Scale: {args.scale}; experiments: {len(results)}.",
        "",
    ]
    n_passed = 0
    for experiment_id in sorted(results):
        result = results[experiment_id]
        status = "PASS" if result.all_checks_passed else "FAIL"
        n_passed += result.all_checks_passed
        lines.append(f"## {experiment_id} — {result.title} [{status}]")
        lines.append("")
        for key, value in result.summary.items():
            rendered = f"{value:.4g}" if isinstance(value, float) else str(value)
            lines.append(f"- {key} = {rendered}")
        failed = [name for name, ok in result.checks.items() if not ok]
        if failed:
            lines.append(f"- failed checks: {', '.join(failed)}")
        lines.append("")
    lines.insert(3, f"**{n_passed}/{len(results)} experiments pass all checks.**")
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out} ({n_passed}/{len(results)} passing)")
    else:
        print(text)
    return 0 if n_passed == len(results) else 1


def _cmd_list(args: argparse.Namespace) -> int:
    from .analysis.experiments import all_experiments, get_experiment

    for experiment_id in all_experiments():
        module = sys.modules[get_experiment(experiment_id).__module__]
        title = getattr(module, "TITLE", "")
        print(f"  {experiment_id:<9} {title}")
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "faultscore": _cmd_faultscore,
    "scenario": _cmd_scenario,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "watch": _cmd_watch,
    "analyze": _cmd_analyze,
    "findings": _cmd_findings,
    "experiment": _cmd_experiment,
    "list": _cmd_list,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # the reader went away (e.g. piped into `head`) — normal exit
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
