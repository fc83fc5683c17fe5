"""The benchmark's workloads, each run in a fresh process by ``run.py``.

Usage (internal; ``run.py`` builds these command lines)::

    python bench/workloads.py --workload NAME --seed N --seconds S \
        --result FILE [--trace] [--smoke] [--spill-dir DIR] [--prep]

The process imports ``repro`` only inside the workload function, so
``setup_s`` starts at the import.  Every timed sample is normalized by the
host-speed reference of ``bench/reference.py``; the raw times are kept as
details.  The process writes one JSON result to ``--result``.
``serve-steady`` additionally speaks a line protocol with its parent, which
probes ``/health`` while the rounds run: the child prints ``ready <port>``
and waits for ``go``, prints ``rounds-done`` and waits for ``stop``, then
closes the HTTP plane.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from reference import HostClock
from stats import tail_percentile
from tracing import Tracer, layer_metrics

WORKLOADS = ("batch", "spill-read", "serve-steady")

#: set-ups per run; ``setup_s`` is the import plus their median
SETUP_REPEATS = {"batch": 5, "spill-read": 5, "serve-steady": 3}

#: the ``standard_config`` scale ``batch`` simulates: 400 sessions after
#: 800 warmup sessions, short enough to time many times in a run
BATCH_SCALE = "tiny"

#: sessions per synthetic spill (each has four chunks)
SPILL_SESSIONS = {False: 30_000, True: 10_000}

#: the live service's settings: the ``repro serve`` defaults
SERVE_SESSIONS_PER_ROUND = 150
SERVE_WARMUP_SESSIONS = 2000
SERVE_WINDOW_MS = 10_000.0

#: The canned mid-run cache brownout of ``repro serve`` (onset on the
#: round-2 arrival burst, closed well inside the run).  It is pinned here
#: rather than read from the examples directory so that retuning the
#: example cannot change the benchmark's input.
BROWNOUT = {
    "name": "live-brownout",
    "description": "bench: mid-run cache brownout",
    "events": [
        {
            "id": "live-brownout",
            "class": "cache-brownout",
            "start_ms": 700000,
            "end_ms": 1400000,
            "magnitude": 1.0,
        }
    ],
}

#: lowest live recall of the brownout accepted as correct.  Seeds 7 and 11
#: flag every scorable brownout window; across other seeds the window-level
#: recall seen ranges from 0.88 to 1.0.
MIN_BROWNOUT_RECALL = 0.8


def work_size(workload: str, seconds: int, smoke: bool) -> Dict[str, int]:
    """Timed samples of each kind in one run.

    The amount of work depends only on ``--seconds``, never on how fast
    the program is, so two commits measure the same work.  It is sized so
    that the measured phase lasts about ``seconds`` on a shared 2-core host
    in a slow phase (reference unit near 25 ms), and about half that when
    the host is quiet.
    """
    if smoke:
        return {
            "batch": {"simulations": 2, "passes_per_simulation": 2},
            "spill-read": {"passes": 3},
            "serve-steady": {"rounds": 10},
        }[workload]
    return {
        "batch": {"simulations": max(2, seconds // 3), "passes_per_simulation": 4},
        "spill-read": {"passes": max(3, seconds * 2 // 3)},
        "serve-steady": {"rounds": max(10, seconds * 7 // 3)},
    }[workload]


class Run:
    """One workload execution: its options, checks, clock and tracer."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.checks: List[Dict[str, Any]] = []
        self.tracer = None
        self.clock = HostClock()

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    def timed_import(self, *modules: str) -> Tuple[float, float]:
        """Import *modules*; returns ``(raw, normalized)`` seconds."""
        _, raw, norm = self.clock.time(
            lambda: [importlib.import_module(name) for name in modules]
        )
        return raw, norm

    def begin_trace(self) -> None:
        """Install the layer wrappers (traced runs only), after the imports."""
        if self.args.trace:
            self.tracer = Tracer()
            self.tracer.install()

    def samples(self, n: int, fn: Callable[[], Any]) -> Tuple[List[Any], List[float], List[float]]:
        """Run *fn* *n* times; returns results, raw and normalized seconds."""
        results, raw, norm = [], [], []
        for _ in range(n):
            result, raw_s, norm_s = self.clock.time(fn)
            results.append(result)
            raw.append(raw_s)
            norm.append(norm_s)
        return results, raw, norm


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _plain(value: Any) -> Any:
    """JSON fallback for analysis results (dataclasses, counters, enums)."""
    if hasattr(value, "value") and not callable(value.value):
        return value.value
    if isinstance(value, dict):
        return dict(value)
    if hasattr(value, "__dict__"):
        return vars(value)
    return repr(value)


def _fractions_ok(fractions: Dict[str, float]) -> bool:
    values = list(fractions.values())
    return bool(values) and all(0.0 <= v <= 1.0 for v in values) and abs(sum(values) - 1.0) < 1e-9


def _check_passes(run: Run, blocks: List[List[Dict[str, Any]]]) -> None:
    """Analysis passes over one input must agree exactly, and be sane."""
    digests = [len({_digest(result) for result in block}) for block in blocks]
    run.check(
        f"{sum(map(len, blocks))} analysis passes over {len(blocks)} input(s) "
        "produce one output digest per input",
        all(n == 1 for n in digests),
        digests,
    )
    wrong = [b[-1]["localization"] for b in blocks if not _fractions_ok(b[-1]["localization"])]
    run.check("analysis: localization fractions in [0, 1] summing to 1", not wrong, wrong)


def _setup_s(import_s: float, setups: List[float]) -> float:
    return import_s + statistics.median(setups)


def batch_seeds(seed: int, n: int) -> List[int]:
    """Seeds of one run's simulations, all derived from ``--seed``.

    Each simulation has its own seed, so a run's medians average over ``n``
    inputs instead of resting on the table sizes of one.
    """
    return [seed * 1000 + k for k in range(n)]


def batch(run: Run) -> Dict[str, Any]:
    """Standard simulations, each followed by the headline analyses in memory."""
    args = run.args
    import_raw, import_s = run.timed_import(
        "repro.analysis.experiments.common", "repro.core.faultscore",
        "repro.core.localization", "repro.core.proxy_filter", "repro.core.qoe",
        "repro.simulation.driver",
    )
    from repro.analysis.experiments.common import standard_config
    from repro.core import faultscore, localization, proxy_filter, qoe
    from repro.simulation.driver import Simulator

    run.begin_trace()
    size = work_size("batch", args.seconds, args.smoke)

    def one_pass(dataset) -> Dict[str, Any]:
        filtered, report = proxy_filter.filter_proxies(dataset)
        return {
            "kept_sessions": report.n_kept_sessions,
            "qoe": qoe.summarize(filtered),
            "localization": localization.diagnose_dataset(filtered),
            "faultscore": faultscore.score_fault_localization(filtered),
        }

    simulators, setups_raw, setups = run.samples(
        SETUP_REPEATS["batch"], lambda: Simulator(standard_config(BATCH_SCALE, args.seed))
    )
    config = simulators[0].config
    sessions_per_sim = config.n_sessions + config.warmup_sessions
    del simulators
    sims_raw: List[float] = []
    sims: List[float] = []
    passes_raw: List[float] = []
    passes: List[float] = []
    blocks: List[List[Dict[str, Any]]] = []
    counts = dict.fromkeys(("sessions", "chunks", "tcp_snapshots", "kept_sessions"), 0)
    wrong_tables = []
    # each simulation's tables are analysed before the next simulation, so
    # both kinds of sample see the same phases of the host
    for seed in batch_seeds(args.seed, size["simulations"]):
        simulator = Simulator(standard_config(BATCH_SCALE, seed))
        dataset, raw_s, norm_s = run.clock.time(lambda: simulator.run().dataset)
        sims_raw.append(raw_s)
        sims.append(norm_s)
        sizes = (
            len(dataset.player_sessions), len(dataset.cdn_sessions), config.n_sessions,
            len(dataset.player_chunks), len(dataset.cdn_chunks), len(dataset.ground_truth),
        )
        if not (sizes[0] == sizes[1] == sizes[2] and sizes[3] == sizes[4] == sizes[5] > 0):
            wrong_tables.append((seed, sizes))
        block, raw, norm = run.samples(size["passes_per_simulation"], lambda: one_pass(dataset))
        blocks.append(block)
        passes_raw += raw
        passes += norm
        counts["sessions"] += len(dataset.player_sessions)
        counts["chunks"] += len(dataset.player_chunks)
        counts["tcp_snapshots"] += len(dataset.tcp_snapshots)
        counts["kept_sessions"] += block[0]["kept_sessions"]
    run.check(
        "every simulation: sessions as configured; player, CDN and "
        "ground-truth chunk counts agree",
        not wrong_tables,
        wrong_tables,
    )
    _check_passes(run, blocks)
    return {
        "metrics": {
            "setup_s": _setup_s(import_s, setups),
            "sessions_per_s": sessions_per_sim / statistics.median(sims),
            "op_p50_ms": statistics.median(passes) * 1e3,
        },
        "details": {
            "import_s": import_s,
            "import_raw_s": import_raw,
            "setup_samples_s": setups,
            "setup_raw_s": setups_raw,
            "simulate_s": statistics.median(sims),
            "simulate_samples_s": sims,
            "simulate_raw_s": sims_raw,
            "chunks_per_s": counts["chunks"] / sum(sims),
            "analyze_s": statistics.median(passes),
            "analyze_passes_s": passes,
            "analyze_raw_s": passes_raw,
        },
        "counts": counts,
        "measured_s": sum(sims) + sum(passes),
        "attempted": len(sims) + len(passes),
        "failed": 0,
    }


def spill_prep(run: Run) -> Dict[str, Any]:
    """Write the synthetic spill that ``spill-read`` analyses."""
    from repro.telemetry.synth import synthesize_spill

    start = perf_counter()
    synthesize_spill(
        run.args.spill_dir,
        SPILL_SESSIONS[run.args.smoke],
        seed=run.args.seed,
        threshold_rows=32_768,
    )
    return {"details": {"synthesize_raw_s": perf_counter() - start}}


def spill_read(run: Run) -> Dict[str, Any]:
    """The headline analyses over a spill on disk, reopened every pass."""
    args = run.args
    import_raw, import_s = run.timed_import(
        "repro.core.faultscore", "repro.core.localization", "repro.core.qoe",
        "repro.telemetry.spill",
    )
    from repro.core import faultscore, localization, qoe
    from repro.telemetry.spill import SpilledDataset

    run.begin_trace()
    opened, setups_raw, setups = run.samples(
        SETUP_REPEATS["spill-read"], lambda: SpilledDataset(args.spill_dir)
    )
    dataset = opened[-1]
    n_sessions = SPILL_SESSIONS[args.smoke]
    n_chunks = dataset.n_chunks
    run.check(
        "spill holds the synthesized sessions and chunks",
        dataset.n_sessions == n_sessions and n_chunks == 4 * n_sessions,
        (dataset.n_sessions, n_chunks),
    )

    def one_pass() -> Dict[str, Any]:
        spilled = SpilledDataset(args.spill_dir)
        return {
            "qoe": qoe.summarize(spilled),
            "localization": localization.diagnose_dataset(spilled),
            "faultscore": faultscore.score_fault_localization(spilled),
        }

    n_passes = work_size("spill-read", args.seconds, args.smoke)["passes"]
    results, passes_raw, passes = run.samples(n_passes, one_pass)
    _check_passes(run, [results])
    return {
        "metrics": {
            "setup_s": _setup_s(import_s, setups),
            "sessions_per_s": n_sessions / statistics.median(passes),
            "op_p50_ms": statistics.median(passes) * 1e3,
        },
        "details": {
            "import_s": import_s,
            "import_raw_s": import_raw,
            "setup_samples_s": setups,
            "setup_raw_s": setups_raw,
            "analyze_s": statistics.median(passes),
            "analyze_passes_s": passes,
            "analyze_raw_s": passes_raw,
            "chunks_per_s": n_chunks / statistics.median(passes),
        },
        "counts": {"sessions": dataset.n_sessions, "chunks": n_chunks},
        "measured_s": sum(passes),
        "attempted": n_passes,
        "failed": 0,
    }


def _await(line: str) -> None:
    """Block until the parent sends *line*; a closed pipe aborts the run."""
    got = sys.stdin.readline().strip()
    if got != line:
        raise SystemExit(f"serve-steady: expected {line!r} from the parent, got {got!r}")


def serve_steady(run: Run) -> Dict[str, Any]:
    """The live service stepping rounds while the parent probes ``/health``."""
    args = run.args
    import_raw, import_s = run.timed_import(
        "repro.faults.spec", "repro.serve", "repro.simulation.config",
    )
    from repro.faults.spec import FaultSpec
    from repro.serve import LiveService, start_plane
    from repro.simulation.config import SimulationConfig

    run.begin_trace()
    faults = FaultSpec.from_dict(BROWNOUT)

    def build():
        config = SimulationConfig(
            seed=args.seed,
            n_sessions=SERVE_SESSIONS_PER_ROUND,
            warmup_sessions=SERVE_WARMUP_SESSIONS,
            faults=faults,
        )
        service = LiveService(
            config,
            window_ms=SERVE_WINDOW_MS,
            sessions_per_round=SERVE_SESSIONS_PER_ROUND,
        )
        plane = start_plane(service, port=0)
        return service, plane, service.step()  # warmup plus round 0

    setups_raw: List[float] = []
    setups: List[float] = []
    for attempt in range(SETUP_REPEATS["serve-steady"]):
        (service, plane, first), raw_s, norm_s = run.clock.time(build)
        setups_raw.append(raw_s)
        setups.append(norm_s)
        if attempt < SETUP_REPEATS["serve-steady"] - 1:
            plane.close()

    def one_round():
        summary = service.step()
        service.incident_documents()  # what `repro serve` reads each round
        return summary

    n_rounds = work_size("serve-steady", args.seconds, args.smoke)["rounds"]
    try:
        print(f"ready {plane.address[1]}", flush=True)
        _await("go")
        run.clock.forget()  # the wait for the parent is not part of a sample
        summaries, rounds_raw, rounds = run.samples(n_rounds, one_round)
        print("rounds-done", flush=True)
        _await("stop")
    finally:
        plane.close()

    sessions = [first["sessions"]] + [s["sessions"] for s in summaries]
    chunks = [first["chunks"]] + [s["chunks"] for s in summaries]
    health = service.health_document()
    score = health["faultscore"]
    run.check(
        f"every round simulates {SERVE_SESSIONS_PER_ROUND} sessions",
        set(sessions) == {SERVE_SESSIONS_PER_ROUND},
        sorted(set(sessions)),
    )
    run.check(
        "service totals equal the sum of its rounds",
        health["sessions"] == sum(sessions) and health["chunks"] == sum(chunks),
        (health["sessions"], sum(sessions), health["chunks"], sum(chunks)),
    )
    run.check(
        f"brownout flagged with recall >= {MIN_BROWNOUT_RECALL}",
        score["windows_total"] > 0 and score["recall"] >= MIN_BROWNOUT_RECALL,
        (score["windows_flagged"], score["windows_total"]),
    )
    run.check(
        "brownout detected within one window of onset",
        score["detected_within_one_window"],
        [event["detection_delay_windows"] for event in score["events"]],
    )
    run.check(
        "live: localization fractions in [0, 1] summing to 1",
        _fractions_ok(health["localization"]),
        health["localization"],
    )
    busy = sum(rounds)
    round_p90 = tail_percentile(rounds, 90)
    return {
        "metrics": {
            "setup_s": _setup_s(import_s, setups),
            "sessions_per_s": sum(sessions[1:]) / busy,
            "op_p50_ms": statistics.median(rounds) * 1e3,
        },
        "details": {
            "import_s": import_s,
            "import_raw_s": import_raw,
            "setup_samples_s": setups,
            "setup_raw_s": setups_raw,
            "round_p90_ms": None if round_p90 is None else round_p90 * 1e3,
            "round_raw_p50_ms": statistics.median(rounds_raw) * 1e3,
            "chunks_per_s": sum(chunks[1:]) / busy,
            "brownout_recall": score["recall"],
            "detection_delay_windows": [
                event["detection_delay_windows"] for event in score["events"]
            ],
        },
        "counts": {
            "rounds": len(rounds) + 1,
            "sessions": health["sessions"],
            "chunks": health["chunks"],
            "windows_sealed": health["windows_sealed"],
            "incidents": health["incidents"],
        },
        "measured_s": busy,
        "attempted": len(rounds),
        "failed": 0,
    }


RUNNERS = {
    "batch": batch,
    "spill-read": spill_read,
    "serve-steady": serve_steady,
}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spill-dir", type=Path)
    parser.add_argument("--prep", action="store_true", help="write the spill only")
    args = parser.parse_args(argv)

    run = Run(args)
    outcome = spill_prep(run) if args.prep else RUNNERS[args.workload](run)
    import numpy

    if run.clock.unit_samples:
        outcome["details"]["reference_unit_ms"] = statistics.median(run.clock.unit_samples) * 1e3
    outcome.update(
        workload=args.workload,
        seed=args.seed,
        smoke=args.smoke,
        instrumented=args.trace,
        checks=run.checks,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    if run.tracer is not None:
        run.tracer.uninstall()
        accounting = run.tracer.accounting()
        outcome["layers"] = layer_metrics(run.tracer)
        outcome["trace"] = dict(accounting, absent=run.tracer.absent)
        wall = accounting["wall_s"]
        run.check(
            "trace: self times sum to the outermost spans' busy time (within 5% of wall)",
            abs(accounting["self_total_s"] - accounting["root_busy_s"]) <= 0.05 * wall,
            accounting,
        )
        run.check(
            "trace: wrapped spans fit inside the traced wall time",
            accounting["other_s"] >= -0.05 * wall,
            accounting,
        )
    args.result.write_text(json.dumps(outcome, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
