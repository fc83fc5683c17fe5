"""Helpers shared by the benchmark harness."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Any, Dict, Optional

import numpy as np

from repro import obs
from repro.analysis.experiments import run_experiment
from repro.analysis.experiments.base import ExperimentResult

#: The repo-root perf trajectory file (see docs/PERFORMANCE.md).
PERF_RECORD_PATH = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCH_perf.json")
)


def attach_observability(benchmark) -> None:
    """Record the last simulation's observability data in the bench JSON.

    Pulls the most recently completed run's metrics/span capture
    (:func:`repro.obs.last_run`) and stores a compact stage-level
    breakdown in ``benchmark.extra_info``, so BENCH_*.json trajectories
    carry per-stage counters and wall-clock spans alongside the timing
    numbers.  Zero-valued counters and histograms are dropped — the full
    key set is documented in docs/OBSERVABILITY.md, not re-serialized per
    bench.  A bench that only re-analyzes a cached dataset attributes its
    capture to the shared fixture simulation (the last one that ran in
    this process); benches that never simulated record nothing.
    """
    capture = obs.last_run()
    if capture is None:
        return
    metrics = capture["metrics"]
    benchmark.extra_info["obs_counters"] = {
        name: value for name, value in metrics["counters"].items() if value
    }
    benchmark.extra_info["obs_gauges"] = metrics["gauges"]
    benchmark.extra_info["obs_histograms"] = {
        name: payload
        for name, payload in metrics["histograms"].items()
        if payload["count"]
    }
    benchmark.extra_info["obs_spans"] = capture["spans"]


def span_totals() -> Dict[str, float]:
    """Per-phase wall-clock totals (seconds) from the last run's obs spans.

    Collapses the (name, parent) aggregate of :func:`repro.obs.last_run`
    down to per-phase totals — the breakdown BENCH_perf.json records for
    each timing entry.  Empty when no instrumented run has completed.
    """
    capture = obs.last_run()
    if capture is None:
        return {}
    totals: Dict[str, float] = {}
    for entry in capture["spans"]:
        totals[entry["name"]] = totals.get(entry["name"], 0.0) + entry["total_s"]
    return {name: round(total, 6) for name, total in sorted(totals.items())}


def _git(*args: str) -> Optional[str]:
    """Output of ``git *args`` in the repository, or None when git fails."""
    try:
        out = subprocess.run(
            ["git", "-C", os.path.dirname(PERF_RECORD_PATH), *args],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(instrumented: bool) -> Dict[str, Any]:
    """Where and how a record was measured: the fields of ``bench/run.py --out`` records.

    ``commit`` and ``dirty`` name the code (``dirty`` is true when tracked
    files differ from the commit; both are None outside a git checkout),
    ``host`` the machine, ``python`` and ``numpy`` the interpreter, and
    ``instrumented`` says whether the timing ran under a tracer such as
    ``tracemalloc``, which slows it.
    """
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit.strip() if commit else None,
        "dirty": None if status is None else bool(status.strip()),
        "host": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "cpu_model": _cpu_model(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "instrumented": instrumented,
    }


def write_perf_record(
    scenario: str,
    wall_s: float,
    *,
    n_sessions: int,
    n_chunks: int,
    label: str = "run",
    path: Optional[str] = None,
    extra: Optional[Dict[str, Any]] = None,
    instrumented: bool = False,
) -> Dict[str, Any]:
    """Append one timing record for *scenario* to ``BENCH_perf.json``.

    The file is the repo's perf-regression trajectory: a map from scenario
    name to the chronological list of recorded runs, each carrying the best
    wall time, derived throughput, and the per-phase breakdown from the obs
    spans (docs/OBSERVABILITY.md).  CI's perf-smoke job re-runs the pinned
    workload, appends its entry, and uploads the file as an artifact, so a
    hot-path regression shows up as a visible step in the time series.
    Every record carries its :func:`provenance`; pass
    ``instrumented=True`` when *wall_s* was timed under a tracer.
    """
    target = path or PERF_RECORD_PATH
    try:
        with open(target, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        payload = {}
    record: Dict[str, Any] = {
        "label": label,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_s": round(wall_s, 4),
        "n_sessions": n_sessions,
        "n_chunks": n_chunks,
        "sessions_per_s": round(n_sessions / wall_s, 1),
        "chunks_per_s": round(n_chunks / wall_s, 1),
        "spans": span_totals(),
        **provenance(instrumented),
    }
    if extra:
        record.update(extra)
    payload.setdefault(scenario, []).append(record)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return record


def run_and_report(benchmark, experiment_id: str, *args, **kwargs) -> ExperimentResult:
    """Benchmark one experiment run, assert its checks, print its report.

    ``rounds=1`` because an experiment is a batch analysis job, not a
    microbenchmark — we want its wall-clock cost and its output, not a
    timing distribution.
    """
    result = benchmark.pedantic(
        run_experiment,
        args=(experiment_id, *args),
        kwargs=kwargs,
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    attach_observability(benchmark)
    print()
    print(result.format_report())
    assert result.all_checks_passed, result.format_report()
    return result
