"""repro.obs — the simulator's observability layer.

Zero-dependency metrics (counters, gauges, fixed-bucket histograms) and
aggregated span tracing, threaded through the simulator's hot paths, plus
the run-manifest / metrics-document emitters behind
``repro simulate --metrics-out``.

The set of legal metric and span names is a *written contract*:
``docs/OBSERVABILITY.md`` documents every name, and
``tests/test_docs_contract.py`` fails if code and docs drift apart.

The module also keeps a process-level "last completed run" capture so the
benchmark harness can attach stage-level breakdowns to its BENCH_*.json
records without threading a registry through every experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .registry import MetricsRegistry

__all__ = [
    "MetricsRegistry",
    "MetricSpec",
    "METRIC_SPECS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_MS",
    "register_metric",
    "SpanTracer",
    "SpanSpec",
    "SPAN_SPECS",
    "register_span",
    "config_hash",
    "metrics_document",
    "run_manifest",
    "dump_json",
    "write_metrics_document",
    "save_run_manifest",
    "EXECUTION_FIELDS",
    "MANIFEST_FILENAME",
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_VERSION",
    "validate_manifest",
    "load_run_manifest",
    "TRACE_SCHEMA",
    "TRACE_EVENT_SPECS",
    "TraceEventSpec",
    "TraceRecorder",
    "SessionTrace",
    "ChunkTrace",
    "session_sampled",
    "validate_trace",
    "read_trace_jsonl",
    "write_trace",
    "write_trace_jsonl",
    "write_chrome_trace",
    "chrome_trace_document",
    "publish_last_run",
    "last_run",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".manifest": (
            "EXECUTION_FIELDS",
            "MANIFEST_FILENAME",
            "MANIFEST_SCHEMA",
            "MANIFEST_SCHEMA_VERSION",
            "config_hash",
            "dump_json",
            "load_run_manifest",
            "metrics_document",
            "run_manifest",
            "save_run_manifest",
            "validate_manifest",
            "write_metrics_document",
        ),
        ".registry": (
            "LATENCY_BUCKETS_MS",
            "METRIC_SPECS",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricSpec",
            "MetricsRegistry",
            "register_metric",
        ),
        ".spans": ("SPAN_SPECS", "SpanSpec", "SpanTracer", "register_span"),
        ".trace": (
            "TRACE_EVENT_SPECS",
            "TRACE_SCHEMA",
            "ChunkTrace",
            "SessionTrace",
            "TraceEventSpec",
            "TraceRecorder",
            "chrome_trace_document",
            "read_trace_jsonl",
            "session_sampled",
            "validate_trace",
            "write_chrome_trace",
            "write_trace",
            "write_trace_jsonl",
        ),
    },
)

_LAST_RUN: Optional[Dict[str, Any]] = None


def publish_last_run(registry: MetricsRegistry) -> None:
    """Record *registry* as the most recently completed run in this process.

    Called by the simulation drivers when a run finishes; read by the
    benchmark harness (:func:`last_run`).  Snapshots are taken eagerly so
    later mutation of the registry cannot change what was published.
    """
    global _LAST_RUN
    _LAST_RUN = {
        "metrics": registry.snapshot(),
        "spans": registry.spans_snapshot(),
    }


def last_run() -> Optional[Dict[str, Any]]:
    """The last published run's ``{"metrics": ..., "spans": ...}``, if any."""
    return _LAST_RUN
