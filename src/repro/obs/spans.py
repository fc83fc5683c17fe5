"""Lightweight span tracing: aggregated enter/exit timers with parent links.

Spans answer the ROADMAP question the deterministic metrics cannot — *where
does the wall-clock go?* — per stage, not per call: each ``span(name)``
enter/exit pair adds its elapsed time to an aggregate keyed by
``(name, parent)``, where the parent is whatever span was open on the same
tracer when this one started.  There is no per-call event list, so tracing
a million chunk spans costs two ``perf_counter`` reads and one dict update
each, and memory stays O(distinct span names).

Wall-clock measurements are inherently nondeterministic, so spans are
serialized separately from the metrics snapshot (run manifest / ShardReport,
never ``--metrics-out``); see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["SpanSpec", "SPAN_SPECS", "SpanTracer", "register_span"]


@dataclass(frozen=True)
class SpanSpec:
    """Contract entry for one span name (see docs/OBSERVABILITY.md)."""

    name: str
    description: str


SPAN_SPECS: Dict[str, SpanSpec] = {
    spec.name: spec
    for spec in [
        SpanSpec(
            "driver.warmup",
            "One warmup period: cache-warming sessions with telemetry discarded.",
        ),
        SpanSpec(
            "driver.period",
            "One measured collection period (generation, stepping, telemetry).",
        ),
        SpanSpec(
            "engine.run",
            "One period drain: each server group's events in time order.",
        ),
        SpanSpec(
            "session.chunk",
            "One chunk's end-to-end lifecycle in a session actor (fetch, "
            "download, playout, telemetry).",
        ),
        SpanSpec(
            "cdn.serve",
            "One CDN serve call: queue wait, cache lookup, read, backend fetch.",
        ),
        SpanSpec(
            "parallel.worker",
            "One shard worker's whole execution (all periods, successful "
            "attempt).",
        ),
        SpanSpec(
            "parallel.merge",
            "Parent-side deterministic merge of shard datasets and registries.",
        ),
        SpanSpec(
            "analysis.read",
            "One vectorized columnar analysis pass over a dataset (planning, "
            "all blocks, result assembly).",
        ),
        SpanSpec(
            "analysis.block",
            "One session-aligned block of the columnar analysis pass (join, "
            "chunk math, and the caller's fold of the block).",
        ),
        SpanSpec(
            "serve.round",
            "One live-service round: simulate an arrival batch, fold "
            "windows, run the online localizer over sealed windows.",
        ),
    ]
}


def register_span(spec: SpanSpec) -> None:
    """Extend the span contract at runtime (extensions/tests)."""
    if spec.name in SPAN_SPECS:
        raise ValueError(f"span {spec.name!r} already registered")
    SPAN_SPECS[spec.name] = spec


class _SpanHandle:
    """Context manager recording one enter/exit into the tracer's aggregate."""

    __slots__ = ("_tracer", "_name", "_started")

    def __init__(self, tracer: "SpanTracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._started = time.perf_counter()
        self._tracer._stack.append(self._name)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        elapsed = time.perf_counter() - self._started
        stack = self._tracer._stack
        stack.pop()
        parent = stack[-1] if stack else None
        key = (self._name, parent)
        entry = self._tracer._aggregate.get(key)
        if entry is None:
            self._tracer._aggregate[key] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed


class SpanTracer:
    """Aggregating tracer; one per :class:`~repro.obs.registry.MetricsRegistry`."""

    def __init__(self) -> None:
        self._stack: List[str] = []
        self._aggregate: Dict[Tuple[str, Optional[str]], List[float]] = {}

    def span(self, name: str) -> _SpanHandle:
        if name not in SPAN_SPECS:
            raise KeyError(
                f"span {name!r} is not in the contract; add a SpanSpec "
                f"(and a docs/OBSERVABILITY.md row) first"
            )
        return _SpanHandle(self, name)

    def snapshot(self) -> List[Dict[str, Any]]:
        """Aggregated spans, sorted by (name, parent) for stable output."""
        return [
            {
                "name": name,
                "parent": parent,
                "count": int(entry[0]),
                "total_s": float(entry[1]),
            }
            for (name, parent), entry in sorted(
                self._aggregate.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
            )
        ]

    def totals(self) -> List[Tuple[str, float]]:
        """(span name, total seconds) pairs summed over parents, sorted."""
        by_name: Dict[str, float] = {}
        for (name, _parent), entry in self._aggregate.items():
            by_name[name] = by_name.get(name, 0.0) + entry[1]
        return sorted(by_name.items())
