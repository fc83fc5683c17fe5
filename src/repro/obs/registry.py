"""Deterministic metrics registry: counters, gauges, fixed-bucket histograms.

The simulator is itself a measured system: the paper instruments a
production delivery path at fixed points (§4.1 player, §4.2 CDN, §4.3
kernel), and this module gives the *simulation* of that path the same
treatment.  Every hot stage increments a named metric; the full set of
legal names is the module-level contract (:data:`METRIC_SPECS`,
:data:`SPAN_SPECS`) that `docs/OBSERVABILITY.md` documents and
`tests/test_docs_contract.py` keeps in sync.

Determinism is a hard requirement, not a nicety: a serial run and a
sharded run of the same seed must serialize to byte-identical metrics
(see docs/OBSERVABILITY.md, "Determinism rules").  Three design rules
follow:

* **Counters are integers.**  Integer addition is associative, so shard
  sub-totals sum to the serial total regardless of merge order.  No
  float accumulators anywhere in the registry.
* **Histograms have fixed bucket edges** declared in the spec and store
  only integer bucket counts.  No per-histogram float sum/min/max —
  float summation order differs between the serial event loop and a
  per-shard-then-merge fold, which would break byte identity in the
  last bits.
* **Gauges merge by max.**  The only gauge on the hot path is the
  simulation clock, whose fleet-wide value *is* the max over shards
  (the same argument as the parallel runner's clock barrier).

Wall-clock timing lives in :mod:`repro.obs.spans`, deliberately outside
the deterministic snapshot.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .spans import SPAN_SPECS, SpanTracer  # noqa: F401  (re-exported contract)

__all__ = [
    "MetricSpec",
    "METRIC_SPECS",
    "LATENCY_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "register_metric",
]


#: Shared latency bucket edges (ms).  Chosen to straddle the paper's
#: landmark values: ~1 ms RAM reads, the 10 ms ATS retry timer, ~2 ms hit
#: vs ~80 ms miss medians, and multi-second client-stack outliers.
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0, 30000.0,
)


@dataclass(frozen=True)
class MetricSpec:
    """One entry of the metrics contract.

    ``paper_ref`` names the paper instrumentation point the metric
    mirrors ("§4.1 player", "§4.2 CDN", "§4.3 tcp_info", or "—" for
    simulator-internal execution metrics).  ``cardinality`` documents
    how many series the name can produce (all current metrics are
    fleet-wide scalars: cardinality 1 by design — per-server labels
    would explode the contract and add nothing the ShardReport and the
    ``cdn_chunks`` rows don't already expose).

    ``scope`` separates the two determinism regimes (docs/TELEMETRY.md):

    * ``"workload"`` (default) — a pure function of the seeded workload,
      identical for any worker count or memory mode; serialized into the
      byte-stable metrics document by :meth:`MetricsRegistry.snapshot`;
    * ``"execution"`` — describes *how* the run was computed (spill runs
      flushed, bytes written...), legitimately different between an
      in-memory and a spilled run of the same workload.  Excluded from
      the metrics document; surfaced via
      :meth:`MetricsRegistry.execution_snapshot` in the run manifest's
      execution block, which is not byte-stable by design.
    """

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    unit: str
    description: str
    paper_ref: str
    cardinality: int = 1
    buckets: Optional[Tuple[float, ...]] = None  # histograms only
    scope: str = "workload"  # "workload" | "execution"


def _specs(entries: Iterable[MetricSpec]) -> Dict[str, MetricSpec]:
    table: Dict[str, MetricSpec] = {}
    for spec in entries:
        if spec.name in table:
            raise ValueError(f"duplicate metric spec {spec.name!r}")
        if spec.kind == "histogram" and not spec.buckets:
            raise ValueError(f"histogram {spec.name!r} must declare buckets")
        table[spec.name] = spec
    return table


#: The metrics contract.  Adding a metric here REQUIRES a matching row in
#: docs/OBSERVABILITY.md (tests/test_docs_contract.py enforces both ways).
METRIC_SPECS: Dict[str, MetricSpec] = _specs(
    [
        # -- engine (period runner) -----------------------------------------
        MetricSpec(
            "engine.events_total", "counter", "events",
            "Events dispatched by the period runner (all periods, warmup "
            "included).", "—",
        ),
        MetricSpec(
            "engine.clock_ms", "gauge", "ms",
            "Final simulation clock of the last completed period.",
            "—",
        ),
        # -- CDN serving path (§4.1) ----------------------------------------
        MetricSpec(
            "cdn.requests_total", "counter", "requests",
            "Chunk requests served by the CDN fleet.", "§4.2 CDN",
        ),
        MetricSpec(
            "cdn.bytes_served_total", "counter", "bytes",
            "Chunk bytes served by the CDN fleet.", "§4.2 CDN",
        ),
        MetricSpec(
            "cdn.cache_hits_ram_total", "counter", "requests",
            "Requests served from the RAM cache level.", "§4.1 (Fig. 5)",
        ),
        MetricSpec(
            "cdn.cache_hits_disk_total", "counter", "requests",
            "Requests served from the disk cache level (pay the "
            "open-read-retry timer).", "§4.1 (Fig. 5)",
        ),
        MetricSpec(
            "cdn.cache_misses_total", "counter", "requests",
            "Requests that missed both cache levels and went to the "
            "backend.", "§4.1 (Fig. 6)",
        ),
        MetricSpec(
            "cdn.retry_timer_hits_total", "counter", "requests",
            "Requests whose first open attempt failed and paid the ~10 ms "
            "ATS open-read-retry timer.", "§4.1 ([4])",
        ),
        MetricSpec(
            "cdn.backend_fetches_total", "counter", "fetches",
            "Synchronous backend fetches issued on cache miss.", "§4.2 CDN",
        ),
        MetricSpec(
            "cdn.prefetch_fetches_total", "counter", "fetches",
            "Asynchronous cache-warming fetches (first-chunk warming and "
            "prefetch-after-miss extensions).", "§4.1 take-aways",
        ),
        MetricSpec(
            "cdn.queue_wait_ms", "histogram", "ms",
            "Accept-queue wait before a worker reads the request headers "
            "(D_wait).", "§4.2 CDN", buckets=LATENCY_BUCKETS_MS,
        ),
        MetricSpec(
            "cdn.serve_latency_ms", "histogram", "ms",
            "Server-side latency D_CDN = D_wait + D_open + D_read.",
            "§4.2 CDN", buckets=LATENCY_BUCKETS_MS,
        ),
        MetricSpec(
            "cdn.backend_latency_ms", "histogram", "ms",
            "Backend first-byte latency D_BE, observed only on misses.",
            "§4.2 CDN", buckets=LATENCY_BUCKETS_MS,
        ),
        # -- client chunk lifecycle (§4.1 player / §4.3 stack) --------------
        MetricSpec(
            "client.sessions_total", "counter", "sessions",
            "Session actors started (measured and warmup streams).",
            "§4.1 player",
        ),
        MetricSpec(
            "client.chunks_total", "counter", "chunks",
            "Chunks processed end to end by session actors.", "§4.1 player",
        ),
        MetricSpec(
            "client.dfb_ms", "histogram", "ms",
            "Player-observed first-byte delay D_FB per chunk.",
            "§4.1 player (Table 2)", buckets=LATENCY_BUCKETS_MS,
        ),
        MetricSpec(
            "client.dlb_ms", "histogram", "ms",
            "Player-observed last-byte delay D_LB per chunk.",
            "§4.1 player (Table 2)", buckets=LATENCY_BUCKETS_MS,
        ),
        MetricSpec(
            "client.startup_delay_ms", "histogram", "ms",
            "First-chunk total download time (the paper's time-to-play "
            "proxy).", "§4.1 player (Fig. 4)", buckets=LATENCY_BUCKETS_MS,
        ),
        MetricSpec(
            "client.rebuffer_events_total", "counter", "events",
            "Rebuffering events charged to chunks (bufcount).",
            "§4.1 player (Table 2)",
        ),
        MetricSpec(
            "client.rebuffer_ms", "histogram", "ms",
            "Duration of individual rebuffering stalls (bufdur).",
            "§4.1 player (Table 2)", buckets=LATENCY_BUCKETS_MS,
        ),
        MetricSpec(
            "client.ds_delay_ms", "histogram", "ms",
            "Download-stack first-byte delay D_DS added by the OS/browser/"
            "runtime layers.", "§4.3 download stack",
            buckets=LATENCY_BUCKETS_MS,
        ),
        MetricSpec(
            "client.ds_transients_total", "counter", "chunks",
            "Chunks hit by a transient download-stack buffering burst "
            "(Eq. 4's detection target).", "§4.3 download stack",
        ),
        # -- fault injection (docs/FAULTS.md) -------------------------------
        MetricSpec(
            "faults.server_requests_total", "counter", "requests",
            "CDN requests served while a server-layer fault epoch was "
            "active on the serving server.", "—",
        ),
        MetricSpec(
            "faults.network_chunks_total", "counter", "chunks",
            "Chunks whose request was issued while a network-layer fault "
            "epoch was active on the client's path.", "—",
        ),
        MetricSpec(
            "faults.render_chunks_total", "counter", "chunks",
            "Visible software-rendered chunks completed while a "
            "client-render fault epoch was active on the client's OS.", "—",
        ),
        MetricSpec(
            "faults.labeled_chunks_total", "counter", "chunks",
            "Chunks stamped with at least one ground-truth fault label "
            "(warmup streams included; their labels are discarded with "
            "the rest of the warmup telemetry).", "—",
        ),
        # -- sweep runner (docs/SCENARIOS.md) -------------------------------
        MetricSpec(
            "sweeps.cells_total", "counter", "cells",
            "Factorial sweep cells executed by the sweep runner "
            "(succeeded and failed).", "—",
        ),
        MetricSpec(
            "sweeps.cells_failed_total", "counter", "cells",
            "Sweep cells whose scenario resolution or simulation raised "
            "(recorded in the aggregate report's failed map).", "—",
        ),
        # -- telemetry spill (docs/TELEMETRY.md) ----------------------------
        # Execution scope: spill activity depends on the memory mode and
        # threshold, never on the workload, so these counters live in the
        # run manifest's execution block — not the byte-stable metrics
        # document (see MetricSpec.scope).
        MetricSpec(
            "telemetry.spill.runs_total", "counter", "runs",
            "Sorted columnar runs flushed to disk by telemetry spill "
            "writers (all record kinds).", "—", scope="execution",
        ),
        MetricSpec(
            "telemetry.spill.rows_total", "counter", "records",
            "Telemetry records written into spill runs.", "—",
            scope="execution",
        ),
        MetricSpec(
            "telemetry.spill.bytes_total", "counter", "bytes",
            "Bytes of columnar run files written by telemetry spill "
            "writers.", "—", scope="execution",
        ),
        # -- columnar analysis read path (docs/PERFORMANCE.md) --------------
        # Execution scope: block/session/chunk progress of the vectorized
        # analysis pass depends on the read-path selection and block
        # budget, never on the workload, so these counters live in the run
        # manifest's execution block like the spill counters above.
        MetricSpec(
            "analysis.blocks_total", "counter", "blocks",
            "Session-aligned blocks processed by the columnar analysis "
            "pass.", "—", scope="execution",
        ),
        MetricSpec(
            "analysis.sessions_total", "counter", "sessions",
            "Joined sessions reduced by the columnar analysis pass.", "—",
            scope="execution",
        ),
        MetricSpec(
            "analysis.chunks_total", "counter", "chunks",
            "Joined chunks attributed/aggregated by the columnar analysis "
            "pass.", "—", scope="execution",
        ),
        # -- live service mode (docs/OBSERVABILITY.md "Service mode") -------
        # Execution scope: round/window/incident progress describes how the
        # long-lived service chose to chop the workload into rounds, not the
        # workload itself, so these counters stay out of the byte-stable
        # metrics document (which must match a batch run of the same
        # sessions).
        MetricSpec(
            "serve.rounds_total", "counter", "rounds",
            "Arrival rounds completed by the live service loop.", "—",
            scope="execution",
        ),
        MetricSpec(
            "serve.windows_sealed_total", "counter", "windows",
            "Rolling metric windows sealed and published by the live "
            "service.", "—", scope="execution",
        ),
        MetricSpec(
            "serve.incidents_total", "counter", "incidents",
            "Incidents opened by the online localization cascade over "
            "sealed windows.", "—", scope="execution",
        ),
    ]
)


def register_metric(spec: MetricSpec) -> None:
    """Extend the contract at runtime (extensions/tests).

    Out-of-tree metrics registered this way are exempt from the docs-sync
    lint, which checks the in-tree contract as imported.
    """
    if spec.name in METRIC_SPECS:
        raise ValueError(f"metric {spec.name!r} already registered")
    METRIC_SPECS[spec.name] = spec


class Counter:
    """Monotonic integer counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += int(n)


class Gauge:
    """Last-set float value; shards merge by max (see module docstring)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-edge histogram with integer bucket counts.

    ``counts[i]`` counts observations ``<= edges[i]``; the final slot is
    the overflow bucket (``> edges[-1]``).  Edges are part of the metric
    spec, never derived from data, so bucket boundaries are identical for
    any shard count.
    """

    __slots__ = ("edges", "counts", "count")

    def __init__(self, edges: Tuple[float, ...]) -> None:
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left gives Prometheus "le" buckets: value == edge stays
        # in that edge's bucket
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1


class MetricsRegistry:
    """One run's metrics plus its span tracer.

    The registry is the single object threaded through the simulator's
    hot paths; components bind handles once (``registry.counter(name)``)
    and touch plain attributes afterwards.  Every name must appear in
    :data:`METRIC_SPECS` — an unknown name is a programming error, caught
    immediately rather than silently creating an undocumented series.

    :meth:`snapshot` emits **all** contract metrics, zero-valued if never
    touched, so the serialized key set is independent of which code paths
    a particular config exercises.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.tracer = SpanTracer()

    # -- handle lookup -------------------------------------------------------

    def _spec(self, name: str, kind: str) -> MetricSpec:
        spec = METRIC_SPECS.get(name)
        if spec is None:
            raise KeyError(
                f"metric {name!r} is not in the contract; add a MetricSpec "
                f"(and a docs/OBSERVABILITY.md row) first"
            )
        if spec.kind != kind:
            raise TypeError(f"metric {name!r} is a {spec.kind}, not a {kind}")
        return spec

    # a registered name returns its handle; only a new name is checked
    # against the contract and gets a handle built

    def counter(self, name: str) -> Counter:
        handle = self._counters.get(name)
        if handle is None:
            self._spec(name, "counter")
            handle = self._counters[name] = Counter()
        return handle

    def gauge(self, name: str) -> Gauge:
        handle = self._gauges.get(name)
        if handle is None:
            self._spec(name, "gauge")
            handle = self._gauges[name] = Gauge()
        return handle

    def histogram(self, name: str) -> Histogram:
        handle = self._histograms.get(name)
        if handle is None:
            spec = self._spec(name, "histogram")
            assert spec.buckets is not None
            handle = self._histograms[name] = Histogram(spec.buckets)
        return handle

    def span(self, name: str):
        """Open a wall-clock span (delegates to the tracer)."""
        return self.tracer.span(name)

    # -- serialization -------------------------------------------------------

    def snapshot(self, scope: str = "workload") -> Dict[str, Any]:
        """Deterministic plain-dict view of every contract metric of *scope*.

        The default (``"workload"``) is the byte-stable metrics-document
        payload; execution-scoped metrics (spill accounting) are fetched
        separately via :meth:`execution_snapshot` and never enter it.
        """
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for name in sorted(METRIC_SPECS):
            spec = METRIC_SPECS[name]
            if spec.scope != scope:
                continue
            if spec.kind == "counter":
                handle = self._counters.get(name)
                counters[name] = handle.value if handle else 0
            elif spec.kind == "gauge":
                gauge = self._gauges.get(name)
                gauges[name] = gauge.value if gauge else 0.0
            else:
                assert spec.buckets is not None
                hist = self._histograms.get(name)
                histograms[name] = {
                    "edges": list(spec.buckets),
                    "counts": list(hist.counts) if hist else [0] * (len(spec.buckets) + 1),
                    "count": hist.count if hist else 0,
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def execution_snapshot(self) -> Dict[str, Any]:
        """The execution-scoped metrics (run-manifest material, not byte-stable)."""
        return self.snapshot(scope="execution")

    def spans_snapshot(self) -> List[Dict[str, Any]]:
        return self.tracer.snapshot()

    # -- merging (sharded runs) ----------------------------------------------

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold one shard's :meth:`snapshot` into this registry.

        Counters and histogram buckets add; gauges take the max.  All
        three operations are order-independent over integers/max, so
        folding shards in any order yields the serial run's values.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, value))
        for name, payload in snapshot.get("histograms", {}).items():
            hist = self.histogram(name)
            if list(hist.edges) != list(payload["edges"]):
                raise ValueError(f"histogram {name!r}: bucket edges differ across shards")
            for i, n in enumerate(payload["counts"]):
                hist.counts[i] += n
            hist.count += payload["count"]

    @classmethod
    def from_snapshots(cls, snapshots: Iterable[Dict[str, Any]]) -> "MetricsRegistry":
        """A registry holding the deterministic merge of *snapshots*."""
        registry = cls()
        for snapshot in snapshots:
            registry.merge_snapshot(snapshot)
        return registry
