"""The ATS-like CDN server: request queue, cache stack, retry timer, backend.

§2 and §4.1 of the paper describe the serving path we model:

* requests wait in a FIFO queue until a worker reads the headers (D_wait —
  negligible for most chunks on these well-provisioned servers);
* the server attempts to open the object (D_open, sub-millisecond);
* the read (D_read) has three regimes — the bimodal distribution of Fig. 5:
  RAM-resident objects return in ~1 ms, while anything else pays ATS's
  **asynchronous open-read-retry timer** (~10 ms, [4] in the paper) before
  the disk read or backend request proceeds;
* misses additionally pay D_BE at the backend (~40x the hit latency at the
  median: 2 ms vs 80 ms in the paper).

The server also exposes the pre-fetching extensions evaluated as ablations
(§4.1-2 take-aways): warming the first chunks of every title, and
prefetching subsequent chunks of a session after its first miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ..obs.registry import MetricsRegistry

if TYPE_CHECKING:  # import-time only: keeps cdn importable without faults
    from ..faults.injector import FaultInjector
    from ..obs.trace import ChunkTrace
from ..workload.randomness import bounded_lognormal, spawn
from .backend import BackendService
from .cache import CacheStatus, TwoLevelCache

__all__ = ["ChunkKey", "ServeResult", "CdnServerConfig", "CdnServer"]

#: Cache key for one stored object: (video, chunk index, bitrate).
ChunkKey = Tuple[int, int, int]


@dataclass(frozen=True)
class ServeResult:
    """Latency decomposition of serving one chunk (all in ms).

    ``d_cdn = d_wait + d_open + d_read`` is the paper's server latency;
    ``d_be`` is nonzero only on a miss.
    """

    d_wait_ms: float
    d_open_ms: float
    d_read_ms: float
    d_be_ms: float
    status: CacheStatus
    retry_timer_hit: bool

    @property
    def d_cdn_ms(self) -> float:
        return self.d_wait_ms + self.d_open_ms + self.d_read_ms

    @property
    def total_ms(self) -> float:
        """Total server-side latency (D_CDN + D_BE)."""
        return self.d_cdn_ms + self.d_be_ms


@dataclass
class CdnServerConfig:
    """Tunable server parameters.

    Defaults are calibrated so that the fleet-wide distributions match the
    paper: hit-total median ≈2 ms, miss-total median ≈80 ms, D_wait < 1 ms
    for most chunks, and the D_read distribution bimodal around the 10 ms
    retry timer.
    """

    ram_capacity_bytes: int = 128 * 1024**2  # RAM cache (hot set)
    disk_capacity_bytes: int = 16 * 1024**3  # disk cache
    policy_name: str = "lru"
    #: ATS open-read-retry timer: paid whenever the first open attempt
    #: cannot be served from memory (disk read or backend fetch) [4].
    retry_timer_ms: float = 10.0
    ram_read_mean_ms: float = 1.1
    disk_seek_mean_ms: float = 6.0
    wait_mean_ms: float = 0.25
    open_mean_ms: float = 0.12
    #: worker pool size; queue wait grows only when concurrency approaches it
    worker_threads: int = 64
    #: mean service time used for the load estimate (ms)
    nominal_service_ms: float = 8.0


class CdnServer:
    """One cache server inside a PoP.  It counts what it serves only into
    the ``cdn.*`` metrics of its registry (a private one when built
    without one)."""

    def __init__(
        self,
        server_id: str,
        backend_rtt_ms: float,
        config: Optional[CdnServerConfig] = None,
        backend: Optional[BackendService] = None,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.server_id = server_id
        #: fault injector consulted per request (None = no fault schedule);
        #: queries are pure functions of (server id, arrival time), so the
        #: same schedule applies on every shard layout (docs/FAULTS.md)
        self.faults = faults
        self.backend_rtt_ms = backend_rtt_ms
        self.config = config or CdnServerConfig()
        self.backend = backend or BackendService()
        self.cache = TwoLevelCache(
            self.config.ram_capacity_bytes,
            self.config.disk_capacity_bytes,
            self.config.policy_name,
        )
        self.rng = spawn(seed, f"server|{server_id}")
        # Load bookkeeping: EWMA of the inter-arrival gap (ms); the rate is
        # its reciprocal.  (Averaging gaps, not 1/gap, keeps near-
        # simultaneous arrivals from exploding the estimate.)
        self._last_arrival_ms: Optional[float] = None
        self._gap_ewma_ms: Optional[float] = None
        # Observability handles, bound once so serve() touches attributes
        # only.  Metric names are part of the docs/OBSERVABILITY.md
        # contract; all series are fleet-wide (no per-server labels).
        if metrics is None:
            metrics = MetricsRegistry()
        self.metrics = metrics
        self._m_requests = metrics.counter("cdn.requests_total")
        self._m_bytes = metrics.counter("cdn.bytes_served_total")
        self._m_status = {
            CacheStatus.HIT_RAM: metrics.counter("cdn.cache_hits_ram_total"),
            CacheStatus.HIT_DISK: metrics.counter("cdn.cache_hits_disk_total"),
            CacheStatus.MISS: metrics.counter("cdn.cache_misses_total"),
        }
        self._m_retry = metrics.counter("cdn.retry_timer_hits_total")
        self._m_backend = metrics.counter("cdn.backend_fetches_total")
        self._m_prefetch = metrics.counter("cdn.prefetch_fetches_total")
        self._m_queue_wait = metrics.histogram("cdn.queue_wait_ms")
        self._m_serve_latency = metrics.histogram("cdn.serve_latency_ms")
        self._m_backend_latency = metrics.histogram("cdn.backend_latency_ms")
        self._m_fault_requests = metrics.counter("faults.server_requests_total")
        # one span handle per server: handles are sequentially reusable,
        # and serve() is never re-entered
        self._span_serve = metrics.span("cdn.serve")

    # -- load tracking -------------------------------------------------------

    def _update_load(self, now_ms: float) -> None:
        if self._last_arrival_ms is not None and now_ms >= self._last_arrival_ms:
            gap = max(now_ms - self._last_arrival_ms, 0.01)
            if self._gap_ewma_ms is None:
                self._gap_ewma_ms = gap
            else:
                self._gap_ewma_ms = 0.9 * self._gap_ewma_ms + 0.1 * gap
        self._last_arrival_ms = now_ms

    @property
    def load_estimate(self) -> float:
        """Approximate worker-pool utilization in [0, ~1+].

        Requests/ms times nominal service time, over the worker count —
        i.e. offered load relative to capacity.
        """
        if self._gap_ewma_ms is None or self._gap_ewma_ms <= 0:
            return 0.0
        return (
            self.config.nominal_service_ms
            / self._gap_ewma_ms
            / self.config.worker_threads
        )

    # -- serving ------------------------------------------------------------

    def serve(
        self,
        key: ChunkKey,
        size_bytes: int,
        now_ms: float,
        trace: Optional["ChunkTrace"] = None,
    ) -> ServeResult:
        """Serve one chunk request arriving at *now_ms*.

        ``trace`` is the chunk's causal-trace emitter when the session is
        sampled (docs/OBSERVABILITY.md, "Tracing"); None costs one branch.
        """
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        with self._span_serve:
            result = self._serve(key, size_bytes, now_ms, trace)
        self._m_requests.inc()
        self._m_bytes.inc(size_bytes)
        self._m_status[result.status].inc()
        self._m_queue_wait.observe(result.d_wait_ms)
        self._m_serve_latency.observe(result.d_cdn_ms)
        if result.retry_timer_hit:
            self._m_retry.inc()
        if result.status is CacheStatus.MISS:
            self._m_backend.inc()
            self._m_backend_latency.observe(result.d_be_ms)
        return result

    def _serve(
        self,
        key: ChunkKey,
        size_bytes: int,
        now_ms: float,
        trace: Optional["ChunkTrace"] = None,
    ) -> ServeResult:
        self._update_load(now_ms)
        cfg = self.config
        rng = self.rng
        fault = (
            self.faults.server_state(self.server_id, now_ms)
            if self.faults is not None
            else None
        )
        if fault is not None:
            self._m_fault_requests.inc()

        # Queue wait: negligible on a provisioned server; grows only under
        # overload (which the paper's fleet, and ours, rarely reaches).
        d_wait = bounded_lognormal(rng, cfg.wait_mean_ms, 0.9, 0.01, 50.0)
        if self.load_estimate > 0.8:
            d_wait += float(rng.exponential(3.0)) * (self.load_estimate - 0.8) * 10.0
        d_open = bounded_lognormal(rng, cfg.open_mean_ms, 0.7, 0.01, 5.0)
        if fault is not None:
            d_wait = d_wait * fault.latency_mult + fault.wait_add_ms
            d_open *= fault.latency_mult

        if fault is not None and fault.bypass_cache:
            # Cache brownout: the cache stack is out of the serving path —
            # neither lookup nor admit touches it, so post-epoch cache
            # state is exactly the pre-epoch state (and deterministic).
            status = CacheStatus.MISS
            retry_hit = True
            d_read = cfg.retry_timer_ms + bounded_lognormal(rng, 0.6, 0.5, 0.1, 10.0)
            d_be = self.backend.first_byte_latency_ms(self.backend_rtt_ms, rng)
        else:
            status = self.cache.lookup(key, size_bytes)
            d_be = 0.0
            retry_hit = False
            if status is CacheStatus.HIT_RAM:
                d_read = bounded_lognormal(rng, cfg.ram_read_mean_ms, 0.45, 0.2, 30.0)
            elif status is CacheStatus.HIT_DISK:
                # First open attempt fails (not in memory) -> async retry
                # timer, then the actual disk seek+read.
                retry_hit = True
                d_read = cfg.retry_timer_ms + bounded_lognormal(
                    rng, cfg.disk_seek_mean_ms, 0.55, 0.5, 80.0
                )
            else:
                retry_hit = True
                d_read = cfg.retry_timer_ms + bounded_lognormal(rng, 0.6, 0.5, 0.1, 10.0)
                d_be = self.backend.first_byte_latency_ms(self.backend_rtt_ms, rng)
                self.cache.admit(key, size_bytes, fetch_cost=d_be)
        if fault is not None:
            d_read *= fault.latency_mult
            d_be *= fault.backend_mult
        if trace is not None:
            # Same fault state the ground-truth stamping re-queries (pure
            # function of (server id, arrival time)), so per-event labels
            # reconcile exactly with ChunkGroundTruth.fault_labels.
            labels = ",".join(sorted(set(fault.labels))) if fault is not None else ""
            t = now_ms
            trace.emit("cdn.queue_wait", t, d_wait, faults=labels)
            t += d_wait
            trace.emit("cdn.open", t, d_open, faults=labels)
            t += d_open
            trace.emit(
                "cdn.cache_lookup", t, faults=labels,
                status=status.value, retry_timer=retry_hit,
            )
            retry_ms = 0.0
            if retry_hit:
                retry_ms = cfg.retry_timer_ms * (
                    fault.latency_mult if fault is not None else 1.0
                )
                trace.emit("cdn.retry_timer", t, retry_ms, faults=labels)
                t += retry_ms
            trace.emit("cdn.read", t, max(0.0, d_read - retry_ms), faults=labels)
            t += max(0.0, d_read - retry_ms)
            if d_be > 0.0:
                trace.emit("cdn.origin_fetch", t, d_be, faults=labels)
        return ServeResult(
            d_wait_ms=d_wait,
            d_open_ms=d_open,
            d_read_ms=d_read,
            d_be_ms=d_be,
            status=status,
            retry_timer_hit=retry_hit,
        )

    # -- prefetching extensions (§4.1 take-aways, used by ablations) --------

    def prefetch(self, key: ChunkKey, size_bytes: int) -> bool:
        """Asynchronously warm *key* from the backend if absent.

        Returns True if a backend fetch was issued.  The fetch happens off
        the request path, so no latency is charged here; the next request
        for *key* will find it cached.
        """
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.cache.contains(key):
            return False
        self.cache.admit(key, size_bytes)
        self._m_prefetch.inc()
        return True
