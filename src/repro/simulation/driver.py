"""Top-level simulation driver: config → telemetry dataset.

Builds the world (catalog, client population, CDN deployment, servers),
generates session plans, and runs them through the period runner
(:mod:`repro.simulation.engine`).  The output is a
:class:`~repro.telemetry.dataset.Dataset` — the same shape the paper's
joined production beacons/logs would have — which the analysis pipeline in
:mod:`repro.core` consumes without any knowledge of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from ..cdn.mapping import TrafficEngineering
from ..cdn.pop import Deployment, build_default_deployment
from ..cdn.server import CdnServer
from ..faults.injector import FaultInjector
from ..obs import publish_last_run
from ..obs.manifest import (
    metrics_document,
    run_manifest,
    save_run_manifest,
    write_metrics_document,
)
from ..obs.registry import MetricsRegistry
from ..obs.trace import TraceRecorder, write_trace
from ..telemetry.collector import TelemetryCollector
from ..telemetry.dataset import Dataset
from ..telemetry.io import save_dataset
from ..workload.catalog import Catalog, generate_catalog
from ..workload.clients import ClientPopulation, generate_population
from ..workload.sessions import SessionGenerator
from .config import SimulationConfig
from .engine import run_period
from .shard import ShardSpec

if TYPE_CHECKING:  # avoid a runtime cycle: parallel.py imports this module
    from .parallel import ShardReport

__all__ = ["World", "build_world", "SimulationResult", "Simulator"]


@dataclass
class World:
    """The shared simulation world: everything sessions read but never write.

    Building the world is deterministic in the config seed, so shard
    workers can either rebuild it locally (spawn start method) or inherit
    it from the parent (fork) — both produce identical objects.  Servers
    are *not* part of the world: they are the only mutable cross-session
    state and are owned by exactly one executor (the serial simulator, or
    one shard).
    """

    catalog: Catalog
    population: ClientPopulation
    deployment: Deployment


#: the config fields :func:`build_world` reads for the catalog and population
_WORLD_FIELDS = ("seed", "n_videos", "zipf_alpha", "bitrate_ladder_kbps", "population")


def build_world(config: SimulationConfig) -> World:
    """Construct the catalog, client population and CDN deployment."""
    catalog = generate_catalog(
        n_videos=config.n_videos,
        seed=config.seed,
        zipf_alpha=config.zipf_alpha,
        bitrates_kbps=config.bitrate_ladder_kbps,
    )
    population_config = config.population
    if population_config.seed != config.seed:
        population_config = type(population_config)(
            **{**population_config.__dict__, "seed": config.seed}
        )
    population = generate_population(population_config)
    deployment = build_default_deployment(total_servers=config.n_servers)
    return World(catalog=catalog, population=population, deployment=deployment)


@dataclass
class SimulationResult:
    """A finished run: one telemetry dataset per period, plus world state.

    A single-config run is one period, labelled ``""``.  Periods are never
    merged: they may reuse session ids, so the run's counts are sums over
    ``datasets``.  ``config`` and the world (``catalog``, ``population``,
    ``deployment``) are the first period's, serial and sharded alike;
    ``servers`` is the end-of-run fleet.  ``simulator`` is the
    live serial simulator (its caches can keep running); a sharded run,
    whose fleet was merged back from its workers, leaves it None.
    """

    datasets: List[Dataset]
    catalog: Catalog
    population: ClientPopulation
    deployment: Deployment
    servers: Dict[str, CdnServer]
    config: SimulationConfig
    #: observability registry of the run (merged across shards when
    #: sharded); see docs/OBSERVABILITY.md for the metrics contract
    metrics: MetricsRegistry
    labels: Tuple[str, ...] = ("",)
    #: per-shard execution telemetry; empty for serial runs
    shard_reports: List["ShardReport"] = field(default_factory=list)
    #: per-chunk causal trace recorder (merged across shards when sharded);
    #: None unless ``config.trace_sample > 0`` (docs/OBSERVABILITY.md)
    trace: Optional[TraceRecorder] = None
    simulator: Optional["Simulator"] = None

    @property
    def dataset(self) -> Dataset:
        """The single period's dataset (raises on multi-period runs)."""
        if len(self.datasets) != 1:
            raise ValueError(
                f"run produced {len(self.datasets)} period datasets "
                f"{self.labels!r}; use .datasets or .period(label)"
            )
        return self.datasets[0]

    def period(self, label: str) -> Dataset:
        """The dataset of the period labelled *label*."""
        for dataset, period_label in zip(self.datasets, self.labels):
            if period_label == label:
                return dataset
        raise KeyError(f"no period labeled {label!r}; have {self.labels!r}")

    @property
    def fleet_miss_ratio(self) -> float:
        """Requests that missed both cache levels, fleet-wide (warmup
        included): ``cdn.cache_misses_total / cdn.requests_total``."""
        total = self.metrics.counter("cdn.requests_total").value
        if total == 0:
            return 0.0
        return self.metrics.counter("cdn.cache_misses_total").value / total

    # -- observability artifacts ---------------------------------------------

    def manifest(self, wall_time_s: Optional[float] = None) -> Dict[str, object]:
        """The run manifest (identity + execution), as a plain dict."""
        return run_manifest(self, wall_time_s)

    def metrics_document(self) -> Dict[str, object]:
        """The deterministic metrics document (identity + registry)."""
        return metrics_document(self)

    def save(
        self, directory: Union[str, Path], wall_time_s: Optional[float] = None
    ) -> Path:
        """Persist the datasets plus ``manifest.json`` into *directory*.

        A multi-period run persists each period into a ``<label>/``
        subdirectory, with the manifest at the top level.  Every dataset
        is in canonical record order, so the JSONL bytes are identical for
        any ``workers`` count and either memory mode (docs/TELEMETRY.md).
        Returns the directory.
        """
        directory = Path(directory)
        if len(self.datasets) == 1:
            save_dataset(self.datasets[0], directory)
        else:
            for index, (dataset, label) in enumerate(zip(self.datasets, self.labels)):
                save_dataset(dataset, directory / (label or f"period-{index}"))
        save_run_manifest(self, directory, wall_time_s)
        return directory

    def write_metrics_document(self, path: Union[str, Path]) -> Path:
        return write_metrics_document(self, path)

    def write_trace(self, path: Union[str, Path]) -> Tuple[Path, Path]:
        """Export the causal trace as JSONL + Chrome trace-event JSON.

        The JSONL bytes are identical for any ``--workers`` value (the
        determinism contract, docs/OBSERVABILITY.md).  Returns the
        (jsonl, chrome) paths; raises if the run was not traced.
        """
        if self.trace is None:
            raise ValueError(
                "run was not traced; set config.trace_sample > 0 "
                "(CLI: --trace-out/--trace-sample)"
            )
        return write_trace(self.trace.events(), path)


class Simulator:
    """Reusable simulator: build the world once, run one or more periods."""

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        shard: Optional[ShardSpec] = None,
        world: Optional[World] = None,
        clock_sync: Optional[Callable[[float], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        """Build the world and the server fleet.

        ``shard`` restricts this simulator to one deterministic slice of the
        workload (see :mod:`repro.simulation.shard`): only the shard's
        servers are instantiated/warmed and only its sessions are run.
        ``world`` injects a prebuilt world (identical to what
        :func:`build_world` would produce) so fork-based workers skip the
        rebuild.  ``clock_sync`` is the shard-barrier hook: called with the
        local clock at period boundaries, it must return the fleet-wide
        clock (the max across shards), so that a shard's next period starts
        exactly when the serial run's would.  Serial runs leave it None.
        """
        self._setup(config or SimulationConfig(), shard, world, clock_sync, metrics, trace)
        self.servers: Dict[str, CdnServer] = {}
        for pop in self.deployment.pops:
            for server_id in pop.server_ids:
                if shard is not None and not shard.owns_server(server_id):
                    continue
                self.servers[server_id] = CdnServer(
                    server_id=server_id,
                    backend_rtt_ms=pop.backend_rtt_ms,
                    config=self.config.server,
                    seed=self.config.seed,
                    metrics=self.metrics,
                    faults=self.faults,
                )
        self._warmed = False
        self._clock_ms = 0.0
        if self.config.warm_first_chunks:
            self._warm_first_chunks()

    def _setup(
        self,
        config: SimulationConfig,
        shard: Optional[ShardSpec],
        world: Optional[World],
        clock_sync: Optional[Callable[[float], float]],
        metrics: Optional[MetricsRegistry],
        trace: Optional[TraceRecorder],
    ) -> None:
        """Everything but the server fleet: the world, mapping and faults."""
        self.config = config
        self.shard = shard
        self._clock_sync = clock_sync
        #: observability registry: one per run (or one per shard worker,
        #: merged deterministically by the parallel runner)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: causal-trace recorder; sampling is keyed by session-id hash so
        #: the traced set is identical on every shard layout
        if trace is not None:
            self.trace: Optional[TraceRecorder] = trace
        else:
            self.trace = (
                TraceRecorder(config.trace_sample) if config.trace_sample > 0 else None
            )
        # Fault injection: every shard rebuilds the same injector from the
        # (pickled) config, and every injector query is a pure function of
        # stable ids + sim time, so faults preserve the determinism
        # contract for any worker count (docs/FAULTS.md).
        self.faults = FaultInjector(config.faults) if config.faults else None
        world = world if world is not None else build_world(config)
        self.catalog = world.catalog
        self.population = world.population
        self.deployment = world.deployment
        self.mapping = TrafficEngineering(
            deployment=self.deployment, strategy=config.mapping_strategy
        )
        self.mapping.configure_catalog(config.n_videos)

    def successor(self, config: SimulationConfig) -> "Simulator":
        """A simulator for *config* that continues this one's fleet.

        The multi-period runner starts one at every config change (the
        flash-crowd pattern).  It inherits the servers, the deployment,
        the clock and the warm state, so its periods continue this run's
        timeline on the same caches; it builds no fleet of its own.  It
        keeps this run's catalog and population while the config fields
        they are built from are unchanged, and builds them from *config*
        otherwise.  The inherited servers apply *config*'s fault schedule
        from here on, the one its sessions stamp as ground truth.  It
        shares the shard, the clock barrier, the metrics registry and the
        trace recorder.
        """
        if all(getattr(config, f) == getattr(self.config, f) for f in _WORLD_FIELDS):
            world = World(self.catalog, self.population, self.deployment)
        else:
            world = build_world(config)
            world.deployment = self.deployment
        successor = Simulator.__new__(Simulator)
        successor._setup(
            config, self.shard, world, self._clock_sync, self.metrics, self.trace
        )
        successor.servers = self.servers
        for server in successor.servers.values():
            server.faults = successor.faults
        successor._clock_ms = self._clock_ms
        successor._warmed = self._warmed
        return successor

    def _spill_dir(self, subdir: Optional[str] = None) -> Optional[Path]:
        """This executor's spill directory (None = in-memory telemetry).

        Shard workers spill into a per-shard subdirectory; the parent's
        lazy merge iterates them in shard order (docs/TELEMETRY.md).
        ``subdir`` nests one level deeper — the multi-period runner routes
        each period to its own ``period-<name>/`` so consecutive periods
        never collide on one sealed spill.
        """
        if self.config.spill_dir is None:
            return None
        base = Path(self.config.spill_dir)
        if self.shard is not None:
            base = base / f"shard-{self.shard.index:02d}"
        if subdir is not None:
            base = base / subdir
        return base

    def _measured_collector(
        self, spill_subdir: Optional[str] = None
    ) -> TelemetryCollector:
        """The measured period's collector, honouring the memory mode."""
        return TelemetryCollector(
            record_ground_truth=self.config.record_ground_truth,
            spill_dir=self._spill_dir(spill_subdir),
            spill_threshold_rows=self.config.spill_threshold_rows,
            metrics=self.metrics,
        )

    def _warm_first_chunks(self) -> None:
        """§4.1-2 extension: cache chunk 0 of every title at startup bitrates.

        Warms each title's *home server* in every PoP (the cache-focused
        target) at the bitrates sessions actually start with: the lowest
        rung (buffer-based ABRs) and the rate-based ABR's mid-ladder
        startup rung.
        """
        ladder = self.config.bitrate_ladder_kbps
        warm_bitrates = sorted({ladder[0], ladder[min(4, len(ladder) - 1)]})
        for pop in self.deployment.pops:
            for video in self.catalog.videos:
                decision = self.mapping.assign(
                    pop.location, video.video_id, video.rank, session_id="warmup"
                )
                if decision.pop.pop_id != pop.pop_id:
                    continue
                if decision.server_id not in self.servers:  # other shard's server
                    continue
                server = self.servers[decision.server_id]
                for bitrate in warm_bitrates:
                    server.prefetch(
                        (video.video_id, 0, int(bitrate)), video.chunk_bytes(0, bitrate)
                    )

    def run(
        self,
        n_sessions: Optional[int] = None,
        start_ms: float = 0.0,
        spill_subdir: Optional[str] = None,
    ) -> SimulationResult:
        """Simulate *n_sessions* sessions; returns telemetry and world state.

        If the config requests warmup sessions, they run once (before the
        first measured period) with telemetry discarded, bringing caches to
        steady state.  Running :meth:`run` again continues from the same
        cache state (useful for multi-day recurrence studies).
        ``spill_subdir`` nests this period's spill below the configured
        directory (the multi-period runner's ``period-<name>/`` layout).
        """
        return self._measured_period(
            n_sessions, self.config.seed, start_ms, spill_subdir
        )

    def run_round(
        self,
        round_index: int,
        n_sessions: Optional[int] = None,
        spill_subdir: Optional[str] = None,
    ) -> SimulationResult:
        """One incremental arrival round on the checkpointed clock.

        The service mode (:mod:`repro.serve`) feeds sessions continuously:
        each round simulates *n_sessions* fresh arrivals starting exactly
        where the previous round's period drained, on the same cache
        state, through the same period runner as a batch run.  Round *k*
        uses seed ``config.seed + k`` (the :meth:`run_days` convention), so
        session-id streams are disjoint across rounds and round 0
        reproduces :meth:`run`'s measured period exactly.  Warmup runs once
        before the first round, telemetry discarded as usual.

        Returns only this round's telemetry; the metrics registry and the
        trace recorder keep accumulating across rounds.
        """
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        return self._measured_period(
            n_sessions, self.config.seed + round_index, 0.0, spill_subdir
        )

    @property
    def clock_ms(self) -> float:
        """The checkpointed simulation clock (end of the last period)."""
        return self._clock_ms

    def run_days(
        self,
        n_days: int,
        sessions_per_day: Optional[int] = None,
        day_length_ms: float = 86_400_000.0,
    ) -> SimulationResult:
        """Simulate *n_days* consecutive collection days on one cache state.

        Sessions of day *k* start at ``k * day_length_ms``, or when the
        previous period (day or warmup) ends if that is later, so
        downstream recurrence analyses (§4.2-1 repeats the tail-prefix
        extraction "for every day in our dataset") can split the merged
        dataset on real day boundaries.  Arrival pacing within a day is
        unchanged; the remainder of the day is idle (caches persist, as in
        production).
        """
        if n_days <= 0:
            raise ValueError("n_days must be positive")
        config = self.config
        sessions_per_day = (
            sessions_per_day if sessions_per_day is not None else config.n_sessions
        )
        self._warm_up()
        collector = self._measured_collector()
        for day in range(n_days):
            with self.metrics.span("driver.period"):
                self._clock_ms = run_period(
                    self,
                    n_sessions=sessions_per_day,
                    seed=config.seed + day,  # a fresh session stream per day
                    collector=collector,
                    start_ms=max(self._clock_ms, day * day_length_ms),
                    trace=self.trace,
                )
        return self._result(collector)

    def _warm_up(self) -> None:
        """Run the warmup sessions once, telemetry discarded.

        The next period starts when the warmup ends.  In a sharded run the
        clock is aligned on the fleet's before and after: a shard may carry
        skew from a previous period, and the measured period starts when
        the *fleet's* warmup ends (the serial run's), not this shard's.
        """
        self._sync_clock()
        if self.config.warmup_sessions > 0 and not self._warmed:
            # the discarding collector drops warmup telemetry on arrival,
            # so warmup RAM stays flat at any scale (docs/TELEMETRY.md)
            discard = TelemetryCollector(record_ground_truth=False, discard=True)
            with self.metrics.span("driver.warmup"):
                self._clock_ms = run_period(
                    self,
                    n_sessions=self.config.warmup_sessions,
                    seed=self.config.seed + 99_991,  # disjoint session stream
                    collector=discard,
                    start_ms=self._clock_ms,
                    trace=None,  # warmup is never traced
                )
            self._warmed = True
        self._sync_clock()

    def _measured_period(
        self,
        n_sessions: Optional[int],
        seed: int,
        start_ms: float,
        spill_subdir: Optional[str],
    ) -> SimulationResult:
        """Warm up if needed, then run one measured period from *start_ms*
        (or the checkpointed clock, if later)."""
        self._warm_up()
        collector = self._measured_collector(spill_subdir)
        with self.metrics.span("driver.period"):
            self._clock_ms = run_period(
                self,
                n_sessions=(
                    n_sessions if n_sessions is not None else self.config.n_sessions
                ),
                seed=seed,
                collector=collector,
                start_ms=max(start_ms, self._clock_ms),
                trace=self.trace,
            )
        return self._result(collector)

    def _result(self, collector: TelemetryCollector) -> SimulationResult:
        """Package the collected telemetry with the world state."""
        result = SimulationResult(
            datasets=[collector.dataset()],
            catalog=self.catalog,
            population=self.population,
            deployment=self.deployment,
            servers=self.servers,
            config=self.config,
            metrics=self.metrics,
            trace=self.trace,
            simulator=self,
        )
        publish_last_run(self.metrics)
        return result

    def _sync_clock(self) -> None:
        """Align the local clock with the fleet (no-op for serial runs)."""
        if self._clock_sync is not None:
            self._clock_ms = self._clock_sync(self._clock_ms)

    def _session_generator(self, seed: int) -> SessionGenerator:
        """The period's session-plan generator."""
        config = self.config
        return SessionGenerator(
            catalog=self.catalog,
            population=self.population,
            seed=seed,
            arrival_rate_per_s=config.arrival_rate_per_s,
            watch_median_chunks=config.watch_median_chunks,
            watch_sigma_chunks=config.watch_sigma_chunks,
        )
