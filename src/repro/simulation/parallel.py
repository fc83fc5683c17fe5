"""Sharded parallel simulation: partition, execute, synchronize, merge.

The serial :class:`~repro.simulation.driver.Simulator` runs every session on
one event loop.  :class:`ParallelSimulator` splits the same workload into K
deterministic shards (see :mod:`repro.simulation.shard`), runs each shard in
its own worker process with its own event loop and its own slice of the CDN
fleet, and merges the per-shard telemetry into one canonical
:class:`~repro.telemetry.dataset.Dataset`.

Determinism contract: sessions interact only through their assigned CDN
server, and a server's entire request stream stays inside one shard, so
the merged dataset **equals the serial run's dataset** for the same seed.
Every dataset is canonical: a shard ships its arrays, and
:meth:`Dataset.merge_all` concatenates them in shard order and runs one
stable sort (docs/PARALLEL.md).

Clock barriers: the serial run starts a measured period when the *fleet's*
previous phase ends (the event loop's final timestamp), a quantity no shard
knows locally.  Workers therefore synchronize at period boundaries: each
sends its local clock to the parent, which replies with the max across
shards — exactly the serial loop-end time, since the global event sequence
is the union of the shards'.  The barrier exchanges one float per shard per
boundary; it is not a data merge.

Fault tolerance: a worker that crashes or exceeds the shard timeout is
retried once on a fresh process (replaying any barrier rounds it had
passed — contributions are deterministic, so replays are idempotent).
Shards that already finished are never re-run; their results are preserved.
A shard failing its retry too fails the run (:class:`ShardFailedError`).
Every shard's execution is summarized in a :class:`ShardReport` (wall time,
sessions, retries, peak RSS) attached to the
:class:`~repro.simulation.driver.SimulationResult`.

A run is a list of :class:`PeriodSpec` (one period for a single-config
run).  :func:`execute_periods` runs the list back to back on one
simulator, carrying cache state and the clock across periods; the serial
path calls it directly, and :meth:`ParallelSimulator.run_periods` calls it
inside every worker.  :func:`repro.api.run` picks between the two.
"""

from __future__ import annotations

import importlib
import itertools
import multiprocessing as mp
import os
import shutil
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..cdn.server import CdnServer
from ..obs import publish_last_run
from ..obs.registry import MetricsRegistry
from ..obs.trace import TraceRecorder
from ..telemetry.dataset import Dataset
from .config import SimulationConfig
from .driver import SimulationResult, Simulator, World, build_world
from .shard import ShardSpec

__all__ = [
    "ShardReport",
    "ShardFailedError",
    "PeriodSpec",
    "execute_periods",
    "ParallelSimulator",
]


@dataclass(frozen=True)
class ShardReport:
    """Execution telemetry for one shard (observability, not simulation data)."""

    shard_index: int
    n_shards: int
    #: measured sessions this shard simulated (across all periods)
    sessions: int
    #: CDN servers instantiated by this shard
    n_servers: int
    #: wall-clock seconds of the attempt that produced the result
    wall_time_s: float
    #: failed attempts before the one that produced the result
    retries: int
    #: worker peak resident set size in bytes (0 if unavailable)
    peak_rss_bytes: int
    worker_pid: int
    #: wall-clock span breakdown of the worker: ((span name, total s), ...)
    #: sorted by name — see docs/OBSERVABILITY.md for the span contract
    span_totals: Tuple[Tuple[str, float], ...] = ()


class ShardFailedError(RuntimeError):
    """A shard failed its initial attempt and its retry."""

    def __init__(self, shard_index: int, reason: str) -> None:
        super().__init__(f"shard {shard_index} failed after retry: {reason}")
        self.shard_index = shard_index
        self.reason = reason


@dataclass(frozen=True)
class PeriodSpec:
    """One collection period of a (possibly multi-period) run.

    Consecutive periods execute on the same simulator (in a sharded run,
    on the same worker), so cache state and the clock carry over.  A
    period whose ``config`` differs from the previous period's runs on
    :meth:`Simulator.successor`, which keeps the fleet, the clock and the
    warm state — the flash-crowd pattern.

    ``mutation`` names a module-level callable as ``"pkg.module:function"``
    invoked as ``fn(simulator, *mutation_args)`` before the period runs
    (e.g. flushing caches).  It is a string, not a callable, so the spec
    stays picklable under any multiprocessing start method.
    """

    config: SimulationConfig
    n_sessions: Optional[int] = None
    start_ms: float = 0.0
    label: str = ""
    mutation: Optional[str] = None
    mutation_args: Tuple[Any, ...] = ()


def _period_spill_subdirs(periods: Sequence[PeriodSpec]) -> List[Optional[str]]:
    """Per-period spill subdirectory names (``period-<name>/`` layout).

    Each period finalizes (seals) its own collector, so a shared
    ``spill_dir`` must fan out one subdirectory per period or period 2's
    writer would refuse the directory period 1 just sealed.  Single-period
    runs keep spilling at the root — the layout every existing reader
    knows.  Names come from the period labels (falling back to the period
    index) and must be unique, because a duplicated name is exactly the
    seal collision this layout exists to prevent.
    """
    if len(periods) <= 1 or all(spec.config.spill_dir is None for spec in periods):
        return [None] * len(periods)
    subdirs = [
        f"period-{spec.label}" if spec.label else f"period-{index:02d}"
        for index, spec in enumerate(periods)
    ]
    duplicates = {name for name in subdirs if subdirs.count(name) > 1}
    if duplicates:
        raise ValueError(
            "multi-period spill needs unique period labels; duplicated "
            f"spill subdirectories: {sorted(duplicates)}"
        )
    return subdirs


def _resolve_mutation(ref: str):
    module_name, _, attr = ref.partition(":")
    if not module_name or not attr:
        raise ValueError(f"mutation must look like 'pkg.module:function', got {ref!r}")
    return getattr(importlib.import_module(module_name), attr)


def execute_periods(
    periods: Sequence[PeriodSpec],
    shard: Optional[ShardSpec] = None,
    world: Optional[World] = None,
    clock_sync: Optional[Callable[[float], float]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[List[Dataset], Simulator]:
    """Run *periods* back to back on one (optionally sharded) simulator.

    This is the single execution path shared by serial runs
    (``shard=None``) and the shard workers, so both produce identical
    per-server request streams.  Returns one dataset per period plus the
    final simulator (whose servers hold the end-of-run cache state).
    ``metrics`` (one registry for the whole multi-period run) is shared by
    every period's simulator, so config-change periods keep accumulating
    into the same counters.
    """
    if not periods:
        raise ValueError("periods must be non-empty")
    spill_subdirs = _period_spill_subdirs(periods)
    if metrics is None:
        metrics = MetricsRegistry()
    # One trace recorder for the whole multi-period run, so config-change
    # periods keep appending to the same event stream (like the registry).
    trace = (
        TraceRecorder(periods[0].config.trace_sample)
        if periods[0].config.trace_sample > 0
        else None
    )
    simulator: Optional[Simulator] = None
    datasets: List[Dataset] = []
    for spec, spill_subdir in zip(periods, spill_subdirs):
        if simulator is None:
            simulator = Simulator(
                spec.config, shard=shard, world=world, clock_sync=clock_sync,
                metrics=metrics, trace=trace,
            )
        elif spec.config != simulator.config:
            simulator = simulator.successor(spec.config)
        if spec.mutation is not None:
            _resolve_mutation(spec.mutation)(simulator, *spec.mutation_args)
        datasets.append(
            simulator.run(
                spec.n_sessions, start_ms=spec.start_ms, spill_subdir=spill_subdir
            ).dataset
        )
    return datasets, simulator


# -- worker side -------------------------------------------------------------


@dataclass(frozen=True)
class _ShardTask:
    """Everything a worker needs, pickled across the process boundary."""

    shard: ShardSpec
    periods: Tuple[PeriodSpec, ...]
    world: Optional[World]
    attempt: int
    #: chaos hook (tests): crash immediately while attempt < fail_attempts
    fail_attempts: int = 0


def _peak_rss_bytes() -> int:
    try:
        import resource

        # ru_maxrss is KiB on Linux, bytes on macOS.
        scale = 1 if os.uname().sysname == "Darwin" else 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale
    except Exception:
        return 0


def _make_clock_sync(conn) -> Callable[[float], float]:
    """Worker-side barrier: send the local clock, wait for the fleet max."""
    rounds = itertools.count()

    def sync(clock_ms: float) -> float:
        conn.send({"sync": next(rounds), "clock_ms": clock_ms})
        return float(conn.recv())

    return sync


def _shard_worker_main(task: _ShardTask, conn) -> None:
    """Worker entry point: execute one shard and ship the results back."""
    if task.attempt < task.fail_attempts:
        os._exit(23)  # injected crash (tests): die before producing anything
    if task.attempt > 0:
        # A retried shard replays the same deterministic workload; clear any
        # partial (or even sealed-but-unshipped) spill left by the previous
        # attempt so the fresh writer does not refuse the directory.
        for spec in task.periods:
            if spec.config.spill_dir is not None:
                shutil.rmtree(
                    Path(spec.config.spill_dir) / f"shard-{task.shard.index:02d}",
                    ignore_errors=True,
                )
    try:
        started = time.perf_counter()
        registry = MetricsRegistry()
        with registry.span("parallel.worker"):
            datasets, simulator = execute_periods(
                task.periods,
                shard=task.shard,
                world=task.world,
                clock_sync=_make_clock_sync(conn),
                metrics=registry,
            )
        conn.send(
            {
                # each period's dataset pickles as its canonical arrays
                "datasets": datasets,
                "servers": simulator.servers,
                "sessions": sum(d.n_sessions for d in datasets),
                "wall_time_s": time.perf_counter() - started,
                "peak_rss_bytes": _peak_rss_bytes(),
                "pid": os.getpid(),
                "metrics": registry.snapshot(),
                # execution-scoped metrics (spill accounting) travel
                # separately: they are run-manifest material and must never
                # leak into the byte-stable workload snapshot
                "execution_metrics": registry.execution_snapshot(),
                "span_totals": tuple(registry.tracer.totals()),
                # canonically pre-sorted: the parent k-way merges
                "trace": (
                    simulator.trace.events() if simulator.trace is not None else None
                ),
            }
        )
    except Exception:
        conn.send({"error": traceback.format_exc(), "pid": os.getpid()})
    finally:
        conn.close()


# -- parent side -------------------------------------------------------------


@dataclass
class _Running:
    proc: Any
    conn: Any
    started_monotonic: float
    attempt: int


@dataclass
class _SyncRound:
    """One barrier round: per-shard clocks in, one fleet clock out."""

    clocks: Dict[int, float]
    waiting: Dict[int, Any]  # shard index -> conn blocked on this round
    result: Optional[float] = None


class ParallelSimulator:
    """Run one simulated workload as K deterministic shards in parallel.

    ``config.workers`` is the shard (and worker) count and
    ``config.shard_timeout_s`` the per-attempt budget.  Workers start with
    fork where the platform offers it, else with spawn.
    ``fail_shard_attempts`` maps shard index → number of attempts to crash
    deliberately (fault-injection for tests).

    The shard timeout bounds wall-clock per attempt, measured from launch
    and refreshed whenever the shard demonstrates progress (a barrier
    message) or is released from a barrier it was blocked on.
    """

    #: one retry per shard: a crashed/hung shard gets exactly one fresh worker
    MAX_ATTEMPTS = 2

    def __init__(
        self,
        config: SimulationConfig,
        fail_shard_attempts: Optional[Dict[int, int]] = None,
    ) -> None:
        self.config = config
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._ctx = mp.get_context(method)
        self._fail_shard_attempts = dict(fail_shard_attempts or {})
        #: shard count == worker count: every worker owns exactly one shard
        self.n_shards = config.workers

    def run_periods(self, periods: Sequence[PeriodSpec]) -> SimulationResult:
        """Run consecutive periods sharded; one merged dataset each.

        Cache state and the clock carry across periods *within* each
        worker, as in the serial :func:`execute_periods`; the datasets are
        canonically ordered and their records equal the serial run's.
        ``result.servers`` is the union of the shards' disjoint fleets.
        The world is built once, here, and shipped to the workers.
        Spilled multi-period runs land each period under
        ``<spill_dir>/shard-<k>/period-<name>/`` — the layout is validated
        here so a bad spec fails before any worker launches.
        """
        if not periods:
            raise ValueError("periods must be non-empty")
        periods = tuple(periods)
        _period_spill_subdirs(periods)
        world = build_world(periods[0].config)
        outputs, reports = self._run_shards(periods, world)
        # Merge the shard registries in sorted shard order.  Counters and
        # histogram buckets are integers and gauges merge by max, so the
        # fold equals the serial run's registry for any shard count.
        registry = MetricsRegistry()
        trace: Optional[TraceRecorder] = None
        with registry.span("parallel.merge"):
            # One period's shards merge in sorted shard order, honouring
            # the memory mode: in-memory shards' arrays are concatenated
            # and stable-sorted once (`Dataset.merge_all`); spilled shards
            # merge lazily, the facade iterating every shard's runs, with
            # no row read in the parent (docs/TELEMETRY.md).
            datasets = []
            for p in range(len(periods)):
                shards = [outputs[index]["datasets"][p] for index in sorted(outputs)]
                datasets.append(type(shards[0]).merge_all(shards))
            for index in sorted(outputs):
                registry.merge_snapshot(outputs[index]["metrics"])
                registry.merge_snapshot(outputs[index].get("execution_metrics", {}))
            # Trace merge: each shard ships canonically pre-sorted events;
            # a k-way merge in sorted shard order IS the canonical
            # (session, chunk, seq) order, so the export equals the serial
            # run's byte for byte.
            if self.config.trace_sample > 0:
                trace = TraceRecorder(self.config.trace_sample)
                trace.adopt_sorted(
                    TraceRecorder.merge_sorted(
                        outputs[index].get("trace") or []
                        for index in sorted(outputs)
                    )
                )
        servers: Dict[str, CdnServer] = {}
        for index in sorted(outputs):
            servers.update(outputs[index]["servers"])
        publish_last_run(registry)
        return SimulationResult(
            datasets=datasets,
            labels=tuple(period.label for period in periods),
            catalog=world.catalog,
            population=world.population,
            deployment=world.deployment,
            servers=servers,
            config=self.config,
            shard_reports=reports,
            metrics=registry,
            trace=trace,
        )

    # -- orchestration -------------------------------------------------------

    def _run_shards(
        self, periods: Tuple[PeriodSpec, ...], world: World
    ) -> Tuple[Dict[int, Dict[str, Any]], List[ShardReport]]:
        """Launch every shard, serve its barriers, retry failures once."""
        outputs: Dict[int, Dict[str, Any]] = {}
        reports: Dict[int, ShardReport] = {}
        pending = deque(range(self.n_shards))
        attempts: Dict[int, int] = {index: 0 for index in range(self.n_shards)}
        running: Dict[int, _Running] = {}
        rounds: Dict[int, _SyncRound] = {}
        try:
            while pending or running:
                while pending:
                    index = pending.popleft()
                    running[index] = self._launch(index, attempts[index], periods, world)
                self._reap(running, outputs, reports, pending, attempts, rounds)
        finally:
            for state in running.values():
                self._kill(state)
        return outputs, [reports[index] for index in sorted(reports)]

    def _launch(
        self, index: int, attempt: int, periods: Tuple[PeriodSpec, ...], world: World
    ) -> _Running:
        task = _ShardTask(
            shard=ShardSpec(index=index, n_shards=self.n_shards),
            periods=periods,
            world=world,
            attempt=attempt,
            fail_attempts=self._fail_shard_attempts.get(index, 0),
        )
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_shard_worker_main, args=(task, child_conn), daemon=True
        )
        proc.start()
        child_conn.close()  # keep only the child's handle: EOF signals its death
        return _Running(
            proc=proc, conn=parent_conn, started_monotonic=time.monotonic(), attempt=attempt
        )

    def _reap(
        self,
        running: Dict[int, _Running],
        outputs: Dict[int, Dict[str, Any]],
        reports: Dict[int, ShardReport],
        pending: deque,
        attempts: Dict[int, int],
        rounds: Dict[int, _SyncRound],
    ) -> None:
        """Wait for one event (message, crash, or timeout) and process it."""
        timeout_s = self.config.shard_timeout_s
        timeout = None
        if timeout_s is not None:
            now = time.monotonic()
            nearest = min(
                state.started_monotonic + timeout_s for state in running.values()
            )
            timeout = max(0.0, nearest - now)
        ready = set(
            mp_connection.wait([state.conn for state in running.values()], timeout)
        )
        now = time.monotonic()
        for index in list(running):
            state = running[index]
            if state.conn in ready:
                try:
                    payload = state.conn.recv()
                except (EOFError, OSError):
                    payload = None  # died before sending anything
                if payload is not None and "sync" in payload:
                    state.started_monotonic = now  # barrier message = progress
                    self._handle_sync(index, state, payload, running, rounds)
                    continue
                state.conn.close()
                state.proc.join()
                del running[index]
                if payload is None:
                    self._handle_failure(
                        index,
                        state,
                        f"worker crashed (exit code {state.proc.exitcode})",
                        pending,
                        attempts,
                        rounds,
                    )
                elif "error" in payload:
                    self._handle_failure(
                        index, state, payload["error"], pending, attempts, rounds
                    )
                else:
                    outputs[index] = payload
                    reports[index] = ShardReport(
                        shard_index=index,
                        n_shards=self.n_shards,
                        sessions=payload["sessions"],
                        n_servers=len(payload["servers"]),
                        wall_time_s=payload["wall_time_s"],
                        retries=state.attempt,
                        peak_rss_bytes=payload["peak_rss_bytes"],
                        worker_pid=payload["pid"],
                        span_totals=tuple(payload.get("span_totals", ())),
                    )
            elif timeout_s is not None and now - state.started_monotonic > timeout_s:
                self._kill(state)
                del running[index]
                self._handle_failure(
                    index,
                    state,
                    f"shard exceeded timeout of {timeout_s:g}s",
                    pending,
                    attempts,
                    rounds,
                )

    def _handle_sync(
        self,
        index: int,
        state: _Running,
        payload: Dict[str, Any],
        running: Dict[int, _Running],
        rounds: Dict[int, _SyncRound],
    ) -> None:
        number = payload["sync"]
        sync_round = rounds.setdefault(number, _SyncRound(clocks={}, waiting={}))
        sync_round.clocks[index] = payload["clock_ms"]
        if sync_round.result is not None:
            # a retried shard replaying a completed barrier: answer directly
            state.conn.send(sync_round.result)
            return
        sync_round.waiting[index] = state.conn
        if len(sync_round.clocks) < self.n_shards:
            return
        # every shard has reached this barrier: release them all
        sync_round.result = max(sync_round.clocks.values())
        now = time.monotonic()
        for waiter_index, conn in sync_round.waiting.items():
            conn.send(sync_round.result)
            if waiter_index in running:  # barrier wait is not the shard's fault
                running[waiter_index].started_monotonic = now
        sync_round.waiting.clear()

    def _handle_failure(
        self,
        index: int,
        state: _Running,
        reason: str,
        pending: deque,
        attempts: Dict[int, int],
        rounds: Dict[int, _SyncRound],
    ) -> None:
        for sync_round in rounds.values():  # drop its stale barrier handle
            sync_round.waiting.pop(index, None)
        if state.attempt + 1 >= self.MAX_ATTEMPTS:
            raise ShardFailedError(index, reason)
        attempts[index] = state.attempt + 1
        pending.append(index)  # fresh worker, same deterministic shard

    @staticmethod
    def _kill(state: _Running) -> None:
        try:
            state.conn.close()
        except OSError:
            pass
        if state.proc.is_alive():
            state.proc.terminate()
            state.proc.join(5.0)
            if state.proc.is_alive():
                state.proc.kill()
                state.proc.join(5.0)
