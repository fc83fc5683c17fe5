"""The unified run facade: one entry point for every way to simulate.

Historically there were three divergent call paths into the simulator —
``Simulator(config).run()`` (serial), ``ParallelSimulator(config).run()``
(sharded), and ``execute_periods`` / ``run_periods`` (multi-period
scenarios) — each returning a different shape.  :func:`run` subsumes all
three behind one signature::

    from repro import run, SimulationConfig

    result = run(SimulationConfig(n_sessions=500, workers=4))
    result.dataset            # canonical telemetry
    result.manifest()         # run manifest (identity + execution)
    result.shard_reports      # per-shard execution telemetry
    result.servers            # end-of-run fleet state

    # multi-period (scenario) runs: one dataset per period
    result = run(periods=SCENARIOS["flash-crowd"](seed=29))
    result.period("baseline"), result.period("incident")

    # fault injection: a FaultSpec object or a JSON spec path
    result = run(config, faults="examples/fault_cdn_degradation.json")

``config.workers`` picks the executor: ``workers > 1`` shards the run
across worker processes, otherwise it runs in-process (for period lists,
the first period's config decides).  The same call scales from one
process to many without changing shape, and the determinism contract
guarantees identical telemetry on every path (docs/PARALLEL.md).

``Simulator`` / ``ParallelSimulator`` remain public for advanced use
(custom worlds, shard specs, chaos hooks), but new code and docs should go
through :func:`run`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .cdn.server import CdnServer
from .faults import FaultSpec
from .obs.manifest import (
    metrics_document,
    run_manifest,
    save_run_manifest,
    write_metrics_document,
)
from .obs.registry import MetricsRegistry
from .obs.trace import TraceRecorder, write_trace
from .simulation.config import SimulationConfig
from .simulation.driver import SimulationResult, Simulator
from .simulation.parallel import (
    ParallelSimulator,
    PeriodSpec,
    ShardReport,
    execute_periods,
)
from .telemetry.dataset import Dataset
from .telemetry.io import save_dataset

__all__ = ["RunResult", "run"]

FaultsArg = Union[FaultSpec, str, Path, None]


@dataclass
class RunResult:
    """Everything a finished :func:`run` produced.

    ``datasets`` holds one dataset per period (a plain single-config run
    is one period).  Periods are never merged: they may reuse session
    ids, so the run's counts are sums over ``datasets``.  ``simulation``
    is the combined :class:`~repro.simulation.driver.SimulationResult`
    handle — config, end-of-run fleet state, shard reports, metrics
    registry — that the observability emitters consume; its ``dataset``
    is None for a multi-period run.  ``simulator`` is the live serial
    simulator when one was used (its caches can keep running), None for
    sharded runs whose fleet state was merged back from workers.
    """

    datasets: List[Dataset]
    labels: Tuple[str, ...]
    simulation: SimulationResult
    simulator: Optional[Simulator] = None

    # -- convenience views ---------------------------------------------------

    @property
    def dataset(self) -> Dataset:
        """The single-period dataset (raises on multi-period runs)."""
        if len(self.datasets) != 1:
            raise ValueError(
                f"run produced {len(self.datasets)} period datasets "
                f"{self.labels!r}; use .datasets or .period(label)"
            )
        return self.datasets[0]

    def period(self, label: str) -> Dataset:
        """The dataset of the period labeled *label*."""
        for dataset, period_label in zip(self.datasets, self.labels):
            if period_label == label:
                return dataset
        raise KeyError(f"no period labeled {label!r}; have {self.labels!r}")

    @property
    def config(self) -> SimulationConfig:
        return self.simulation.config

    @property
    def servers(self) -> Dict[str, CdnServer]:
        """End-of-run fleet state (merged across shards when sharded)."""
        return self.simulation.servers

    @property
    def deployment(self):
        """The CDN deployment (PoPs, geography) the run was built on."""
        return self.simulation.deployment

    @property
    def shard_reports(self) -> List[ShardReport]:
        return self.simulation.shard_reports

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        return self.simulation.metrics

    @property
    def trace(self) -> Optional[TraceRecorder]:
        """The causal-trace recorder (None unless ``trace_sample > 0``)."""
        return self.simulation.trace

    # -- observability artifacts ---------------------------------------------

    def manifest(self, wall_time_s: Optional[float] = None) -> Dict[str, object]:
        """The run manifest (identity + execution), as a plain dict."""
        return run_manifest(self.simulation, wall_time_s, self.datasets)

    def metrics_document(self) -> Dict[str, object]:
        """The deterministic metrics document (identity + registry)."""
        return metrics_document(self.simulation, self.datasets)

    def save(
        self, directory: Union[str, Path], wall_time_s: Optional[float] = None
    ) -> Path:
        """Persist the dataset plus ``manifest.json`` into *directory*.

        Multi-period runs persist each period into a ``<label>/``
        subdirectory (manifest at the top level).  Returns the directory.

        Datasets are persisted in canonical record order (``sorted()``),
        so the JSONL bytes are identical for any ``workers`` count and
        either memory mode (docs/TELEMETRY.md) — sharded merges and
        spilled datasets are already canonical; serial in-memory runs are
        sorted here.
        """
        directory = Path(directory)
        if len(self.datasets) == 1:
            save_dataset(self.datasets[0].sorted(), directory)
        else:
            for index, (dataset, label) in enumerate(zip(self.datasets, self.labels)):
                save_dataset(
                    dataset.sorted(), directory / (label or f"period-{index}")
                )
        save_run_manifest(self.simulation, directory, wall_time_s, self.datasets)
        return directory

    def write_metrics_document(self, path: Union[str, Path]) -> Path:
        return write_metrics_document(self.simulation, path, self.datasets)

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


def _resolve_faults(faults: FaultsArg) -> Optional[FaultSpec]:
    if faults is None:
        return None
    if isinstance(faults, FaultSpec):
        return faults
    return FaultSpec.load(faults)


def run(
    config: Optional[SimulationConfig] = None,
    *,
    periods: Optional[Sequence[PeriodSpec]] = None,
    faults: FaultsArg = None,
) -> RunResult:
    """Run a simulation — serial or sharded, single- or multi-period.

    Exactly one of ``config`` (a single collection period; None means the
    default config) or ``periods`` (a scenario-style list of
    :class:`~repro.simulation.parallel.PeriodSpec`) describes the
    workload.  ``faults`` optionally injects a
    :class:`~repro.faults.FaultSpec` (or a path to its JSON form) into the
    run — for period lists, into every period.  Execution mode follows the
    config: ``workers > 1`` shards the run with telemetry identical to the
    serial path (docs/PARALLEL.md).
    """
    spec = _resolve_faults(faults)
    if periods is not None:
        if config is not None:
            raise ValueError(
                "pass either config (single period) or periods (scenario), not both"
            )
        return _run_periods(list(periods), spec)
    config = config or SimulationConfig()
    if spec is not None:
        config = replace(config, faults=spec)
    if config.workers > 1:
        result = ParallelSimulator(config).run()
        return RunResult(datasets=[result.dataset], labels=("",), simulation=result)
    simulator = Simulator(config)
    result = simulator.run()
    return RunResult(
        datasets=[result.dataset], labels=("",), simulation=result, simulator=simulator
    )


def _execute_periods_serial(
    periods: List[PeriodSpec], exec_config: SimulationConfig, labels: Tuple[str, ...]
) -> RunResult:
    metrics = MetricsRegistry()
    datasets, simulator = execute_periods(periods, metrics=metrics)
    simulation = SimulationResult(
        dataset=None,
        catalog=simulator.catalog,
        population=simulator.population,
        deployment=simulator.deployment,
        servers=simulator.servers,
        config=exec_config,
        shard_reports=[],
        metrics=metrics,
        trace=simulator.trace,
    )
    return RunResult(
        datasets=datasets, labels=labels, simulation=simulation, simulator=simulator
    )


def _execute_periods_sharded(
    periods: List[PeriodSpec], exec_config: SimulationConfig, labels: Tuple[str, ...]
) -> RunResult:
    runner = ParallelSimulator(exec_config)
    datasets, servers, reports = runner.run_periods(periods)
    # Rebuild the (deterministic) world for the result handle: the
    # workers built their own copies, which died with them.
    from .simulation.driver import build_world

    world = build_world(exec_config)
    simulation = SimulationResult(
        dataset=None,
        catalog=world.catalog,
        population=world.population,
        deployment=world.deployment,
        servers=servers,
        config=exec_config,
        shard_reports=reports,
        metrics=runner.metrics,
        trace=runner.trace,
    )
    return RunResult(datasets=datasets, labels=labels, simulation=simulation)


def _run_periods(
    periods: List[PeriodSpec], spec: Optional[FaultSpec]
) -> RunResult:
    if not periods:
        raise ValueError("periods must be non-empty")
    if spec is not None:
        periods = [
            replace(period, config=replace(period.config, faults=spec))
            for period in periods
        ]
    exec_config = periods[0].config
    labels = tuple(period.label for period in periods)
    if exec_config.workers > 1:
        return _execute_periods_sharded(periods, exec_config, labels)
    return _execute_periods_serial(periods, exec_config, labels)
