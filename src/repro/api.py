"""The run facade: one entry point for every way to simulate.

Every run is a list of collection periods, and :func:`run` is the one
place that chooses how to execute it::

    from repro import run, SimulationConfig
    from repro.sweep import CANNED_SCENARIOS

    result = run(SimulationConfig(n_sessions=500, workers=4))
    result.dataset            # canonical telemetry
    result.manifest()         # run manifest (identity + execution)
    result.shard_reports      # per-shard execution telemetry
    result.servers            # end-of-run fleet state

    # multi-period (scenario) runs: one dataset per period
    result = run(periods=CANNED_SCENARIOS["flash-crowd"].resolve(seed=29))
    result.period("baseline"), result.period("incident")

    # fault injection: a FaultSpec object or a JSON spec path
    result = run(config, faults="examples/fault_cdn_degradation.json")

A single config runs as a one-period list.  The first period's
``workers`` picks the executor: ``workers > 1`` shards the run across
worker processes (:meth:`ParallelSimulator.run_periods`), otherwise it
runs in-process (:func:`execute_periods`).  Both return a
:class:`~repro.simulation.driver.SimulationResult`, and the determinism
contract guarantees identical telemetry on either path
(docs/PARALLEL.md).

``Simulator`` stays public for stepping a fleet by hand: custom periods,
:meth:`~repro.simulation.driver.Simulator.run_days` and the service
rounds of ``repro serve``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence, Union

from .faults import FaultSpec
from .simulation.config import SimulationConfig
from .simulation.driver import SimulationResult, build_world
from .simulation.parallel import ParallelSimulator, PeriodSpec, execute_periods

__all__ = ["run"]

FaultsArg = Union[FaultSpec, str, Path, None]


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
) -> SimulationResult:
    """Run a simulation — serial or sharded, single- or multi-period.

    Exactly one of ``config`` (a single collection period; None means the
    default config) or ``periods`` (a scenario-style list of
    :class:`~repro.simulation.parallel.PeriodSpec`) describes the
    workload.  ``faults`` optionally injects a
    :class:`~repro.faults.FaultSpec` (or a path to its JSON form) into
    every period.  Execution mode follows the first period's config:
    ``workers > 1`` shards the run with telemetry identical to the serial
    path (docs/PARALLEL.md).
    """
    if periods is None:
        periods = [PeriodSpec(config=config or SimulationConfig())]
    elif config is not None:
        raise ValueError(
            "pass either config (single period) or periods (scenario), not both"
        )
    periods = list(periods)
    if not periods:
        raise ValueError("periods must be non-empty")
    spec = _resolve_faults(faults)
    if spec is not None:
        periods = [
            replace(period, config=replace(period.config, faults=spec))
            for period in periods
        ]
    config = periods[0].config
    if config.workers > 1:
        return ParallelSimulator(config).run_periods(periods)
    # the result reports the first period's world, as the sharded path does
    world = build_world(config)
    datasets, simulator = execute_periods(periods, world=world)
    return SimulationResult(
        datasets=datasets,
        labels=tuple(period.label for period in periods),
        catalog=world.catalog,
        population=world.population,
        deployment=world.deployment,
        servers=simulator.servers,
        config=config,
        metrics=simulator.metrics,
        trace=simulator.trace,
        simulator=simulator,
    )
