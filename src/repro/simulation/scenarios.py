"""Incident scenarios: canned what-if studies on the simulated platform.

Since PR 6 the canned scenarios are *declared*, not hand-built: each is a
:class:`~repro.sweep.spec.ScenarioSpec` in
:data:`repro.sweep.spec.CANNED_SCENARIOS` (the scenario-matrix DSL,
docs/SCENARIOS.md), and this module keeps the historical entry points as
thin wrappers over it:

* :data:`SCENARIOS` still maps each name to a ``builder(seed) ->
  List[PeriodSpec]`` callable (now ``ScenarioSpec.resolve``);
* :func:`run_scenario` still executes a named scenario through the
  unified :func:`repro.api.run` facade and returns a
  :class:`ScenarioOutcome`;
* the period-mutation callables (``_flush_caches``, ``_slow_backend``)
  still live here — DSL specs reference them by dotted name, so shard
  workers can import them.

Scenarios:

* ``flash-crowd``   — a traffic spike onto a narrow slice of hot titles
  (e.g. breaking news): arrival rate multiplies, catalog interest narrows.
* ``cache-flush``   — the fleet's caches restart cold (deploy/restart):
  every chunk pays the miss path until re-warmed.
* ``backend-brownout`` — the origin slows down (e.g. storage degradation):
  misses get much more expensive.

New scenarios are written as :class:`ScenarioSpec` values (JSON or code)
and run via ``repro sweep`` or :func:`repro.sweep.run_cell`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..cdn.cache import TwoLevelCache
from ..sweep.spec import CANNED_SCENARIOS, ScenarioSpec
from ..telemetry.dataset import Dataset
from .driver import Simulator
from .parallel import PeriodSpec, ShardReport

__all__ = ["ScenarioOutcome", "SCENARIOS", "run_scenario"]


@dataclass
class ScenarioOutcome:
    """Baseline and incident telemetry from one scenario run."""

    name: str
    baseline: Dataset
    incident: Dataset
    #: the serial simulator (end-of-run fleet state); None for sharded runs
    simulator: Optional[Simulator]
    #: per-shard execution telemetry; empty for serial runs
    shard_reports: List[ShardReport] = field(default_factory=list)


# -- period mutations (referenced by name so shard workers can import them) --


def _flush_caches(simulator: Simulator) -> None:
    """All caches restart cold (deploy/restart)."""
    for server in simulator.servers.values():
        server.cache = TwoLevelCache(
            server.config.ram_capacity_bytes,
            server.config.disk_capacity_bytes,
            server.config.policy_name,
        )


def _slow_backend(simulator: Simulator, slowdown: float) -> None:
    """The origin's service time multiplies (storage degradation)."""
    for server in simulator.servers.values():
        server.backend.service_mean_ms *= slowdown


# -- the registry: DSL specs behind the historical builder signature ---------


def _builder(spec: ScenarioSpec) -> Callable[[int], List[PeriodSpec]]:
    def build(seed: int) -> List[PeriodSpec]:
        return spec.resolve(seed=seed)

    build.__doc__ = spec.description
    return build


SCENARIOS: Dict[str, Callable[[int], List[PeriodSpec]]] = {
    name: _builder(spec) for name, spec in CANNED_SCENARIOS.items()
}


def run_scenario(
    name: str,
    seed: int = 29,
    workers: int = 1,
    shard_timeout_s: Optional[float] = None,
) -> ScenarioOutcome:
    """Run a named scenario; returns baseline + incident telemetry.

    ``workers > 1`` executes both periods sharded across worker processes
    (each worker carries its slice of the fleet through baseline and
    incident); the datasets are canonically ordered and identical to the
    serial run's records.

    This is a thin wrapper over the scenario DSL plus the unified
    :func:`repro.api.run` facade — the named
    :class:`~repro.sweep.spec.ScenarioSpec` resolves to the period list,
    ``run(periods=...)`` executes it.
    """
    from ..api import run

    try:
        spec = CANNED_SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(CANNED_SCENARIOS)}"
        ) from None
    periods = spec.resolve(seed=seed, workers=workers, shard_timeout_s=shard_timeout_s)
    result = run(periods=periods)
    return ScenarioOutcome(
        name,
        result.period("baseline"),
        result.period("incident"),
        simulator=result.simulator,
        shard_reports=result.shard_reports,
    )
