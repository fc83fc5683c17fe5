"""Period mutations of the incident scenarios.

The canned scenarios are declared in the scenario-matrix DSL
(:data:`repro.sweep.spec.CANNED_SCENARIOS`, docs/SCENARIOS.md) and run as
period lists through :func:`repro.api.run`::

    periods = CANNED_SCENARIOS["cache-flush"].resolve(seed=29)
    result = run(periods=periods)
    result.period("baseline"), result.period("incident")

An incident period names its mutation by dotted path
(``"repro.simulation.scenarios:_flush_caches"``), so shard workers can
import it.  The callables live here:

* ``_flush_caches`` — the fleet's caches restart cold (deploy/restart):
  every chunk pays the miss path until re-warmed (``cache-flush``).
* ``_slow_backend`` — the origin's service time multiplies (storage
  degradation): misses get much more expensive (``backend-brownout``).
"""

from __future__ import annotations

from ..cdn.cache import TwoLevelCache
from .driver import Simulator


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
