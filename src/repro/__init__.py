"""repro — end-to-end characterization of a commercial video streaming service.

A faithful reproduction of Ghasemi et al., "Performance Characterization of
a Commercial Video Streaming Service" (IMC 2016), built on a synthetic
substrate: since the paper's Yahoo production traces are proprietary, this
package pairs

* a **full-path simulator** (`repro.simulation`) — ATS-like CDN servers
  with two-level caches and the open-read-retry timer, a round-based TCP
  model with kernel-style `tcp_info` state, wide-area path models, and a
  Flash-era client (ABR, playback buffer, download stack, rendering path) —
  with
* the paper's **analysis pipeline** (`repro.core`) — the chunk-level join,
  proxy filtering, latency decomposition (Eq. 1), performance score
  (Eq. 2), download-stack outlier detection (Eq. 4) and RTO bound (Eq. 5),
  prefix-level persistence analysis, and QoE metrics — which consumes only
  the telemetry a production deployment would have.

Quickstart::

    from repro import SimulationConfig, run
    result = run(SimulationConfig(n_sessions=500, seed=1))
    from repro.core import filter_proxies, qoe
    dataset, _ = filter_proxies(result.dataset)
    print(qoe.summarize(dataset))

:func:`repro.api.run` is the one entry point for every execution shape —
serial, sharded (``workers=4``), multi-period, and fault-injected
(``faults="examples/fault_cdn_degradation.json"``) — and every run returns
one :class:`SimulationResult`.  ``Simulator`` stays exported for stepping
a fleet by hand (custom periods, ``run_days``, service rounds).
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "run",
    "FaultSpec",
    "ScenarioSpec",
    "SweepSpec",
    "run_sweep",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "Dataset",
    "JoinedChunk",
    "SessionView",
    "__version__",
]

# each name is imported on first use, so importing a leaf module such as
# repro.core.qoe loads no simulator module (docs/ARCHITECTURE.md)
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".api": ("run",),
        ".faults": ("FaultSpec",),
        ".simulation.config": ("SimulationConfig",),
        ".simulation.driver": ("SimulationResult", "Simulator"),
        ".sweep": ("ScenarioSpec", "SweepSpec", "run_sweep"),
        ".telemetry.dataset": ("Dataset", "JoinedChunk", "SessionView"),
    },
)
