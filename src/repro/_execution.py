"""Execution-scoped run options: *how* a run is computed, never *what*.

:class:`ExecutionOptions` is the typed view of the execution section of
:class:`~repro.simulation.config.SimulationConfig` — the knobs that pick
an execution strategy (worker count, telemetry residence, tracing)
without changing a single simulated record.  The workload identity hash
excludes exactly these fields, *structurally*:
:data:`EXECUTION_FIELD_NAMES` is derived from this dataclass, so adding
an execution knob here is all it takes to keep it out of the hash (the
field list in ``repro.obs.manifest`` used to be maintained by hand).

This module is an import leaf (stdlib only) at the package root so both
the config and the manifest layers can depend on it without a cycle; the
public import path is :mod:`repro.simulation.execution`, a re-export
shim.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

__all__ = ["EXECUTION_FIELD_NAMES", "ExecutionOptions"]


@dataclass(frozen=True)
class ExecutionOptions:
    """The execution knobs of one run, as an immutable typed view.

    Every field mirrors the identically-named flat field on
    :class:`~repro.simulation.config.SimulationConfig` (the flat kwargs
    remain the construction surface; see the deprecation note in
    docs/ARCHITECTURE.md).  The determinism contract: any two configs
    differing only in these fields simulate byte-identical telemetry.
    """

    #: worker processes; 1 = in-process execution
    workers: int = 1
    #: wall-clock budget per shard attempt (seconds); None = no timeout
    shard_timeout_s: Optional[float] = None
    #: fraction of sessions traced (head-sampled by session-id hash)
    trace_sample: float = 0.0
    #: telemetry memory mode: None = in-memory, path = spill directory
    spill_dir: Optional[str] = None
    #: rows buffered per record kind before a sorted spill run is flushed
    spill_threshold_rows: int = 262_144


#: The structural exclusion list for the workload config hash: exactly the
#: fields of :class:`ExecutionOptions`, never a hand-maintained copy.
EXECUTION_FIELD_NAMES: Tuple[str, ...] = tuple(
    f.name for f in fields(ExecutionOptions)
)
