"""Run manifests and metrics documents: what ran, under what identity.

Two artifacts, two contracts:

* the **metrics document** (``repro simulate --metrics-out``) is fully
  deterministic — workload identity plus the metrics registry snapshot.
  Its bytes depend only on the seeded workload, never on how the run was
  executed: a serial run and a ``--workers 4`` run of the same config
  produce identical files (the acceptance test of the observability
  layer).  Execution knobs are therefore excluded from its config hash
  and its manifest block.
* the **run manifest** (``manifest.json`` written next to every persisted
  dataset) records the execution too: shard layout, per-shard reports,
  span timings, wall clock.  It answers "what produced this directory"
  and is *not* byte-stable across worker counts — by design.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union


if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from ..simulation.config import SimulationConfig
    from ..simulation.driver import SimulationResult

__all__ = [
    "EXECUTION_FIELDS",
    "MANIFEST_FILENAME",
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_VERSION",
    "config_hash",
    "metrics_document",
    "run_manifest",
    "dump_json",
    "write_metrics_document",
    "save_run_manifest",
    "validate_manifest",
    "load_run_manifest",
]

#: Config fields that choose *how* (or whether) the run is observed and
#: executed, never *what* is simulated (the execution section of
#: SimulationConfig).  Excluded from the workload identity hash so
#: serial, sharded, traced, and spilled runs of one workload share a
#: config_hash, and banned from sweep specs.  A new execution knob goes
#: into this list.
EXECUTION_FIELDS = frozenset(
    {"workers", "shard_timeout_s", "trace_sample", "spill_dir", "spill_threshold_rows"}
)

MANIFEST_SCHEMA = "repro.obs/1"
#: Integer schema version carried by every manifest (see the migration
#: note in docs/OBSERVABILITY.md).  Loaders reject unknown versions.
MANIFEST_SCHEMA_VERSION = 1
MANIFEST_FILENAME = "manifest.json"


def config_hash(config: "SimulationConfig") -> str:
    """Stable hex digest of the config's workload-semantic fields."""
    payload = dataclasses.asdict(config)
    for field in EXECUTION_FIELDS:
        payload.pop(field, None)
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _identity(
    config: "SimulationConfig", n_sessions: int, n_chunks: int
) -> Dict[str, Any]:
    """The deterministic manifest block shared by every identity artifact.

    A batch run's metrics document and manifest, and the live service's
    ``/metrics``, all lead with this block.
    """
    # Imported lazily: repro/__init__ imports the driver, which imports
    # this package before __version__ is bound.
    from .. import __version__

    return {
        "schema": MANIFEST_SCHEMA,
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "package_version": __version__,
        "seed": config.seed,
        "config_hash": config_hash(config),
        "n_sessions": n_sessions,
        "n_chunks": n_chunks,
    }


def _run_identity(result: "SimulationResult") -> Dict[str, Any]:
    """A finished run's identity block: counts summed over its periods."""
    return _identity(
        result.config,
        sum(dataset.n_sessions for dataset in result.datasets),
        sum(dataset.n_chunks for dataset in result.datasets),
    )


def metrics_document(result: "SimulationResult") -> Dict[str, Any]:
    """The deterministic ``--metrics-out`` payload: identity + registry."""
    return {"manifest": _run_identity(result), "metrics": result.metrics.snapshot()}


def run_manifest(
    result: "SimulationResult", wall_time_s: Optional[float] = None
) -> Dict[str, Any]:
    """The full execution manifest written next to a persisted dataset."""
    config = result.config
    shards = [dataclasses.asdict(report) for report in result.shard_reports]
    manifest = _run_identity(result)
    manifest["execution"] = {
        "workers": config.workers,
        "shard_timeout_s": config.shard_timeout_s,
        "n_shards": len(shards) or 1,
        "shard_reports": shards,
        "spans": result.metrics.spans_snapshot(),
        # memory mode + spill accounting (docs/TELEMETRY.md): execution-
        # scoped metrics live here, not in the byte-stable metrics document
        "spill_dir": config.spill_dir,
        "spill_threshold_rows": config.spill_threshold_rows,
        "metrics": result.metrics.execution_snapshot(),
    }
    if wall_time_s is not None:
        manifest["execution"]["wall_time_s"] = wall_time_s
    return manifest


def dump_json(document: Dict[str, Any]) -> str:
    """Canonical serialization: sorted keys, fixed indentation, newline."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def write_metrics_document(result: "SimulationResult", path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_json(metrics_document(result)), encoding="utf-8")
    return path


def save_run_manifest(
    result: "SimulationResult",
    directory: Union[str, Path],
    wall_time_s: Optional[float] = None,
) -> Path:
    """Write ``manifest.json`` into a dataset directory; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MANIFEST_FILENAME
    path.write_text(dump_json(run_manifest(result, wall_time_s)), encoding="utf-8")
    return path


def validate_manifest(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Reject manifests written by an unknown schema version.

    Manifests from before the ``schema_version`` field (PR 2–4) carry only
    the ``schema`` string; those read as version 1 (the migration note in
    docs/OBSERVABILITY.md).  Anything newer than
    :data:`MANIFEST_SCHEMA_VERSION` — or a foreign ``schema`` — raises, so
    tooling fails loudly instead of silently misreading future layouts.
    """
    schema = payload.get("schema")
    if schema is not None and schema != MANIFEST_SCHEMA:
        raise ValueError(
            f"not a repro manifest: schema {schema!r} (expected {MANIFEST_SCHEMA!r})"
        )
    version = payload.get("schema_version", 1 if schema == MANIFEST_SCHEMA else None)
    if version != MANIFEST_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported manifest schema_version {version!r}; this build "
            f"reads version {MANIFEST_SCHEMA_VERSION} only — regenerate the "
            "manifest or upgrade (docs/OBSERVABILITY.md, 'Schema versioning')"
        )
    return payload


def load_run_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Load + validate a ``manifest.json`` (or a dataset directory holding one)."""
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_FILENAME
    payload = json.loads(path.read_text(encoding="utf-8"))
    return validate_manifest(payload)
