"""CSV beacon/log ingestion: run the pipeline on your own telemetry.

Production deployments rarely emit this library's JSONL; they have player
beacons and CDN access logs in tabular form.  This module defines a small
CSV schema per record type (column names match
:mod:`repro.telemetry.records` fields), with validation and line-precise
error reporting, so external data can flow into the same analysis
pipeline:

    player_chunks.csv, cdn_chunks.csv, tcp_snapshots.csv,
    player_sessions.csv, cdn_sessions.csv

Any file may be absent (analyses degrade as under beacon loss); extra
columns are rejected rather than silently dropped — schema drift in
telemetry pipelines should fail loudly.
"""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path
from typing import Dict, List, Type, TypeVar, Union, get_type_hints

from .dataset import Dataset
from .records import (
    CdnChunkRecord,
    CdnSessionRecord,
    PlayerChunkRecord,
    PlayerSessionRecord,
    TcpInfoRecord,
)

__all__ = ["export_beacons_csv", "import_beacons_csv"]

_FILES: Dict[str, tuple] = {
    "player_chunks": ("player_chunks.csv", PlayerChunkRecord),
    "cdn_chunks": ("cdn_chunks.csv", CdnChunkRecord),
    "tcp_snapshots": ("tcp_snapshots.csv", TcpInfoRecord),
    "player_sessions": ("player_sessions.csv", PlayerSessionRecord),
    "cdn_sessions": ("cdn_sessions.csv", CdnSessionRecord),
}

T = TypeVar("T")

_TRUE_STRINGS = {"true", "1", "yes", "t"}
_FALSE_STRINGS = {"false", "0", "no", "f"}


def _coerce(value: str, target_type: type, context: str):
    """Convert one CSV cell to the record field's type."""
    if target_type is float:
        return float(value)
    if target_type is int:
        return int(float(value))  # tolerate "3.0"
    if target_type is bool:
        lowered = value.strip().lower()
        if lowered in _TRUE_STRINGS:
            return True
        if lowered in _FALSE_STRINGS:
            return False
        raise ValueError(f"{context}: {value!r} is not a boolean")
    return value  # str


def _read_csv(path: Path, record_type: Type[T]) -> List[T]:
    hints = get_type_hints(record_type)
    field_names = [f.name for f in dataclasses.fields(record_type)]
    required = {
        f.name
        for f in dataclasses.fields(record_type)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING  # type: ignore[misc]
    }
    records: List[T] = []
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            return []
        unknown = set(reader.fieldnames) - set(field_names)
        if unknown:
            raise ValueError(f"{path}: unknown columns {sorted(unknown)}")
        missing = required - set(reader.fieldnames)
        if missing:
            raise ValueError(f"{path}: missing required columns {sorted(missing)}")
        for line_number, row in enumerate(reader, start=2):
            kwargs = {}
            for name, raw in row.items():
                if raw is None or raw == "":
                    if name in required:
                        raise ValueError(
                            f"{path}:{line_number}: empty required field {name!r}"
                        )
                    continue
                try:
                    kwargs[name] = _coerce(raw, hints[name], f"{path}:{line_number}")
                except ValueError as error:
                    raise ValueError(
                        f"{path}:{line_number}: bad value for {name!r}: {error}"
                    ) from error
            records.append(record_type(**kwargs))
    return records


def _write_csv(path: Path, records: List[object], record_type: Type[T]) -> None:
    field_names = [f.name for f in dataclasses.fields(record_type)]
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=field_names)
        writer.writeheader()
        for record in records:
            writer.writerow(dataclasses.asdict(record))


def export_beacons_csv(dataset: Dataset, directory: Union[str, Path]) -> Path:
    """Write *dataset* as the CSV beacon schema (ground truth is omitted —
    real telemetry has none)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for attribute, (filename, record_type) in _FILES.items():
        _write_csv(directory / filename, getattr(dataset, attribute), record_type)
    return directory


def import_beacons_csv(directory: Union[str, Path]) -> Dataset:
    """Load a CSV beacon directory into a :class:`Dataset`.

    Missing files yield empty record kinds; malformed files raise
    :class:`ValueError` with file/line context.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"beacon directory not found: {directory}")
    kwargs = {}
    for attribute, (filename, record_type) in _FILES.items():
        path = directory / filename
        kwargs[attribute] = _read_csv(path, record_type) if path.exists() else []
    return Dataset(**kwargs)
