"""CSV beacon/log ingestion: run the pipeline on your own telemetry.

Production deployments rarely emit this library's JSONL; they have player
beacons and CDN access logs in tabular form.  This module reads and writes
one CSV file per record kind (every kind of the columnar schema but the
simulator-only ground truth), whose columns are that kind's fields, in the
order :mod:`repro.telemetry.records` declares them, with validation and
line-precise error reporting, so external data can flow into the same
analysis pipeline:

    player_chunks.csv, cdn_chunks.csv, tcp_snapshots.csv,
    player_sessions.csv, cdn_sessions.csv

Each cell is parsed by its column's dtype
(:data:`~repro.telemetry.columnar.COLUMN_SCHEMAS`); integers exactly, at
any size, never through a float.  Any file may be
absent (analyses degrade as under beacon loss); extra columns are
rejected rather than silently dropped — schema drift in telemetry
pipelines should fail loudly.  Export writes each kind's rows straight
from the dataset's sorted runs, in memory or spilled, and decodes no
record.
"""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path
from typing import List, Union

from .columnar import COLUMN_SCHEMAS, SPILL_KINDS
from .dataset import Dataset
from .io import canonical_rows

__all__ = ["export_beacons_csv", "import_beacons_csv"]

#: the record kinds a beacon directory holds: real telemetry has no ground truth
BEACON_KINDS = tuple(kind for kind in SPILL_KINDS if kind != "ground_truth")

_TRUE_STRINGS = {"true", "1", "yes", "t"}
_FALSE_STRINGS = {"false", "0", "no", "f"}


def _filename(kind: str) -> str:
    return f"{kind}.csv"


def _coerce(value: str, dtype_kind: str, context: str):
    """Convert one CSV cell to the value of a column of numpy dtype kind
    *dtype_kind*."""
    if dtype_kind == "f":
        return float(value)
    if dtype_kind == "i":
        try:
            return int(value)  # exact at any size: never through a float
        except ValueError:
            number = float(value)  # an integral spelling such as "3.0"
            if not number.is_integer():
                raise ValueError(f"{context}: {value!r} is not an integer") from None
            return int(number)
    if dtype_kind == "b":
        lowered = value.strip().lower()
        if lowered in _TRUE_STRINGS:
            return True
        if lowered in _FALSE_STRINGS:
            return False
        raise ValueError(f"{context}: {value!r} is not a boolean")
    return value  # "S": a string column


def _read_csv(path: Path, kind: str) -> List[object]:
    schema = COLUMN_SCHEMAS[kind]
    dtype_kinds = {name: schema.dtype[name].kind for name in schema.field_names}
    required = {
        f.name
        for f in dataclasses.fields(schema.record_type)
        if f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING  # type: ignore[misc]
    }
    records: List[object] = []
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            return []
        unknown = set(reader.fieldnames) - set(dtype_kinds)
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
                    kwargs[name] = _coerce(raw, dtype_kinds[name], f"{path}:{line_number}")
                except ValueError as error:
                    raise ValueError(
                        f"{path}:{line_number}: bad value for {name!r}: {error}"
                    ) from error
            records.append(schema.record_type(**kwargs))
    return records


def export_beacons_csv(dataset: Dataset, directory: Union[str, Path]) -> Path:
    """Write *dataset* as the CSV beacon schema (ground truth is omitted —
    real telemetry has none).

    Each kind's rows are written from its runs (``run_arrays``) in
    canonical order (:func:`~repro.telemetry.io.canonical_rows`), so an
    in-memory dataset and a spill of the same records write identical
    bytes, and no record view is decoded.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for kind in BEACON_KINDS:
        with (directory / _filename(kind)).open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(COLUMN_SCHEMAS[kind].field_names)
            writer.writerows(canonical_rows(kind, dataset.run_arrays(kind)))
    return directory


def import_beacons_csv(directory: Union[str, Path]) -> Dataset:
    """Load a CSV beacon directory into a :class:`Dataset`.

    Missing files yield empty record kinds; malformed files raise
    :class:`ValueError` with file/line context.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"beacon directory not found: {directory}")
    records = {}
    for kind in BEACON_KINDS:
        path = directory / _filename(kind)
        records[kind] = _read_csv(path, kind) if path.exists() else []
    return Dataset(**records)
