"""Dataset persistence: JSON-lines serialization, one file per record type.

Keeps datasets inspectable with standard tooling (``jq``, pandas) and lets
the benchmark harness cache expensive simulations on disk.  The writer
serializes rows straight from a dataset's sorted runs, in memory or
spilled, and builds no record object; the loader builds records and
encodes them (``Dataset(**records)``).
"""

from __future__ import annotations

import heapq
import json
from operator import itemgetter
from pathlib import Path
from typing import Iterator, List, Sequence, Union

import numpy as np

from .columnar import COLUMN_SCHEMAS, SPILL_KINDS, iter_rows
from .dataset import Dataset
from .spill import SPILL_MANIFEST_FILENAME

__all__ = ["canonical_rows", "save_dataset", "load_dataset"]

#: rows of each run held as Python values at a time while saving (JSON
#: lines or CSV beacons): the writer's memory grows with the number of
#: runs, not with their length
SAVE_RUN_ROWS = 4_096


def _filename(kind: str) -> str:
    return f"{kind}.jsonl"


def canonical_rows(kind: str, runs: Sequence[np.ndarray]) -> Iterator[list]:
    """The rows of *kind*'s sorted *runs* in canonical order: one stable
    k-way merge on the sort keys, so rows sharing a key come in run
    order, as :func:`~repro.telemetry.columnar.merge_runs` orders them.
    Each run holds :data:`SAVE_RUN_ROWS` rows as Python values at a
    time, and no record object is built."""
    schema = COLUMN_SCHEMAS[kind]
    keys = [schema.field_names.index(name) for name in schema.sort_keys]
    streams = [iter_rows(kind, run, SAVE_RUN_ROWS) for run in runs]
    return heapq.merge(*streams, key=itemgetter(*keys))


def _read_jsonl(path: Path, kind: str) -> List[object]:
    if not path.exists():
        return []
    schema = COLUMN_SCHEMAS[kind]
    fields = set(schema.field_names)
    records: List[object] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_number}: invalid JSON: {error}") from error
            unknown = set(payload) - fields
            if unknown:
                raise ValueError(f"{path}:{line_number}: unknown fields {sorted(unknown)}")
            records.append(schema.record_type(**payload))
    return records


def save_dataset(dataset: Dataset, directory: Union[str, Path]) -> Path:
    """Write *dataset* under *directory* (created if needed); returns the path.

    Each kind's rows are serialized from its runs (``run_arrays``) in
    canonical order, so an in-memory dataset and a spill of the same
    records write identical bytes, and no record view is decoded.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for kind in SPILL_KINDS:
        names = COLUMN_SCHEMAS[kind].field_names
        with (directory / _filename(kind)).open("w", encoding="utf-8") as handle:
            for values in canonical_rows(kind, dataset.run_arrays(kind)):
                handle.write(json.dumps(dict(zip(names, values))) + "\n")
    return directory


def load_dataset(directory: Union[str, Path]) -> Dataset:
    """Load a dataset previously written by :func:`save_dataset`.

    A directory that holds none of the six JSON-lines files raises
    ``FileNotFoundError`` naming what it holds instead: a spill, or the
    per-period subdirectories of a multi-period run.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {directory}")
    if not any((directory / _filename(kind)).exists() for kind in SPILL_KINDS):
        raise FileNotFoundError(_not_a_dataset(directory))
    return Dataset(**{kind: _read_jsonl(directory / _filename(kind), kind) for kind in SPILL_KINDS})


def _not_a_dataset(directory: Path) -> str:
    message = f"{directory} holds no telemetry JSON-lines files ({_filename(SPILL_KINDS[0])} ...)"
    if (directory / SPILL_MANIFEST_FILENAME).is_file():
        return (
            f"{message}; it holds a spill ({SPILL_MANIFEST_FILENAME}): open it with "
            "repro.telemetry.SpilledDataset"
        )
    subdirectories = sorted(path.name for path in directory.iterdir() if path.is_dir())
    if subdirectories:
        return f"{message}; it holds the subdirectories {subdirectories}: pass one of them"
    return message
