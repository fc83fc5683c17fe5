"""Dataset persistence: JSON-lines serialization, one file per record type.

Keeps datasets inspectable with standard tooling (``jq``, pandas) and lets
the benchmark harness cache expensive simulations on disk.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Type, TypeVar, Union

from .dataset import Dataset
from .records import (
    CdnChunkRecord,
    CdnSessionRecord,
    ChunkGroundTruth,
    PlayerChunkRecord,
    PlayerSessionRecord,
    TcpInfoRecord,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .spill import SpilledDataset

__all__ = ["save_dataset", "load_dataset"]

_FILES = {
    "player_chunks": ("player_chunks.jsonl", PlayerChunkRecord),
    "cdn_chunks": ("cdn_chunks.jsonl", CdnChunkRecord),
    "tcp_snapshots": ("tcp_snapshots.jsonl", TcpInfoRecord),
    "player_sessions": ("player_sessions.jsonl", PlayerSessionRecord),
    "cdn_sessions": ("cdn_sessions.jsonl", CdnSessionRecord),
    "ground_truth": ("ground_truth.jsonl", ChunkGroundTruth),
}

T = TypeVar("T")


def _write_jsonl(path: Path, records: Iterable[object]) -> None:
    # Iterable, not List: a SpilledDataset's per-kind streams write through
    # here one record at a time without ever materializing the kind.
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(dataclasses.asdict(record)) + "\n")


def _read_jsonl(path: Path, record_type: Type[T]) -> List[T]:
    if not path.exists():
        return []
    field_types = {f.name: f.type for f in dataclasses.fields(record_type)}
    records: List[T] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_number}: invalid JSON: {error}") from error
            unknown = set(payload) - set(field_types)
            if unknown:
                raise ValueError(f"{path}:{line_number}: unknown fields {sorted(unknown)}")
            if "tcp" not in path.name and isinstance(payload.get("tcp"), list):
                payload["tcp"] = tuple(payload["tcp"])
            records.append(record_type(**payload))
    return records


def save_dataset(
    dataset: Union[Dataset, "SpilledDataset"], directory: Union[str, Path]
) -> Path:
    """Write *dataset* under *directory* (created if needed); returns the path.

    Accepts either memory mode: an in-memory :class:`Dataset` or a
    :class:`~repro.telemetry.spill.SpilledDataset`.  Both yield records
    in canonical order, so their JSON-lines bytes are identical.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for attribute, (filename, _) in _FILES.items():
        _write_jsonl(directory / filename, getattr(dataset, attribute))
    return directory


def load_dataset(directory: Union[str, Path]) -> Dataset:
    """Load a dataset previously written by :func:`save_dataset`."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {directory}")
    kwargs = {}
    for attribute, (filename, record_type) in _FILES.items():
        kwargs[attribute] = _read_jsonl(directory / filename, record_type)
    return Dataset(**kwargs)
