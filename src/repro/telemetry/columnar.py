"""Columnar backing store: structured-array layout for every record kind.

The record dataclasses in :mod:`repro.telemetry.records` are the facade the
analysis layer consumes; at scale (the paper's 65 M sessions / 523 M
chunks) a Python object per record is ~10x the memory of the data it
carries.  This module declares one numpy structured dtype per record kind
and exact, loss-free conversion in both directions:

* ``records_to_array`` — record objects → one structured array (the
  columnar form the spill files and the synthetic generator use);
* ``iter_records`` / ``array_to_records`` — structured array → record
  objects, block-wise, producing plain Python scalars (``tolist()``), so a
  round-tripped record compares ``==`` to the original and JSON-serializes
  identically.

String columns are fixed-width UTF-8 bytes (``S`` dtype — 1 byte/char for
the ASCII identifiers the simulator emits, vs 4 for ``U``).  Widths are
part of the documented contract (docs/TELEMETRY.md); a value that does not
fit raises :class:`ColumnOverflowError` instead of being truncated
silently.  Canonical ordering (the :meth:`Dataset.sorted` keys) is a
stable ``np.lexsort`` over the same key columns.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from .records import (
    CdnChunkRecord,
    CdnSessionRecord,
    ChunkGroundTruth,
    PlayerChunkRecord,
    PlayerSessionRecord,
    TcpInfoRecord,
)

__all__ = [
    "COLUMN_SCHEMAS",
    "SPILL_KINDS",
    "ColumnOverflowError",
    "ColumnSchema",
    "dtype_token",
    "records_to_array",
    "array_to_records",
    "iter_records",
    "sort_array",
    "sort_key",
]

#: rows materialized per block when iterating an array back into records —
#: bounds peak Python-object count regardless of array length
ITER_BLOCK_ROWS = 65_536


class ColumnOverflowError(ValueError):
    """A string value exceeds its column's declared byte width."""


class ColumnSchema:
    """The columnar layout of one record kind.

    ``kind`` is the :class:`~repro.telemetry.dataset.Dataset` attribute
    name; ``fields`` maps every dataclass field, in declaration order, to
    a numpy dtype string; ``sort_keys`` are the canonical-order key
    columns (exactly :meth:`Dataset.sorted`'s keys for this kind).
    """

    def __init__(
        self,
        kind: str,
        record_type: type,
        fields: Tuple[Tuple[str, str], ...],
        sort_keys: Tuple[str, ...],
    ) -> None:
        declared = tuple(f.name for f in dataclasses.fields(record_type))
        if tuple(name for name, _ in fields) != declared:
            raise ValueError(
                f"{kind}: columnar fields {tuple(n for n, _ in fields)} do not "
                f"match {record_type.__name__} fields {declared}"
            )
        self.kind = kind
        self.record_type = record_type
        self.sort_keys = sort_keys
        self.dtype = np.dtype(list(fields))
        #: (index, name, byte width) of every string column
        self.string_fields: Tuple[Tuple[int, str, int], ...] = tuple(
            (index, name, self.dtype[name].itemsize)
            for index, (name, _) in enumerate(fields)
            if self.dtype[name].kind == "S"
        )
        self._key_getter = attrgetter(*sort_keys)

    @property
    def field_names(self) -> Tuple[str, ...]:
        return self.dtype.names

    @property
    def row_bytes(self) -> int:
        return self.dtype.itemsize


#: The columnar contract: every record kind's layout, keyed by its
#: ``Dataset`` attribute name.  Adding or resizing a column REQUIRES a
#: matching row in docs/TELEMETRY.md (tests/test_docs_contract.py enforces
#: both directions) and a SPILL_FORMAT_VERSION bump in
#: :mod:`repro.telemetry.spill`.
COLUMN_SCHEMAS: Dict[str, ColumnSchema] = {
    schema.kind: schema
    for schema in (
        ColumnSchema(
            "player_chunks",
            PlayerChunkRecord,
            (
                ("session_id", "S24"),
                ("chunk_id", "i8"),
                ("dfb_ms", "f8"),
                ("dlb_ms", "f8"),
                ("bitrate_kbps", "f8"),
                ("chunk_duration_ms", "f8"),
                ("rebuffer_count", "i8"),
                ("rebuffer_ms", "f8"),
                ("visible", "b1"),
                ("avg_fps", "f8"),
                ("dropped_frames", "i8"),
                ("total_frames", "i8"),
                ("request_sent_ms", "f8"),
                ("hw_rendered", "b1"),
            ),
            ("session_id", "chunk_id"),
        ),
        ColumnSchema(
            "cdn_chunks",
            CdnChunkRecord,
            (
                ("session_id", "S24"),
                ("chunk_id", "i8"),
                ("d_wait_ms", "f8"),
                ("d_open_ms", "f8"),
                ("d_read_ms", "f8"),
                ("d_be_ms", "f8"),
                ("cache_status", "S12"),
                ("chunk_bytes", "i8"),
                ("server_id", "S32"),
                ("pop_id", "S32"),
                ("served_at_ms", "f8"),
            ),
            ("session_id", "chunk_id"),
        ),
        ColumnSchema(
            "tcp_snapshots",
            TcpInfoRecord,
            (
                ("session_id", "S24"),
                ("chunk_id", "i8"),
                ("t_ms", "f8"),
                ("cwnd_segments", "i8"),
                ("srtt_ms", "f8"),
                ("rttvar_ms", "f8"),
                ("retx_total", "i8"),
                ("mss", "i8"),
                ("rto_ms", "f8"),
            ),
            ("session_id", "chunk_id", "t_ms"),
        ),
        ColumnSchema(
            "player_sessions",
            PlayerSessionRecord,
            (
                ("session_id", "S24"),
                ("client_ip", "S48"),
                ("user_agent", "S128"),
                ("video_id", "i8"),
                ("video_duration_ms", "f8"),
                ("start_ms", "f8"),
                ("os", "S32"),
                ("browser", "S24"),
            ),
            ("session_id",),
        ),
        ColumnSchema(
            "cdn_sessions",
            CdnSessionRecord,
            (
                ("session_id", "S24"),
                ("client_ip", "S48"),
                ("user_agent", "S128"),
                ("pop_id", "S32"),
                ("server_id", "S32"),
                ("org", "S64"),
                ("conn_type", "S16"),
                ("country", "S8"),
                ("city", "S40"),
                ("lat", "f8"),
                ("lon", "f8"),
            ),
            ("session_id",),
        ),
        ColumnSchema(
            "ground_truth",
            ChunkGroundTruth,
            (
                ("session_id", "S24"),
                ("chunk_id", "i8"),
                ("true_dds_ms", "f8"),
                ("true_rtt0_ms", "f8"),
                ("transient_ds", "b1"),
                ("segments_sent", "i8"),
                ("segments_retx", "i8"),
                ("true_drop_fraction", "f8"),
                ("network_dlb_ms", "f8"),
                ("fault_labels", "S160"),
            ),
            ("session_id", "chunk_id"),
        ),
    )
}

#: record kinds in Dataset-attribute order (the spill manifest order)
SPILL_KINDS: Tuple[str, ...] = tuple(COLUMN_SCHEMAS)


def dtype_token(kind: str, field: str) -> str:
    """The short dtype token documented in docs/TELEMETRY.md (``S24``, ``i8``...)."""
    dt = COLUMN_SCHEMAS[kind].dtype[field]
    if dt.kind == "S":
        return f"S{dt.itemsize}"
    if dt.kind == "b":
        return "b1"
    return f"{dt.kind}{dt.itemsize}"


def records_to_array(kind: str, records: Iterable[object]) -> np.ndarray:
    """Pack record objects into one structured array (exact, validated).

    The array is filled one column at a time: one attribute sweep over
    the records per field, converted by numpy in one call.  String fields
    are UTF-8 encoded once per distinct value; a value wider than its
    declared column raises :class:`ColumnOverflowError` (numpy would
    truncate silently, which must never happen to telemetry).
    """
    schema = COLUMN_SCHEMAS[kind]
    if not isinstance(records, list):
        records = list(records)
    n = len(records)
    array = np.empty(n, dtype=schema.dtype)
    widths = {name: width for _, name, width in schema.string_fields}
    for name in schema.field_names:
        column = map(attrgetter(name), records)
        if name in widths:
            encoded = _encode_strings(kind, name, widths[name], list(column))
            array[name] = np.array(encoded, dtype=schema.dtype[name])
        else:
            array[name] = np.fromiter(column, schema.dtype[name], n)
    return array


def _encode_strings(kind: str, name: str, width: int, values: List[str]) -> List[bytes]:
    """UTF-8 bytes of *values*, each distinct string encoded and checked once."""
    encoded = {value: value.encode("utf-8") for value in dict.fromkeys(values)}
    for value, raw in encoded.items():
        if len(raw) > width:
            raise ColumnOverflowError(
                f"{kind}.{name}: value {value!r} is {len(raw)} bytes, column "
                f"width is {width} (docs/TELEMETRY.md, 'Columnar layout')"
            )
    return list(map(encoded.__getitem__, values))


def iter_records(
    kind: str, array: np.ndarray, block_rows: int = ITER_BLOCK_ROWS
) -> Iterator[object]:
    """Materialize an array's rows back into record objects, block-wise.

    ``tolist()`` yields plain Python scalars (int/float/bool/bytes), so
    the rebuilt records are exactly what the facade emitted — ``==`` to
    the originals and byte-identical under JSON serialization.  Blocks of
    *block_rows* (default :data:`ITER_BLOCK_ROWS`) bound the number of
    live Python objects no matter how large the (possibly memory-mapped)
    array is; callers merging many arrays at once divide the budget
    across them (:meth:`~repro.telemetry.spill.SpilledDataset.iter_kind`)
    so the bound holds per *kind*, not per run.
    """
    schema = COLUMN_SCHEMAS[kind]
    record_type = schema.record_type
    decode_indices = [index for index, _, _ in schema.string_fields]
    block_rows = max(1, block_rows)
    for start in range(0, len(array), block_rows):
        for row in array[start : start + block_rows].tolist():
            values = list(row)
            for index in decode_indices:
                values[index] = values[index].decode("utf-8")
            yield record_type(*values)


def array_to_records(kind: str, array: np.ndarray) -> List[object]:
    """List form of :func:`iter_records` (small arrays / tests)."""
    return list(iter_records(kind, array))


def sort_array(kind: str, array: np.ndarray) -> np.ndarray:
    """Stable canonical-order sort (the :meth:`Dataset.sorted` keys).

    Key columns are ASCII-ordered bytes and numbers, so a lexicographic
    sort over them orders rows exactly as the tuple keys ``Dataset.sorted``
    uses.  ``np.lexsort`` is stable and sorts by its *last* key first, so
    the keys go in reversed; stability preserves emission order between
    equal keys, which is what makes spilled runs merge to the in-memory
    canonical order.
    """
    if len(array) <= 1:
        return array
    keys = COLUMN_SCHEMAS[kind].sort_keys
    return array[np.lexsort([array[name] for name in reversed(keys)])]


def sort_key(kind: str):
    """The canonical-order key callable for record objects of *kind*."""
    return COLUMN_SCHEMAS[kind]._key_getter
