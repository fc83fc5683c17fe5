"""Columnar backing store: structured-array layout for every record kind.

The record dataclasses in :mod:`repro.telemetry.records` are what the
record-level analyses read; at scale (the paper's 65 M sessions / 523 M
chunks) a Python object per record is ~10x the memory of the data it
carries.  This module declares one numpy structured dtype per record
kind — the one form telemetry is held in, in memory
(:class:`~repro.telemetry.dataset.Dataset`) and in spill files — and
exact, loss-free conversion in both directions:

* ``rows_to_array`` — rows (tuples in the kind's field order) → one
  structured array: the one column encoder.  The simulator emits rows,
  and the collector encodes them a sorted run at a time;
* ``records_to_array`` — record objects → the same encoder, one row per
  record (the loaders and ``Dataset(**records)``);
* ``iter_records`` / ``array_to_records`` — structured array → record
  objects, block-wise, producing plain Python scalars (``tolist()``), so a
  round-tripped record compares ``==`` to the original and JSON-serializes
  identically.

String columns are fixed-width UTF-8 bytes (``S`` dtype — 1 byte/char for
the ASCII identifiers the simulator emits, vs 4 for ``U``).  Widths are
part of the documented contract (docs/TELEMETRY.md); a value that does not
fit raises :class:`ColumnOverflowError` instead of being truncated
silently.  Canonical ordering is a stable ``np.lexsort`` over each kind's
key columns.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

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
    "rows_to_array",
    "records_to_array",
    "array_to_records",
    "iter_records",
    "take_rows",
    "concat_rows",
    "merge_runs",
    "session_runs",
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
    a numpy dtype string — the order of a row's values; ``sort_keys`` are
    the canonical-order key columns.
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
        #: a record object's row: its field values in column order
        self.row_of = attrgetter(*(name for name, _ in fields))

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


def rows_to_array(kind: str, rows: Sequence[tuple]) -> np.ndarray:
    """Pack rows into one structured array (exact, validated).

    Each row holds one value per column, in the kind's field order.  The
    rows are transposed once, and each column is converted by numpy in
    one call.  String fields are UTF-8 encoded once per distinct value; a
    value wider than its declared column raises
    :class:`ColumnOverflowError` (numpy would truncate silently, which
    must never happen to telemetry).  A row of the wrong width raises
    ``ValueError``: the transpose would drop the surplus values, or
    leave whole columns unset.
    """
    schema = COLUMN_SCHEMAS[kind]
    names = schema.field_names
    n = len(rows)
    array = np.empty(n, dtype=schema.dtype)
    if n == 0:
        return array
    lengths = set(map(len, rows))
    if lengths != {len(names)}:
        raise ValueError(
            f"{kind}: rows hold {len(names)} values ({', '.join(names)}); "
            f"got rows of width {sorted(lengths)}"
        )
    widths = {name: width for _, name, width in schema.string_fields}
    for name, column in zip(names, zip(*rows)):
        if name in widths:
            encoded = _encode_strings(kind, name, widths[name], column)
            array[name] = np.array(encoded, dtype=schema.dtype[name])
        else:
            array[name] = np.fromiter(column, schema.dtype[name], n)
    return array


def records_to_array(kind: str, records: Iterable[object]) -> np.ndarray:
    """Pack record objects into one structured array: :func:`rows_to_array`
    of each record's field values."""
    return rows_to_array(kind, list(map(COLUMN_SCHEMAS[kind].row_of, records)))


def _encode_strings(kind: str, name: str, width: int, values: Sequence[str]) -> List[bytes]:
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


def take_rows(rows: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``rows[index]`` for a structured array, copied row by row.

    numpy copies structured rows field by field.  Viewed as fixed-width
    void records, a gather copies each row in one piece, several times
    faster, and the view back restores the fields.
    """
    opaque = np.dtype((np.void, rows.dtype.itemsize))
    return rows.view(opaque)[index].view(rows.dtype)


def concat_rows(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` of same-dtype structured arrays, row by row (see :func:`take_rows`)."""
    dtype = arrays[0].dtype
    opaque = np.dtype((np.void, dtype.itemsize))
    return np.concatenate([array.view(opaque) for array in arrays]).view(dtype)


def session_runs(ids: np.ndarray, sids: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``(lengths, found, member)`` of each run of equal ids in sorted *ids*:
    its row count, its ``searchsorted`` position in sorted *sids*, and
    whether its id is there.  Ids are compared once per row and searched
    once per run."""
    new = np.ones(len(ids), dtype=bool)
    new[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(new)
    distinct = ids[starts]
    found = np.searchsorted(sids, distinct)
    if len(sids):
        member = sids[np.minimum(found, len(sids) - 1)] == distinct
    else:
        member = np.zeros(len(distinct), dtype=bool)
    return np.diff(np.append(starts, len(ids))), found, member


def sort_array(kind: str, array: np.ndarray) -> np.ndarray:
    """Stable canonical-order sort on the kind's ``sort_keys``.

    Key columns are ASCII-ordered bytes and numbers, so a lexicographic
    sort over them orders rows exactly as :func:`sort_key`'s tuples order
    record objects.  ``np.lexsort`` is stable and sorts by its *last* key
    first, so the keys go in reversed.  Stability keeps emission order
    between equal keys, so sorted runs concatenated in emission order and
    sorted again come out as one sort of the whole emission stream would.
    """
    if len(array) <= 1:
        return array
    keys = COLUMN_SCHEMAS[kind].sort_keys
    return take_rows(array, np.lexsort([array[name] for name in reversed(keys)]))


def merge_runs(kind: str, runs: Sequence[np.ndarray]) -> np.ndarray:
    """One canonical array of *kind*'s sorted *runs*, listed in emission order.

    Several runs are concatenated and stable-sorted, so rows sharing a
    key keep run order, as one stable sort of the emission stream would;
    a single run is returned as it is.
    """
    parts = [run for run in runs if len(run)]
    if len(parts) > 1:
        return sort_array(kind, concat_rows(parts))
    return parts[0] if parts else np.empty(0, COLUMN_SCHEMAS[kind].dtype)


def sort_key(kind: str):
    """The canonical-order key callable for record objects of *kind*."""
    return COLUMN_SCHEMAS[kind]._key_getter
