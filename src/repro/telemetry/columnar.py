"""Columnar backing store: structured-array layout for every record kind.

The record dataclasses in :mod:`repro.telemetry.records` are what the
record-level analyses read; at scale (the paper's 65 M sessions / 523 M
chunks) a Python object per record is ~10x the memory of the data it
carries.  This module builds one numpy structured dtype per record
kind from the columns the record's fields declare
(:func:`~repro.telemetry.records.column`) — the one form telemetry is
held in, in memory (:class:`~repro.telemetry.dataset.Dataset`) and in
spill files — and exact, loss-free conversion in both directions:

* ``rows_to_array`` — rows (tuples in the kind's field order) → one
  structured array: the one column encoder.  The simulator emits rows,
  and the collector encodes them a sorted run at a time;
* ``records_to_array`` — record objects → the same encoder, one row per
  record (the loaders and ``Dataset(**records)``);
* ``iter_rows`` — structured array → rows of plain Python values
  (``tolist()``, strings decoded), block-wise: what the JSON-lines
  and CSV beacon writers serialize;
* ``iter_records`` / ``array_to_records`` — the same rows as record
  objects, so a round-tripped record compares ``==`` to the original
  and JSON-serializes identically.

String columns are fixed-width UTF-8 bytes (``S`` dtype — 1 byte/char for
the ASCII identifiers the simulator emits, vs 4 for ``U``).  Widths are
part of the documented contract (docs/TELEMETRY.md); a value that does not
fit raises :class:`ColumnOverflowError` instead of being truncated
silently.  Canonical ordering is a stable ``np.lexsort`` over each kind's
key columns.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import mmap
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
    "iter_rows",
    "release_rows",
    "take_rows",
    "concat_rows",
    "merge_runs",
    "byte_change_points",
    "session_runs",
    "sort_array",
    "sort_key",
]

#: rows materialized per block when iterating an array back into records —
#: bounds peak Python-object count regardless of array length
ITER_BLOCK_ROWS = 65_536

#: the advice that drops resident pages of a map (:func:`release_rows`),
#: or None where the platform's ``mmap`` cannot give it
_MADV_DONTNEED = getattr(mmap, "MADV_DONTNEED", None) if hasattr(mmap.mmap, "madvise") else None


class ColumnOverflowError(ValueError):
    """A string value exceeds its column's declared byte width."""


class ColumnSchema:
    """The columnar layout of one record kind.

    ``kind`` is the :class:`~repro.telemetry.dataset.Dataset` attribute
    name; each field of ``record_type``, in declaration order, is one
    column of the dtype its declaration names
    (:func:`~repro.telemetry.records.column`) — the order of a row's
    values; ``sort_keys`` are the canonical-order key columns.
    """

    def __init__(self, kind: str, record_type: type, sort_keys: Tuple[str, ...]) -> None:
        columns = []
        for field in dataclasses.fields(record_type):
            if "dtype" not in field.metadata:
                raise ValueError(
                    f"{kind}: {record_type.__name__}.{field.name} declares no "
                    "column (repro.telemetry.records.column)"
                )
            columns.append((field.name, field.metadata["dtype"]))
        self.kind = kind
        self.record_type = record_type
        self.sort_keys = sort_keys
        self.dtype = np.dtype(columns)
        #: (index, name, byte width) of every string column
        self.string_fields: Tuple[Tuple[int, str, int], ...] = tuple(
            (index, name, self.dtype[name].itemsize)
            for index, name in enumerate(self.dtype.names)
            if self.dtype[name].kind == "S"
        )
        self._key_getter = attrgetter(*sort_keys)
        #: a record object's row: its field values in column order
        self.row_of = attrgetter(*self.dtype.names)

    @property
    def field_names(self) -> Tuple[str, ...]:
        return self.dtype.names

    @property
    def row_bytes(self) -> int:
        return self.dtype.itemsize


#: The columnar contract: every record kind's layout, keyed by its
#: ``Dataset`` attribute name.  The columns are declared on the record
#: fields in :mod:`repro.telemetry.records`; adding or resizing one
#: REQUIRES a matching row in docs/TELEMETRY.md
#: (tests/test_docs_contract.py enforces both directions) and a
#: SPILL_FORMAT_VERSION bump in :mod:`repro.telemetry.spill`.
COLUMN_SCHEMAS: Dict[str, ColumnSchema] = {
    schema.kind: schema
    for schema in (
        ColumnSchema("player_chunks", PlayerChunkRecord, ("session_id", "chunk_id")),
        ColumnSchema("cdn_chunks", CdnChunkRecord, ("session_id", "chunk_id")),
        ColumnSchema("tcp_snapshots", TcpInfoRecord, ("session_id", "chunk_id", "t_ms")),
        ColumnSchema("player_sessions", PlayerSessionRecord, ("session_id",)),
        ColumnSchema("cdn_sessions", CdnSessionRecord, ("session_id",)),
        ColumnSchema("ground_truth", ChunkGroundTruth, ("session_id", "chunk_id")),
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


def iter_rows(kind: str, array: np.ndarray, block_rows: int = ITER_BLOCK_ROWS) -> Iterator[list]:
    """An array's rows as lists of plain Python values, block-wise.

    ``tolist()`` yields plain Python scalars (int/float/bool/bytes), and
    string columns are decoded from UTF-8, so a row holds exactly the
    values its record carries.  Blocks of *block_rows* bound the number
    of live Python objects no matter how large the (possibly
    memory-mapped) array is, and a spill's run drops the pages of each
    block once it has been read (:func:`release_rows`).
    """
    decode_indices = [index for index, _, _ in COLUMN_SCHEMAS[kind].string_fields]
    for start in range(0, len(array), block_rows):
        rows = array[start : start + block_rows].tolist()
        release_rows(array, start + block_rows)
        for row in rows:
            values = list(row)
            for index in decode_indices:
                values[index] = values[index].decode("utf-8")
            yield values
        del rows  # freed before the next block is read


def iter_records(kind: str, array: np.ndarray) -> Iterator[object]:
    """Materialize an array's rows back into record objects, block-wise
    (:func:`iter_rows`), so the rebuilt records are exactly what the
    simulator emitted: ``==`` to the originals and byte-identical under
    JSON serialization."""
    return itertools.starmap(COLUMN_SCHEMAS[kind].record_type, iter_rows(kind, array))


def array_to_records(kind: str, array: np.ndarray) -> List[object]:
    """List form of :func:`iter_records` (small arrays / tests)."""
    return list(iter_records(kind, array))


def release_rows(run: np.ndarray, stop: Optional[int] = None) -> None:
    """Drop the resident pages of rows ``[0, stop)`` of a read-only
    memory-mapped run (every row when *stop* is None).

    A spill's runs are ``np.memmap`` arrays opened in mode ``r``: shared
    read-only file maps, whose pages ``MADV_DONTNEED`` unmaps and the
    next read maps again from the page cache, so values never depend on
    when a release runs.  Any other array is left alone: on anonymous
    or copy-on-write memory the same advice would zero the rows or
    discard what was written to them.  It does nothing either where
    ``mmap.madvise`` is missing (Windows).

    The range always starts at row 0: around a fault the kernel maps
    whole page-cache folios, so reading rows past a released slice maps
    pages before it again, and only a reader that releases everything
    it has passed keeps its resident pages bounded.
    """
    if not (
        _MADV_DONTNEED is not None
        and isinstance(run, np.memmap)
        and run.mode == "r"
        and isinstance(run.base, mmap.mmap)  # the run itself, not a view of it
    ):
        return
    stop = len(run) if stop is None else min(stop, len(run))
    if stop > 0:
        # np.memmap maps the file from the allocation boundary at or
        # below the data's offset; the kernel rounds the length up to a page
        first_row = run.offset % mmap.ALLOCATIONGRANULARITY
        run.base.madvise(_MADV_DONTNEED, 0, first_row + stop * run.itemsize)


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


def byte_change_points(values: np.ndarray) -> np.ndarray:
    """True at the first row of every run of equal values in a sorted
    fixed-width bytes column.

    numpy compares ``S`` values byte by byte.  Comparing each row as
    unsigned words compares several bytes per step, and folding the word
    columns' verdicts one column at a time is cheaper than ``any`` over
    each short row.  A strided field view is copied first.
    """
    word = np.dtype(f"u{math.gcd(values.dtype.itemsize, 8)}")
    per_row = values.dtype.itemsize // word.itemsize
    words = np.ascontiguousarray(values).view(word).reshape(len(values), per_row)
    unequal = words[1:] != words[:-1]
    new = np.ones(len(values), dtype=bool)
    new[1:] = unequal[:, 0]
    for k in range(1, per_row):
        new[1:] |= unequal[:, k]
    return new


def session_runs(ids: np.ndarray, sids: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``(lengths, found, member)`` of each run of equal ids in sorted *ids*:
    its row count, its ``searchsorted`` position in sorted *sids*, and
    whether its id is there.

    Ids are compared once per row (:func:`byte_change_points`).  When the
    runs' ids are *sids* themselves — every session of *sids* has rows
    here, the usual case — their positions are ``0..n-1`` and nothing is
    searched; otherwise each run's id is searched once.
    """
    starts = np.flatnonzero(byte_change_points(ids))
    lengths = np.diff(np.append(starts, len(ids)))
    distinct = ids[starts]
    # as many rows and as many bytes: the same width, and the same ids
    if len(distinct) == len(sids) and distinct.tobytes() == sids.tobytes():
        return lengths, np.arange(len(sids)), np.ones(len(sids), dtype=bool)
    found = np.searchsorted(sids, distinct)
    if len(sids):
        member = sids[np.minimum(found, len(sids) - 1)] == distinct
    else:
        member = np.zeros(len(distinct), dtype=bool)
    return lengths, found, member


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
    the concatenation is a copy, so each run's mapped pages are dropped
    (:func:`release_rows`).  A single run is returned as it is.
    """
    parts = [run for run in runs if len(run)]
    if len(parts) > 1:
        merged = concat_rows(parts)
        for part in parts:
            release_rows(part)
        return sort_array(kind, merged)
    return parts[0] if parts else np.empty(0, COLUMN_SCHEMAS[kind].dtype)


def sort_key(kind: str):
    """The canonical-order key callable for record objects of *kind*."""
    return COLUMN_SCHEMAS[kind]._key_getter
