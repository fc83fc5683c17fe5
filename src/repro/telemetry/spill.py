"""Spill-to-disk telemetry: sorted columnar runs + a lazily merged facade.

At million-session scale a run's telemetry cannot live in RAM.  The
collector therefore spills: records buffer into columnar blocks
(:mod:`repro.telemetry.columnar`) and every ``threshold_rows`` rows a
**sorted run** is flushed to disk as one ``.npy`` file.  A versioned
``spill.json`` manifest describes the directory: format version, per-kind
dtype, and the ordered run list (docs/TELEMETRY.md, "Spill-file format").

:class:`SpilledDataset` is the read side — a bounded-memory stand-in for
:class:`~repro.telemetry.dataset.Dataset`:

* each record kind iterates as a k-way :func:`heapq.merge` of its runs,
  memory-mapped and materialized block-wise, yielding the exact canonical
  order of :meth:`Dataset.sorted` (runs are stable-sorted at flush time
  and flushed in emission order, so merge ties resolve to emission order —
  the same tie-break as one big stable sort);
* record views (:meth:`sessions`, :meth:`iter_sessions`,
  :meth:`join_chunks`) materialize the spill and run the one join of
  :mod:`repro.telemetry.dataset` — they are for tests and small spills;
  whole-spill analyses run the columnar pass instead;
* :meth:`merge_all` combines one period's shard spill directories
  *lazily* — no row is read at merge time; the parent's iteration order
  (shard-index order, then run order) reproduces ``Dataset.merge_all``'s
  canonical output.

The facade is pickle-cheap (directory paths only), which is how shard
workers ship a million-session result through a multiprocessing pipe.
"""

from __future__ import annotations

import heapq
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .columnar import (
    COLUMN_SCHEMAS,
    ITER_BLOCK_ROWS,
    SPILL_KINDS,
    iter_records,
    records_to_array,
    sort_array,
    sort_key,
)
from .dataset import Dataset, JoinedChunk, SessionView

__all__ = [
    "SPILL_FORMAT",
    "SPILL_FORMAT_VERSION",
    "SPILL_MANIFEST_FILENAME",
    "DEFAULT_SPILL_THRESHOLD_ROWS",
    "SpillError",
    "SpillWriter",
    "SpilledDataset",
]

SPILL_FORMAT = "repro.telemetry.spill"
#: bump when COLUMN_SCHEMAS or the manifest layout changes incompatibly
SPILL_FORMAT_VERSION = 1
SPILL_MANIFEST_FILENAME = "spill.json"
#: default rows buffered per kind before a sorted run is flushed.  256 Ki
#: rows of the widest kind (player_sessions/cdn_sessions, ~0.3 KB/row)
#: bound the write buffer around ~80 MB; see the RSS budget model in
#: docs/TELEMETRY.md.
DEFAULT_SPILL_THRESHOLD_ROWS = 262_144


class SpillError(ValueError):
    """A spill directory is missing, truncated, corrupt, or incompatible."""


def _schema_dtype_descr(kind: str) -> List[List[str]]:
    """JSON-able [name, dtype] pairs for the manifest (validation target)."""
    dtype = COLUMN_SCHEMAS[kind].dtype
    return [[name, dtype[name].str] for name in dtype.names]


class SpillWriter:
    """Accumulates records and flushes sorted columnar runs to *directory*.

    One writer per collection period per process.  ``add`` buffers record
    objects; ``add_array`` takes an already-columnar block (the synthetic
    generator's path) without materializing objects.  ``finalize`` flushes
    the tails, writes the manifest, and returns the read facade.  The
    directory must not already contain a spill — a writer never silently
    overwrites telemetry.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        threshold_rows: int = DEFAULT_SPILL_THRESHOLD_ROWS,
        metrics: Optional[Any] = None,
    ) -> None:
        if threshold_rows <= 0:
            raise ValueError("threshold_rows must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if (self.directory / SPILL_MANIFEST_FILENAME).exists():
            raise SpillError(
                f"spill directory {self.directory} already holds a spill; "
                "choose a fresh directory"
            )
        self.threshold_rows = threshold_rows
        self._buffers: Dict[str, list] = {kind: [] for kind in SPILL_KINDS}
        self._pending: Dict[str, List[np.ndarray]] = {kind: [] for kind in SPILL_KINDS}
        self._pending_rows: Dict[str, int] = {kind: 0 for kind in SPILL_KINDS}
        self._runs: Dict[str, List[Dict[str, int]]] = {kind: [] for kind in SPILL_KINDS}
        self._rows: Dict[str, int] = {kind: 0 for kind in SPILL_KINDS}
        self._finalized: Optional[SpilledDataset] = None
        # execution-scope observability (docs/TELEMETRY.md): counter
        # handles are bound once, here, and never read on the hot path
        if metrics is not None:
            self._runs_counter = metrics.counter("telemetry.spill.runs_total")
            self._rows_counter = metrics.counter("telemetry.spill.rows_total")
            self._bytes_counter = metrics.counter("telemetry.spill.bytes_total")
        else:
            self._runs_counter = self._rows_counter = self._bytes_counter = None

    def add(self, kind: str, record: object) -> None:
        buffer = self._buffers[kind]
        buffer.append(record)
        if len(buffer) + self._pending_rows[kind] >= self.threshold_rows:
            self._flush(kind)

    def add_many(self, kind: str, records: Sequence[object]) -> None:
        """Buffer a block of record objects in one call (one append, one
        threshold check) — the per-chunk emission path's batch entry."""
        if not records:
            return
        buffer = self._buffers[kind]
        buffer.extend(records)
        if len(buffer) + self._pending_rows[kind] >= self.threshold_rows:
            self._flush(kind)

    def add_array(self, kind: str, array: np.ndarray) -> None:
        """Buffer an already-columnar block (must match the kind's dtype)."""
        if array.dtype != COLUMN_SCHEMAS[kind].dtype:
            raise SpillError(
                f"{kind}: array dtype {array.dtype} does not match the "
                f"columnar schema {COLUMN_SCHEMAS[kind].dtype}"
            )
        if len(array) == 0:
            return
        self._pending[kind].append(array)
        self._pending_rows[kind] += len(array)
        if self._pending_rows[kind] + len(self._buffers[kind]) >= self.threshold_rows:
            self._flush(kind)

    def _flush(self, kind: str) -> None:
        """Write one sorted run holding everything buffered for *kind*."""
        blocks = list(self._pending[kind])
        if self._buffers[kind]:
            blocks.append(records_to_array(kind, self._buffers[kind]))
        self._buffers[kind].clear()
        self._pending[kind].clear()
        self._pending_rows[kind] = 0
        if not blocks:
            return
        run = sort_array(kind, np.concatenate(blocks) if len(blocks) > 1 else blocks[0])
        sequence = len(self._runs[kind])
        filename = f"{kind}-{sequence:05d}.npy"
        np.save(self.directory / filename, run)
        self._runs[kind].append({"file": filename, "rows": int(len(run))})
        self._rows[kind] += len(run)
        if self._runs_counter is not None:
            self._runs_counter.inc(1)
            self._rows_counter.inc(len(run))
            self._bytes_counter.inc((self.directory / filename).stat().st_size)

    def finalize(self) -> "SpilledDataset":
        """Flush tails, write ``spill.json``, return the read facade (idempotent)."""
        if self._finalized is not None:
            return self._finalized
        for kind in SPILL_KINDS:
            self._flush(kind)
        manifest = {
            "format": SPILL_FORMAT,
            "version": SPILL_FORMAT_VERSION,
            "kinds": {
                kind: {
                    "rows": self._rows[kind],
                    "dtype": _schema_dtype_descr(kind),
                    "runs": self._runs[kind],
                }
                for kind in SPILL_KINDS
            },
        }
        path = self.directory / SPILL_MANIFEST_FILENAME
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        self._finalized = SpilledDataset(self.directory)
        return self._finalized


def _load_manifest(directory: Path) -> Dict[str, Any]:
    path = directory / SPILL_MANIFEST_FILENAME
    if not path.is_file():
        raise SpillError(f"not a spill directory (no {SPILL_MANIFEST_FILENAME}): {directory}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise SpillError(f"{path}: corrupt spill manifest: {error}") from error
    if manifest.get("format") != SPILL_FORMAT:
        raise SpillError(
            f"{path}: not a telemetry spill (format {manifest.get('format')!r})"
        )
    if manifest.get("version") != SPILL_FORMAT_VERSION:
        raise SpillError(
            f"{path}: spill format version {manifest.get('version')!r} is not "
            f"supported; this build reads version {SPILL_FORMAT_VERSION} only "
            "(docs/TELEMETRY.md, 'Schema + versioning')"
        )
    kinds = manifest.get("kinds")
    if not isinstance(kinds, dict) or set(kinds) != set(SPILL_KINDS):
        raise SpillError(f"{path}: manifest kinds {sorted(kinds or ())} != {sorted(SPILL_KINDS)}")
    for kind, entry in kinds.items():
        declared = [list(pair) for pair in entry.get("dtype", ())]
        if declared != _schema_dtype_descr(kind):
            raise SpillError(
                f"{path}: {kind} dtype {declared} does not match this build's "
                "columnar schema — regenerate the spill "
                "(docs/TELEMETRY.md, 'Schema + versioning')"
            )
    return manifest


def _open_run(directory: Path, kind: str, run: Dict[str, Any]) -> np.ndarray:
    """Memory-map one run file, validating existence, shape, and dtype."""
    path = directory / run["file"]
    if not path.is_file():
        raise SpillError(f"spill run missing: {path}")
    try:
        array = np.load(path, mmap_mode="r", allow_pickle=False)
    except Exception as error:  # truncated header / bad magic / short mmap
        raise SpillError(f"{path}: corrupt spill run: {error}") from error
    if array.dtype != COLUMN_SCHEMAS[kind].dtype:
        raise SpillError(f"{path}: dtype {array.dtype} != schema for {kind}")
    if array.ndim != 1 or len(array) != run["rows"]:
        raise SpillError(
            f"{path}: holds {array.shape} rows, manifest declares {run['rows']} "
            "— file truncated or manifest stale"
        )
    return array


class SpilledDataset:
    """Read facade over one or more spill directories.

    Implements the :class:`Dataset` surface the pipeline relies on —
    per-kind record iteration (as properties, in canonical order),
    ``run_arrays``, ``n_sessions``/``n_chunks``, ``sorted()``,
    ``filter_sessions`` and ``to_dataset()`` — while never holding more
    than one materialized block per run in memory.  The record views
    (``sessions()``, ``iter_sessions()``, ``join_chunks()``) are the
    exception: they materialize the whole spill first.  Construction
    validates the manifest and every run file (header, dtype, row count),
    so corruption surfaces at open time as :class:`SpillError`, not
    mid-analysis.
    """

    def __init__(self, directories: Union[str, Path, Sequence[Union[str, Path]]]) -> None:
        if isinstance(directories, (str, Path)):
            directories = (directories,)
        if not directories:
            raise SpillError("SpilledDataset needs at least one spill directory")
        self._dirs: Tuple[Path, ...] = tuple(Path(d) for d in directories)
        self._manifests = tuple(_load_manifest(d) for d in self._dirs)
        for directory, manifest in zip(self._dirs, self._manifests):
            for kind in SPILL_KINDS:
                for run in manifest["kinds"][kind]["runs"]:
                    _open_run(directory, kind, run)  # validate, then drop the map

    # -- pickling: paths only (workers ship spills through pipes) -----------

    def __reduce__(self):
        return (SpilledDataset, (tuple(str(d) for d in self._dirs),))

    @property
    def directories(self) -> Tuple[Path, ...]:
        return self._dirs

    # -- shape ---------------------------------------------------------------

    def _total_rows(self, kind: str) -> int:
        return sum(m["kinds"][kind]["rows"] for m in self._manifests)

    @property
    def n_sessions(self) -> int:
        return self._total_rows("player_sessions")

    @property
    def n_chunks(self) -> int:
        return self._total_rows("player_chunks")

    # -- per-kind streams (canonical order) ----------------------------------

    def run_arrays(self, kind: str) -> List[np.ndarray]:
        """The kind's sorted run arrays (memory-mapped), in run order.

        Run order is the merge-tie-break order: directories in
        construction order, runs in manifest order within each.  The
        vectorized read path (:mod:`repro.core.columnar_analysis`) slices
        these maps directly instead of materializing record objects.
        """
        return [
            _open_run(directory, kind, run)
            for directory, manifest in zip(self._dirs, self._manifests)
            for run in manifest["kinds"][kind]["runs"]
        ]

    def iter_kind(self, kind: str) -> Iterator[object]:
        """All records of *kind* in canonical order, lazily merged.

        The :data:`~repro.telemetry.columnar.ITER_BLOCK_ROWS`
        materialization budget is divided across the kind's open runs, so
        peak live-object count is bounded per *kind* — independent of how
        many runs (i.e. how many total rows) the spill holds.
        """
        arrays = self.run_arrays(kind)
        if not arrays:
            return iter(())
        if len(arrays) == 1:
            return iter_records(kind, arrays[0])
        block_rows = max(256, ITER_BLOCK_ROWS // len(arrays))
        streams = [iter_records(kind, array, block_rows) for array in arrays]
        return heapq.merge(*streams, key=sort_key(kind))

    @property
    def player_chunks(self) -> Iterator[object]:
        return self.iter_kind("player_chunks")

    @property
    def cdn_chunks(self) -> Iterator[object]:
        return self.iter_kind("cdn_chunks")

    @property
    def tcp_snapshots(self) -> Iterator[object]:
        return self.iter_kind("tcp_snapshots")

    @property
    def player_sessions(self) -> Iterator[object]:
        return self.iter_kind("player_sessions")

    @property
    def cdn_sessions(self) -> Iterator[object]:
        return self.iter_kind("cdn_sessions")

    @property
    def ground_truth(self) -> Iterator[object]:
        return self.iter_kind("ground_truth")

    # -- joining -------------------------------------------------------------

    def sessions(self) -> List[SessionView]:
        """:meth:`Dataset.sessions` of the materialized spill."""
        return self.to_dataset().sessions()

    def iter_sessions(self) -> Iterator[SessionView]:
        return iter(self.sessions())

    def join_chunks(self) -> List[JoinedChunk]:
        """:meth:`Dataset.join_chunks` of the materialized spill."""
        return self.to_dataset().join_chunks()

    # -- combining / conversion ----------------------------------------------

    def sorted(self) -> "SpilledDataset":
        """Already canonical: every stream merges sorted runs stably."""
        return self

    @classmethod
    def merge_all(cls, datasets: Sequence["SpilledDataset"]) -> "SpilledDataset":
        """Lazily combine one period's shard spills into one canonical view.

        No rows are read: the merged facade simply iterates the union of
        the inputs' runs.  Callers pass shards in sorted shard order, the
        same tie-break ``Dataset.merge_all`` uses.
        """
        directories: List[Path] = []
        for dataset in datasets:
            if not isinstance(dataset, SpilledDataset):
                raise SpillError(
                    "cannot lazily merge a spilled shard with an in-memory "
                    f"dataset ({type(dataset).__name__}); enable spilling on "
                    "every shard or on none"
                )
            directories.extend(dataset._dirs)
        return cls(directories)

    def filter_sessions(self, keep_ids) -> Dataset:
        """Materialize only the kept sessions into an in-memory Dataset."""
        return Dataset.collect(self, keep_ids)

    def to_dataset(self) -> Dataset:
        """Fully materialize (tests / small spills only)."""
        return Dataset.collect(self)
