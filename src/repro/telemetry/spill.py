"""Sorted columnar runs, kept in RAM or spilled to disk, and the spill reader.

Rows buffer per kind, and every ``threshold_rows`` rows become a
**sorted run** (:mod:`repro.telemetry.columnar`).  In memory the runs
merge into a :class:`~repro.telemetry.dataset.Dataset` at period end; at
million-session scale each run is flushed to disk as one ``.npy`` file,
described by a versioned ``spill.json`` manifest: format version,
per-kind dtype, and the ordered run list (docs/TELEMETRY.md, "Spill-file
format").

:class:`SpilledDataset` is the read side: a
:class:`~repro.telemetry.dataset.Dataset` whose runs are the spill's run
files, validated and memory-mapped once, at open.  Everything a dataset
does it inherits: the runs are read in run order (runs are stable-sorted
at flush time and flushed in emission order, so merging them in run
order yields a ``Dataset``'s canonical order), record views decode the
whole kind, and :meth:`~repro.telemetry.dataset.Dataset.filter_sessions`
builds an in-memory ``Dataset``.  It adds what the disk format needs:
pickles carry directory paths only, which is how shard workers ship a
million-session result through a multiprocessing pipe, and
:meth:`SpilledDataset.merge_all` combines one period's shard spill
directories without reading a row.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .columnar import COLUMN_SCHEMAS, SPILL_KINDS, concat_rows, rows_to_array, sort_array
from .dataset import Dataset

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
    """Accumulates rows and flushes sorted columnar runs.

    One writer per collection period per process.  ``add`` and
    ``add_many`` buffer rows — tuples of one record's values in the
    kind's column order (:data:`~repro.telemetry.columnar.COLUMN_SCHEMAS`),
    as the simulator emits them; ``add_array`` takes an already-columnar
    block (the synthetic generator's path).  Every ``threshold_rows``
    rows of a kind become one sorted run, encoded by
    :func:`~repro.telemetry.columnar.rows_to_array`: a row of the wrong
    width raises ``ValueError`` and a string wider than its column
    :class:`~repro.telemetry.columnar.ColumnOverflowError` there, when
    the run is made, not when the row is added.  With a
    *directory*, runs go to disk and ``finalize`` flushes the tails,
    writes the manifest, and returns the :class:`SpilledDataset` over it;
    the directory must not already contain a spill — a writer never
    silently overwrites telemetry.  With ``directory=None``, runs stay in
    RAM and ``finalize`` returns the :class:`Dataset` they merge into.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]],
        threshold_rows: int = DEFAULT_SPILL_THRESHOLD_ROWS,
        metrics: Optional[Any] = None,
    ) -> None:
        if threshold_rows <= 0:
            raise ValueError("threshold_rows must be positive")
        self.directory = None if directory is None else Path(directory)
        if self.directory is not None:
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
        #: memory mode: each kind's sorted runs, in flush order
        self._kept: Dict[str, List[np.ndarray]] = {kind: [] for kind in SPILL_KINDS}
        self._runs: Dict[str, List[Dict[str, int]]] = {kind: [] for kind in SPILL_KINDS}
        self._rows: Dict[str, int] = {kind: 0 for kind in SPILL_KINDS}
        self._finalized: Optional[Union[Dataset, SpilledDataset]] = None
        # execution-scope observability (docs/TELEMETRY.md): counter
        # handles are bound once, here, and never read on the hot path
        if metrics is not None and self.directory is not None:
            self._runs_counter = metrics.counter("telemetry.spill.runs_total")
            self._rows_counter = metrics.counter("telemetry.spill.rows_total")
            self._bytes_counter = metrics.counter("telemetry.spill.bytes_total")
        else:
            self._runs_counter = self._rows_counter = self._bytes_counter = None

    def add(self, kind: str, row: tuple) -> None:
        """Buffer one row of *kind*."""
        buffer = self._buffers[kind]
        buffer.append(row)
        if len(buffer) + self._pending_rows[kind] >= self.threshold_rows:
            self._flush(kind)

    def add_many(self, kind: str, rows: Sequence[tuple]) -> None:
        """Buffer a block of rows in one call (one extend, one threshold
        check) — the per-chunk emission path's batch entry."""
        if not rows:
            return
        buffer = self._buffers[kind]
        buffer.extend(rows)
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
        """Make one sorted run of everything buffered for *kind*: keep it
        in RAM, or write it to disk."""
        blocks = list(self._pending[kind])
        if self._buffers[kind]:
            blocks.append(rows_to_array(kind, self._buffers[kind]))
        self._buffers[kind].clear()
        self._pending[kind].clear()
        self._pending_rows[kind] = 0
        if not blocks:
            return
        run = sort_array(kind, concat_rows(blocks) if len(blocks) > 1 else blocks[0])
        if self.directory is None:
            self._kept[kind].append(run)
            return
        sequence = len(self._runs[kind])
        filename = f"{kind}-{sequence:05d}.npy"
        np.save(self.directory / filename, run)
        self._runs[kind].append({"file": filename, "rows": int(len(run))})
        self._rows[kind] += len(run)
        if self._runs_counter is not None:
            self._runs_counter.inc(1)
            self._rows_counter.inc(len(run))
            self._bytes_counter.inc((self.directory / filename).stat().st_size)

    def finalize(self) -> Union[Dataset, "SpilledDataset"]:
        """Flush the tails and return the period's dataset (idempotent).

        Memory mode merges the kept runs into a :class:`Dataset`; spill
        mode writes ``spill.json`` and opens the spill.
        """
        if self._finalized is not None:
            return self._finalized
        for kind in SPILL_KINDS:
            self._flush(kind)
        if self.directory is None:
            self._finalized = Dataset.from_runs(self._kept)
            for runs in self._kept.values():
                runs.clear()
            return self._finalized
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


class SpilledDataset(Dataset):
    """A :class:`Dataset` over one or more spill directories.

    Its runs are the run files, in run order: directories in the order
    given, runs in manifest order within each.  Construction validates
    every manifest, then memory-maps and validates every run file once
    (header, dtype, row count), so corruption surfaces at open time as
    :class:`SpillError`, not mid-analysis; the validated maps are the
    runs every later read uses.
    """

    def __init__(self, directories: Union[str, Path, Sequence[Union[str, Path]]]) -> None:
        if isinstance(directories, (str, Path)):
            directories = (directories,)
        if not directories:
            raise SpillError("SpilledDataset needs at least one spill directory")
        self._dirs: Tuple[Path, ...] = tuple(Path(d) for d in directories)
        manifests = [_load_manifest(d) for d in self._dirs]
        self._set_runs(
            {
                kind: [
                    _open_run(directory, kind, run)
                    for directory, manifest in zip(self._dirs, manifests)
                    for run in manifest["kinds"][kind]["runs"]
                ]
                for kind in SPILL_KINDS
            }
        )

    def __reduce__(self):
        # pickles carry paths only (workers ship spills through pipes)
        return (SpilledDataset, (tuple(str(d) for d in self._dirs),))

    @property
    def directories(self) -> Tuple[Path, ...]:
        return self._dirs

    @staticmethod
    def merge_all(datasets: Iterable["SpilledDataset"]) -> "SpilledDataset":
        """Combine one period's shard spills into one spilled dataset.

        No row is read: the result opens the union of the inputs'
        directories, in the order given.  Callers pass shards in sorted
        shard order, the same tie-break ``Dataset.merge_all`` uses.
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
        return SpilledDataset(directories)
