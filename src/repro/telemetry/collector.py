"""Telemetry collector: where both sides' instrumentation lands.

The simulator's player and CDN emit records into one collector (in
production these are separate beacon/log pipelines joined offline; the
collector models the post-ingestion state).  It also implements the §2.1
sampling discipline for ``tcp_info``: snapshots arrive on a 500 ms grid
during transfers, and the collector guarantees at least one snapshot per
chunk by accepting a forced end-of-chunk sample.

Records arrive as **rows**: one tuple per record, holding its values in
the kind's column order
(:data:`~repro.telemetry.columnar.COLUMN_SCHEMAS`), one chunk's
snapshots as one list of rows.  No record object is built on the write
path.  Every row takes one buffered path: per kind, every
``spill_threshold_rows`` rows are encoded into a sorted columnar run
(:class:`~repro.telemetry.spill.SpillWriter`).  The memory mode
(docs/TELEMETRY.md) is where runs live: in RAM by default, merged into
one canonical :class:`Dataset` by :meth:`dataset`; on disk with
``spill_dir`` set, opened as a
:class:`~repro.telemetry.spill.SpilledDataset`, the dataset over the
run files.  The records are identical either way, and canonical:
emission order is visible only here.
Record objects enter a dataset through ``Dataset(**records)`` instead.

``discard=True`` drops every row on arrival.  It is the warmup period's
collector, whose telemetry is never read; the session actor sees the
flag and builds no rows for it at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from .dataset import Dataset
from .spill import DEFAULT_SPILL_THRESHOLD_ROWS, SpilledDataset, SpillWriter

__all__ = ["TelemetryCollector"]


@dataclass
class TelemetryCollector:
    """Accumulates one period's rows during a simulation run."""

    #: when False, ground truth is not recorded (blind dataset)
    record_ground_truth: bool = True
    #: spill mode: directory for sorted columnar runs (None = in-memory)
    spill_dir: Optional[Union[str, Path]] = None
    #: rows buffered per record kind before a sorted run is made
    spill_threshold_rows: int = DEFAULT_SPILL_THRESHOLD_ROWS
    #: drop every row on arrival (warmup periods: telemetry is never read)
    discard: bool = False
    #: optional MetricsRegistry for the telemetry.* execution counters
    metrics: Optional[Any] = None

    def __post_init__(self) -> None:
        self._writer = SpillWriter(
            None if self.discard else self.spill_dir,
            threshold_rows=self.spill_threshold_rows,
            metrics=self.metrics,
        )

    def add_player_chunk(self, row: tuple) -> None:
        if not self.discard:
            self._writer.add("player_chunks", row)

    def add_cdn_chunk(self, row: tuple) -> None:
        if not self.discard:
            self._writer.add("cdn_chunks", row)

    def add_tcp_snapshot(self, row: tuple) -> None:
        if not self.discard:
            self._writer.add("tcp_snapshots", row)

    def add_tcp_snapshots(self, rows: Sequence[tuple]) -> None:
        """Append one chunk's snapshot rows in a single call.

        The 500 ms tcp_info grid makes snapshots the highest-volume kind
        by far; the block append costs one buffer extend and one threshold
        check instead of a Python call per row.
        """
        if not self.discard:
            self._writer.add_many("tcp_snapshots", rows)

    def add_player_session(self, row: tuple) -> None:
        if not self.discard:
            self._writer.add("player_sessions", row)

    def add_cdn_session(self, row: tuple) -> None:
        if not self.discard:
            self._writer.add("cdn_sessions", row)

    def add_ground_truth(self, row: tuple) -> None:
        if not self.discard and self.record_ground_truth:
            self._writer.add("ground_truth", row)

    def dataset(self) -> Union[Dataset, SpilledDataset]:
        """Seal the collected rows into the period's dataset.

        In-memory mode returns the canonical :class:`Dataset` of the kept
        runs; spill mode flushes the tails and the versioned manifest and
        returns the :class:`SpilledDataset` over the same records.
        Rows added after this call belong to no dataset.
        """
        return self._writer.finalize()
