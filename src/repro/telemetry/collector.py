"""Telemetry collector: where both sides' instrumentation lands.

The simulator's player and CDN emit records into one collector (in
production these are separate beacon/log pipelines joined offline; the
collector models the post-ingestion state).  It also implements the §2.1
sampling discipline for ``tcp_info``: snapshots arrive on a 500 ms grid
during transfers, and the collector guarantees at least one snapshot per
chunk by accepting a forced end-of-chunk sample.

Every record takes one buffered path: per kind, every
``spill_threshold_rows`` records are encoded into a sorted columnar run
(:class:`~repro.telemetry.spill.SpillWriter`).  The memory mode
(docs/TELEMETRY.md) is where runs live: in RAM by default, merged into
one canonical :class:`Dataset` by :meth:`dataset`; on disk with
``spill_dir`` set, read through the
:class:`~repro.telemetry.spill.SpilledDataset` facade.  The records are
identical either way, and canonical: emission order is visible only here.

``discard=True`` drops every record on arrival — the warmup period's
collector, whose telemetry was always thrown away after the fact, now
never holds it at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from .dataset import Dataset
from .records import (
    CdnChunkRecord,
    CdnSessionRecord,
    ChunkGroundTruth,
    PlayerChunkRecord,
    PlayerSessionRecord,
    TcpInfoRecord,
)
from .spill import DEFAULT_SPILL_THRESHOLD_ROWS, SpilledDataset, SpillWriter

__all__ = ["TelemetryCollector"]


@dataclass
class TelemetryCollector:
    """Accumulates records during a simulation run."""

    #: when False, ground truth is not recorded (blind dataset)
    record_ground_truth: bool = True
    #: spill mode: directory for sorted columnar runs (None = in-memory)
    spill_dir: Optional[Union[str, Path]] = None
    #: rows buffered per record kind before a sorted run is made
    spill_threshold_rows: int = DEFAULT_SPILL_THRESHOLD_ROWS
    #: drop every record on arrival (warmup periods: telemetry is never read)
    discard: bool = False
    #: optional MetricsRegistry for the telemetry.* execution counters
    metrics: Optional[Any] = None

    def __post_init__(self) -> None:
        self._writer = SpillWriter(
            None if self.discard else self.spill_dir,
            threshold_rows=self.spill_threshold_rows,
            metrics=self.metrics,
        )

    def add_player_chunk(self, record: PlayerChunkRecord) -> None:
        if not self.discard:
            self._writer.add("player_chunks", record)

    def add_cdn_chunk(self, record: CdnChunkRecord) -> None:
        if not self.discard:
            self._writer.add("cdn_chunks", record)

    def add_tcp_snapshot(self, record: TcpInfoRecord) -> None:
        if not self.discard:
            self._writer.add("tcp_snapshots", record)

    def add_tcp_snapshots(self, records: Sequence[TcpInfoRecord]) -> None:
        """Append one chunk's snapshot block in a single call.

        The 500 ms tcp_info grid makes snapshots the highest-volume kind
        by far; the block append costs one buffer extend and one threshold
        check instead of a Python call per record.
        """
        if not self.discard:
            self._writer.add_many("tcp_snapshots", records)

    def add_player_session(self, record: PlayerSessionRecord) -> None:
        if not self.discard:
            self._writer.add("player_sessions", record)

    def add_cdn_session(self, record: CdnSessionRecord) -> None:
        if not self.discard:
            self._writer.add("cdn_sessions", record)

    def add_ground_truth(self, record: ChunkGroundTruth) -> None:
        if not self.discard and self.record_ground_truth:
            self._writer.add("ground_truth", record)

    def dataset(self) -> Union[Dataset, SpilledDataset]:
        """Seal the collected records into the period's dataset.

        In-memory mode returns the canonical :class:`Dataset` of the kept
        runs; spill mode flushes the tails and the versioned manifest and
        returns the :class:`SpilledDataset` facade over the same records.
        Records added after this call belong to no dataset.
        """
        return self._writer.finalize()
