"""Instrumentation records, dataset container, and persistence.

Two storage regimes behind one record facade (docs/TELEMETRY.md):
in-memory lists of record objects (:class:`Dataset`) and bounded-memory
columnar spills (:class:`SpilledDataset`).  Record views of both come
from one join, :meth:`Dataset.sessions`; a spill materializes first.
"""

from .beacons import export_beacons_csv, import_beacons_csv
from .collector import TelemetryCollector
from .columnar import COLUMN_SCHEMAS, ColumnOverflowError
from .dataset import Dataset, JoinedChunk, SessionView
from .io import load_dataset, save_dataset
from .spill import SpillError, SpilledDataset, SpillWriter
from .synth import synthesize_sharded, synthesize_spill
from .records import (
    CdnChunkRecord,
    CdnSessionRecord,
    ChunkGroundTruth,
    PlayerChunkRecord,
    PlayerSessionRecord,
    TcpInfoRecord,
)

__all__ = [
    "TelemetryCollector",
    "Dataset",
    "JoinedChunk",
    "SessionView",
    "COLUMN_SCHEMAS",
    "ColumnOverflowError",
    "SpillWriter",
    "SpilledDataset",
    "SpillError",
    "synthesize_spill",
    "synthesize_sharded",
    "load_dataset",
    "save_dataset",
    "export_beacons_csv",
    "import_beacons_csv",
    "PlayerChunkRecord",
    "CdnChunkRecord",
    "TcpInfoRecord",
    "PlayerSessionRecord",
    "CdnSessionRecord",
    "ChunkGroundTruth",
]
