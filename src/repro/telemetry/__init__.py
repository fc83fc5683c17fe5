"""Instrumentation records, dataset container, and persistence.

One dataset class over sorted columnar runs (docs/TELEMETRY.md): a
:class:`Dataset` keeps one canonical array per record kind in RAM, and
its subclass :class:`SpilledDataset` memory-maps the run files of a
spill.  Record views of both come from one join,
:meth:`Dataset.sessions`.
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
