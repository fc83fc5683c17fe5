"""Instrumentation records, dataset container, and persistence.

One dataset class over sorted columnar runs (docs/TELEMETRY.md): a
:class:`Dataset` keeps one canonical array per record kind in RAM, and
its subclass :class:`SpilledDataset` memory-maps the run files of a
spill.  Record views of both come from one join,
:meth:`Dataset.sessions`.
"""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".beacons": ("export_beacons_csv", "import_beacons_csv"),
        ".collector": ("TelemetryCollector",),
        ".columnar": ("COLUMN_SCHEMAS", "ColumnOverflowError"),
        ".dataset": ("Dataset", "JoinedChunk", "SessionView"),
        ".io": ("load_dataset", "save_dataset"),
        ".spill": ("SpillError", "SpilledDataset", "SpillWriter"),
        ".synth": ("synthesize_sharded", "synthesize_spill"),
        ".records": (
            "CdnChunkRecord",
            "CdnSessionRecord",
            "ChunkGroundTruth",
            "PlayerChunkRecord",
            "PlayerSessionRecord",
            "TcpInfoRecord",
        ),
    },
)
