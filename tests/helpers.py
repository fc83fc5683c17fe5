"""Builders for synthetic telemetry records used across test modules.

A :class:`Dataset` never changes once built, so tests that need a
variation build its records first (:func:`make_records`,
:func:`records_of`), edit the lists, and build a dataset from them.
"""

import dataclasses
import os
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.telemetry.columnar import SPILL_KINDS
from repro.telemetry.dataset import Dataset
from repro.telemetry.records import (
    CdnChunkRecord,
    CdnSessionRecord,
    PlayerChunkRecord,
    PlayerSessionRecord,
    TcpInfoRecord,
)
from repro.telemetry.spill import SpillWriter


def row(record) -> tuple:
    """*record*'s values in its kind's column order: the row the simulator
    emits for it (a kind's columns are its record's fields, in order)."""
    return dataclasses.astuple(record)


def player_chunk(session="s1", chunk=0, **kwargs):
    defaults = dict(
        session_id=session,
        chunk_id=chunk,
        dfb_ms=100.0,
        dlb_ms=900.0,
        bitrate_kbps=1050.0,
        chunk_duration_ms=6000.0,
        rebuffer_count=0,
        rebuffer_ms=0.0,
        visible=True,
        avg_fps=30.0,
        dropped_frames=0,
        total_frames=180,
        request_sent_ms=0.0,
        hw_rendered=False,
    )
    defaults.update(kwargs)
    return PlayerChunkRecord(**defaults)


def cdn_chunk(session="s1", chunk=0, **kwargs):
    defaults = dict(
        session_id=session,
        chunk_id=chunk,
        d_wait_ms=0.3,
        d_open_ms=0.1,
        d_read_ms=1.0,
        d_be_ms=0.0,
        cache_status="hit_ram",
        chunk_bytes=787_500,
        server_id="srv-x-00",
        pop_id="pop-x",
        served_at_ms=30.0,
    )
    defaults.update(kwargs)
    return CdnChunkRecord(**defaults)


def tcp_snap(session="s1", chunk=0, t=500.0, **kwargs):
    defaults = dict(
        session_id=session,
        chunk_id=chunk,
        t_ms=t,
        cwnd_segments=40,
        srtt_ms=60.0,
        rttvar_ms=5.0,
        retx_total=0,
        mss=1460,
    )
    defaults.update(kwargs)
    return TcpInfoRecord(**defaults)


def player_session(session="s1", **kwargs):
    defaults = dict(
        session_id=session,
        client_ip="10.0.0.1",
        user_agent="UA",
        video_id=1,
        video_duration_ms=60_000.0,
        start_ms=0.0,
        os="Windows",
        browser="Chrome",
    )
    defaults.update(kwargs)
    return PlayerSessionRecord(**defaults)


def cdn_session(session="s1", **kwargs):
    defaults = dict(
        session_id=session,
        client_ip="10.0.0.1",
        user_agent="UA",
        pop_id="pop-x",
        server_id="srv-x-00",
        org="Comcast",
        conn_type="cable",
        country="US",
        city="Chicago",
        lat=41.9,
        lon=-87.6,
    )
    defaults.update(kwargs)
    return CdnSessionRecord(**defaults)


def make_records(n_chunks=3) -> Dict[str, list]:
    """One session of *n_chunks* chunks as editable record lists, keyed by
    kind: edit them, then build the dataset with ``Dataset(**records)``."""
    return dict(
        player_chunks=[player_chunk(chunk=i) for i in range(n_chunks)],
        cdn_chunks=[cdn_chunk(chunk=i) for i in range(n_chunks)],
        tcp_snapshots=[tcp_snap(chunk=i, t=500.0 * (i + 1)) for i in range(n_chunks)],
        player_sessions=[player_session()],
        cdn_sessions=[cdn_session()],
        ground_truth=[],
    )


def empty_records() -> Dict[str, list]:
    """An empty editable record list per kind."""
    return {kind: [] for kind in SPILL_KINDS}


def make_dataset(n_chunks=3) -> Dataset:
    return Dataset(**make_records(n_chunks))


def records_of(dataset) -> Dict[str, list]:
    """*dataset*'s records as editable lists keyed by kind, in canonical order."""
    return {kind: list(getattr(dataset, kind)) for kind in SPILL_KINDS}


def shuffled_spill(dataset, directory, threshold_rows=64, seed=0):
    """*dataset* spilled from a seeded shuffle of each kind's rows, so
    its sorted runs interleave and a session's rows span runs."""
    writer = SpillWriter(directory, threshold_rows=threshold_rows)
    rng = np.random.default_rng(seed)
    for kind in SPILL_KINDS:
        for array in dataset.run_arrays(kind):
            shuffled = array[rng.permutation(len(array))]
            for start in range(0, len(shuffled), 16):
                writer.add_array(kind, shuffled[start : start + 16])
    return writer.finalize()


#: this process's memory mappings, each with its resident size (Linux)
SMAPS = Path("/proc/self/smaps")

#: marks a test that reads :data:`SMAPS`; it skips where the file is missing
needs_smaps = pytest.mark.skipif(
    not SMAPS.is_file(), reason="reads /proc/self/smaps, which this platform lacks"
)


def resident_kib(directory) -> int:
    """Resident KiB of this process's mappings of files under *directory*
    (a spill's memory-mapped runs): the ``Rss`` of each such mapping in
    :data:`SMAPS`."""
    prefix = os.path.join(os.path.realpath(directory), "")
    total = 0
    counting = False
    with SMAPS.open() as handle:
        for line in handle:
            fields = line.split(maxsplit=5)
            if fields[0].endswith(":"):  # one value of the current mapping
                if counting and fields[0] == "Rss:":
                    total += int(fields[1])
            else:  # a mapping: address range, perms, offset, device, inode, path
                counting = len(fields) == 6 and fields[5].rstrip("\n").startswith(prefix)
    return total
