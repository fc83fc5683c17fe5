"""Vectorized synthetic telemetry at spill scale (bench + scale tests).

The event-loop simulator is the ground truth for *semantics*, but filling a
million-session spill through it takes hours.  The memory benchmark needs
volume with the right *shape*: schema-valid records, joinable sessions,
plausible value ranges.  This generator produces exactly that, straight in
columnar form — blocks of structured arrays fed to
:meth:`~repro.telemetry.spill.SpillWriter.add_array`, never a Python record
object — at millions of rows per second.

Determinism and sharding contract (mirrors docs/PARALLEL.md):

* sessions are generated in fixed **blocks** of :data:`BLOCK_SESSIONS`;
  block *b* draws from ``default_rng((seed, b))``, so a block's rows are
  identical no matter which process generates it;
* under sharding, shard *k* of *n* owns blocks ``b % n == k`` and writes
  its own spill directory; the spilled dataset over all shard
  directories (:meth:`~repro.telemetry.spill.SpilledDataset.merge_all`)
  equals the serial (``n_shards=1``) output, because session ids are
  zero-padded monotonic strings and the runs merge in session-id order;
* generation is bounded-memory by construction: one block of columnar
  arrays is alive at a time, and the spill writer flushes sorted runs at
  its usual threshold.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from .columnar import COLUMN_SCHEMAS
from .spill import DEFAULT_SPILL_THRESHOLD_ROWS, SpilledDataset, SpillWriter

__all__ = ["BLOCK_SESSIONS", "synthesize_spill", "synthesize_sharded"]

#: sessions per deterministic generation block (the RNG-stream unit)
BLOCK_SESSIONS = 4096

#: the synthetic deployment: matches the default simulated fleet's scale
_N_SERVERS = 85
_N_POPS = 8
_BITRATE_LADDER = np.array(
    [235.0, 375.0, 560.0, 750.0, 1050.0, 1750.0, 2350.0, 3000.0, 4300.0, 5800.0]
)


def _session_ids(lo: int, hi: int) -> np.ndarray:
    """Zero-padded monotonic ids: lexicographic order == numeric order."""
    return np.char.mod("synth-%010d", np.arange(lo, hi)).astype("S24")


def _block(writer: SpillWriter, rng, lo: int, hi: int, chunks: int, tcp: int) -> None:
    """Generate sessions [lo, hi) as columnar arrays and feed the writer."""
    n = hi - lo
    ids = _session_ids(lo, hi)
    index = np.arange(lo, hi)
    start_ms = index * 50.0
    server_index = index % _N_SERVERS
    pop_index = server_index % _N_POPS
    server_id = np.char.mod("server-%03d", server_index).astype("S32")
    pop_id = np.char.mod("pop-%02d", pop_index).astype("S32")

    sessions = np.zeros(n, dtype=COLUMN_SCHEMAS["player_sessions"].dtype)
    sessions["session_id"] = ids
    sessions["client_ip"] = np.char.mod("10.%d.0.1", pop_index).astype("S48")
    sessions["user_agent"] = b"synthbench/1.0"
    sessions["video_id"] = rng.integers(0, 150, size=n)
    sessions["video_duration_ms"] = 120_000.0
    sessions["start_ms"] = start_ms
    sessions["os"] = b"linux"
    sessions["browser"] = b"synth"
    writer.add_array("player_sessions", sessions)

    cdn = np.zeros(n, dtype=COLUMN_SCHEMAS["cdn_sessions"].dtype)
    cdn["session_id"] = ids
    cdn["client_ip"] = sessions["client_ip"]
    cdn["user_agent"] = sessions["user_agent"]
    cdn["pop_id"] = pop_id
    cdn["server_id"] = server_id
    cdn["org"] = b"synth-isp"
    cdn["conn_type"] = b"cable"
    cdn["country"] = b"US"
    cdn["city"] = b"synthville"
    cdn["lat"] = 40.0
    cdn["lon"] = -74.0
    writer.add_array("cdn_sessions", cdn)

    rows = n * chunks
    chunk_sids = np.repeat(ids, chunks)
    chunk_ids = np.tile(np.arange(chunks), n)
    request_ms = np.repeat(start_ms, chunks) + chunk_ids * 4000.0
    srtt = rng.lognormal(mean=3.6, sigma=0.5, size=rows)  # ~35 ms median
    dfb = srtt + rng.lognormal(mean=2.8, sigma=0.6, size=rows)
    dlb = dfb + rng.lognormal(mean=5.5, sigma=0.5, size=rows)

    player = np.zeros(rows, dtype=COLUMN_SCHEMAS["player_chunks"].dtype)
    player["session_id"] = chunk_sids
    player["chunk_id"] = chunk_ids
    player["dfb_ms"] = dfb
    player["dlb_ms"] = dlb
    player["bitrate_kbps"] = rng.choice(_BITRATE_LADDER, size=rows)
    player["chunk_duration_ms"] = 4000.0
    rebuffered = rng.random(rows) < 0.02
    player["rebuffer_count"] = rebuffered.astype(np.int64)
    player["rebuffer_ms"] = np.where(rebuffered, rng.uniform(50.0, 900.0, rows), 0.0)
    player["visible"] = True
    player["avg_fps"] = 23.97
    player["total_frames"] = 96
    player["dropped_frames"] = rng.binomial(96, 0.002, size=rows)
    player["request_sent_ms"] = request_ms
    player["hw_rendered"] = True
    writer.add_array("player_chunks", player)

    served = np.zeros(rows, dtype=COLUMN_SCHEMAS["cdn_chunks"].dtype)
    served["session_id"] = chunk_sids
    served["chunk_id"] = chunk_ids
    hit = rng.random(rows)
    served["cache_status"] = np.select(
        [hit < 0.80, hit < 0.92], [b"hit_mem", b"hit_disk"], default=b"miss"
    )
    served["d_wait_ms"] = rng.uniform(0.0, 2.0, rows)
    served["d_open_ms"] = np.where(served["cache_status"] == b"hit_mem", 0.2, 6.0)
    served["d_read_ms"] = rng.uniform(0.5, 14.0, rows)
    served["d_be_ms"] = np.where(
        served["cache_status"] == b"miss", rng.uniform(40.0, 140.0, rows), 0.0
    )
    served["chunk_bytes"] = (player["bitrate_kbps"] * 500.0).astype(np.int64)
    served["server_id"] = np.repeat(server_id, chunks)
    served["pop_id"] = np.repeat(pop_id, chunks)
    served["served_at_ms"] = request_ms + dfb
    writer.add_array("cdn_chunks", served)

    tcp_rows = rows * tcp
    snapshots = np.zeros(tcp_rows, dtype=COLUMN_SCHEMAS["tcp_snapshots"].dtype)
    snapshots["session_id"] = np.repeat(chunk_sids, tcp)
    snapshots["chunk_id"] = np.repeat(chunk_ids, tcp)
    snapshots["t_ms"] = np.repeat(request_ms, tcp) + np.tile(
        np.arange(1, tcp + 1) * 500.0, rows
    )
    snapshots["cwnd_segments"] = rng.integers(10, 80, size=tcp_rows)
    snapshots["srtt_ms"] = np.repeat(srtt, tcp)
    snapshots["rttvar_ms"] = np.repeat(srtt, tcp) / 4.0
    snapshots["retx_total"] = rng.binomial(40, 0.01, size=tcp_rows)
    snapshots["mss"] = 1460
    snapshots["rto_ms"] = np.maximum(200.0, np.repeat(srtt, tcp) * 3.0)
    writer.add_array("tcp_snapshots", snapshots)

    truth = np.zeros(rows, dtype=COLUMN_SCHEMAS["ground_truth"].dtype)
    truth["session_id"] = chunk_sids
    truth["chunk_id"] = chunk_ids
    truth["true_dds_ms"] = rng.uniform(0.0, 3.0, rows)
    truth["true_rtt0_ms"] = srtt
    truth["transient_ds"] = False
    truth["segments_sent"] = served["chunk_bytes"] // 1460 + 1
    truth["segments_retx"] = np.minimum(
        truth["segments_sent"], rng.binomial(5, 0.02, size=rows)
    )
    truth["true_drop_fraction"] = truth["segments_retx"] / truth["segments_sent"]
    truth["network_dlb_ms"] = dlb - rng.uniform(0.0, 5.0, rows)
    truth["fault_labels"] = b""
    writer.add_array("ground_truth", truth)


def synthesize_spill(
    directory: Union[str, Path],
    n_sessions: int,
    *,
    seed: int = 0,
    chunks_per_session: int = 4,
    tcp_per_chunk: int = 2,
    threshold_rows: int = DEFAULT_SPILL_THRESHOLD_ROWS,
    n_shards: int = 1,
    shard_index: int = 0,
    metrics: Optional[Any] = None,
) -> SpilledDataset:
    """Fill *directory* with a synthetic spill of *n_sessions* sessions.

    With ``n_shards > 1`` only this shard's blocks are generated (see the
    module docstring for the ownership rule); run every shard and merge
    with :meth:`SpilledDataset.merge_all` — or call
    :func:`synthesize_sharded`, which does both.
    """
    if n_sessions <= 0:
        raise ValueError("n_sessions must be positive")
    if not 0 <= shard_index < n_shards:
        raise ValueError("shard_index must be within [0, n_shards)")
    writer = SpillWriter(directory, threshold_rows=threshold_rows, metrics=metrics)
    n_blocks = -(-n_sessions // BLOCK_SESSIONS)
    for block in range(n_blocks):
        if block % n_shards != shard_index:
            continue
        rng = np.random.default_rng((seed, block))
        lo = block * BLOCK_SESSIONS
        hi = min(n_sessions, lo + BLOCK_SESSIONS)
        _block(writer, rng, lo, hi, chunks_per_session, tcp_per_chunk)
    return writer.finalize()


def synthesize_sharded(
    directory: Union[str, Path], n_sessions: int, n_shards: int, **kwargs
) -> SpilledDataset:
    """Generate shard spills under ``<directory>/shard-<k>`` and merge them.

    The merged spill equals ``synthesize_spill(dir, n_sessions)`` — the
    shard-identity property the scale tests assert.
    """
    shards = [
        synthesize_spill(
            Path(directory) / f"shard-{k:02d}",
            n_sessions,
            n_shards=n_shards,
            shard_index=k,
            **kwargs,
        )
        for k in range(n_shards)
    ]
    return SpilledDataset.merge_all(shards)
