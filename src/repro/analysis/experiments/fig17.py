"""Fig. 17 — case study: a chunk buffered inside the client download stack.

A session whose chunk 7 is held by the stack: its first-byte delay spikes
with no matching spike in SRTT, server latency, or backend latency, and
its instantaneous download throughput exceeds anything the connection's
CWND/SRTT could deliver (Eq. 3).  Eq. 4 flags exactly that chunk.

The session here is built from synthetic telemetry records (a controlled
fixture, like the paper's hand-picked production example), then fed to the
production detector.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...core.downstack import detect_transient_outliers, instantaneous_throughput_kbps
from ...telemetry.dataset import Dataset
from ...telemetry.records import (
    CdnChunkRecord,
    CdnSessionRecord,
    PlayerChunkRecord,
    PlayerSessionRecord,
    TcpInfoRecord,
)
from ...workload.catalog import CHUNK_DURATION_MS
from .base import ExperimentResult

EXPERIMENT_ID = "fig17"
TITLE = "Fig. 17: download-stack buffering case study (Eq. 4 detection)"

SESSION_ID = "fig17-case"


def build_case_dataset(
    n_chunks: int = 22,
    ds_chunk: int = 7,
    held_ms: float = 2500.0,
    seed: int = 1,
):
    """Synthesize the case-study session: stable except one buffered chunk."""
    rng = np.random.default_rng(seed)
    player_session = PlayerSessionRecord(
        session_id=SESSION_ID,
        client_ip="10.1.2.3",
        user_agent="Mozilla/5.0 (Windows NT 10.0) Firefox/Flash",
        video_id=1,
        video_duration_ms=n_chunks * CHUNK_DURATION_MS,
        start_ms=0.0,
        os="Windows",
        browser="Firefox",
    )
    cdn_session = CdnSessionRecord(
        session_id=SESSION_ID,
        client_ip="10.1.2.3",
        user_agent="Mozilla/5.0 (Windows NT 10.0) Firefox/Flash",
        pop_id="pop-chicago",
        server_id="srv-chicago-00",
        org="Comcast",
        conn_type="cable",
        country="US",
        city="Chicago",
        lat=41.88,
        lon=-87.63,
    )
    player_chunks: List[PlayerChunkRecord] = []
    cdn_chunks: List[CdnChunkRecord] = []
    tcp_snapshots: List[TcpInfoRecord] = []
    chunk_bytes = 1_300_000
    t = 0.0
    for index in range(n_chunks):
        srtt = float(rng.normal(60.0, 2.0))
        server = float(rng.normal(2.0, 0.3))
        network_dlb = float(rng.normal(900.0, 50.0))
        if index == ds_chunk:
            dfb = srtt + server + held_ms
            dlb = max(120.0, network_dlb - held_ms)
        else:
            dfb = srtt + server + float(rng.normal(15.0, 3.0))
            dlb = network_dlb
        player_chunks.append(
            PlayerChunkRecord(
                session_id=SESSION_ID,
                chunk_id=index,
                dfb_ms=dfb,
                dlb_ms=dlb,
                bitrate_kbps=1750.0,
                chunk_duration_ms=CHUNK_DURATION_MS,
                rebuffer_count=0,
                rebuffer_ms=0.0,
                visible=True,
                avg_fps=30.0,
                dropped_frames=0,
                total_frames=180,
                request_sent_ms=t,
            )
        )
        cdn_chunks.append(
            CdnChunkRecord(
                session_id=SESSION_ID,
                chunk_id=index,
                d_wait_ms=0.3,
                d_open_ms=0.1,
                d_read_ms=server,
                d_be_ms=0.0,
                cache_status="hit_ram",
                chunk_bytes=chunk_bytes,
                server_id="srv-chicago-00",
                pop_id="pop-chicago",
                served_at_ms=t + srtt / 2,
            )
        )
        tcp_snapshots.append(
            TcpInfoRecord(
                session_id=SESSION_ID,
                chunk_id=index,
                t_ms=t + dfb + dlb,
                cwnd_segments=int(rng.normal(90, 5)),
                srtt_ms=srtt,
                rttvar_ms=4.0,
                retx_total=0,
                mss=1460,
            )
        )
        t += dfb + dlb + 500.0
    return Dataset(
        player_sessions=[player_session],
        cdn_sessions=[cdn_session],
        player_chunks=player_chunks,
        cdn_chunks=cdn_chunks,
        tcp_snapshots=tcp_snapshots,
    )


def run(ds_chunk: int = 7) -> ExperimentResult:
    dataset = build_case_dataset(ds_chunk=ds_chunk)
    session = dataset.sessions()[0]
    flagged = detect_transient_outliers(session)
    flagged_ids = [c.chunk_id for c in flagged]

    dfb_series = [(c.chunk_id, c.player.dfb_ms) for c in session.chunks]
    download_tp = [
        (c.chunk_id, instantaneous_throughput_kbps(c) / 1000.0) for c in session.chunks
    ]
    connection_tp = [
        (c.chunk_id, c.last_tcp.throughput_kbps / 1000.0)
        for c in session.chunks
        if c.last_tcp is not None
    ]
    case = session.chunks[ds_chunk]
    tp_ratio = instantaneous_throughput_kbps(case) / max(
        case.last_tcp.throughput_kbps, 1e-9
    )

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={
            "dfb_ms_by_chunk": dfb_series,
            "download_tp_mbps_by_chunk": download_tp,
            "connection_tp_mbps_by_chunk": connection_tp,
        },
        summary={
            "flagged_chunk": float(flagged_ids[0]) if flagged_ids else -1.0,
            "n_flagged": float(len(flagged_ids)),
            "case_tp_over_connection_tp": tp_ratio,
            "case_dfb_ms": case.player.dfb_ms,
        },
        checks={
            "detector_flags_exactly_one": len(flagged_ids) == 1,
            "detector_flags_the_buffered_chunk": flagged_ids == [ds_chunk],
            "tp_exceeds_connection_capability": tp_ratio > 1.5,
        },
    )
