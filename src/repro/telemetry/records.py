"""Instrumentation records — the paper's Tables 2 and 3, as dataclasses.

Two sides emit records independently, exactly as in the paper:

* the **player** beacons per-chunk delivery milestones (D_FB, D_LB, bitrate)
  and rendering/playout stats (rebuffering, visibility, frame rates), plus
  one per-session metadata beacon;
* the **CDN** logs per-chunk serving latency decomposition and cache
  status, per-session connection metadata, and periodic ``tcp_info``
  snapshots from the kernel.

They share only the (session id, chunk id) join keys.  A separate
:class:`ChunkGroundTruth` record carries simulator-only truth (true
download-stack delay, true rtt0, ...) used to *validate* the analysis —
the analysis itself never reads it.

Every field declares its column here (:func:`column`): the numpy dtype
of that field in the kind's structured array.  The field order is the
column order and the order of a row's values, and
:data:`~repro.telemetry.columnar.COLUMN_SCHEMAS`, the spill files, the
JSON-lines files and the CSV beacons all derive their layout from these
declarations (docs/TELEMETRY.md, "Columnar layout").
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, field
from typing import Any

__all__ = [
    "column",
    "PlayerChunkRecord",
    "CdnChunkRecord",
    "TcpInfoRecord",
    "PlayerSessionRecord",
    "CdnSessionRecord",
    "ChunkGroundTruth",
]

if sys.version_info >= (3, 10):
    # ``__slots__`` shrinks each record (no per-instance __dict__) — at
    # hundreds of thousands of records per run the memory and attribute-
    # lookup savings are material.  Semantics (eq/hash/repr/pickle) are
    # unchanged.
    def _record(cls):
        return dataclass(frozen=True, slots=True)(cls)

else:  # Python 3.9: dataclasses grow slots=True only in 3.10
    def _record(cls):
        return dataclass(frozen=True)(cls)


def column(dtype: str, default: Any = MISSING) -> Any:
    """A record field stored in a column of numpy dtype *dtype* (``S24``,
    ``i8``, ``f8``, ``b1``...); *default* as for ``dataclasses.field``."""
    return field(default=default, metadata={"dtype": dtype})


@_record
class PlayerChunkRecord:
    """Player-side per-chunk beacon (Table 2, 'Player' rows)."""

    session_id: str = column("S24")
    chunk_id: int = column("i8")
    dfb_ms: float = column("f8")  # first-byte delay, GET sent -> first byte at player
    dlb_ms: float = column("f8")  # last-byte delay, first byte -> last byte at player
    bitrate_kbps: float = column("f8")
    chunk_duration_ms: float = column("f8")
    rebuffer_count: int = column("i8")  # bufcount: stalls ended by this chunk
    rebuffer_ms: float = column("f8")  # bufdur
    visible: bool = column("b1")  # vis
    avg_fps: float = column("f8")  # avgfr
    dropped_frames: int = column("i8")  # dropfr
    total_frames: int = column("i8")
    request_sent_ms: float = column("f8")  # wall-clock when the GET left the player
    #: whether the chunk was rendered in hardware (GPU) — the player knows
    #: its rendering mode (StageVideo vs software) and Fig. 19's first bar
    #: reports hardware-rendered chunks separately
    hw_rendered: bool = column("b1", default=False)

    @property
    def download_ms(self) -> float:
        """Total time from request to last byte."""
        return self.dfb_ms + self.dlb_ms

    @property
    def download_rate(self) -> float:
        """Seconds of video per second of download (Fig. 19's x-axis)."""
        if self.download_ms <= 0:
            return float("inf")
        return self.chunk_duration_ms / self.download_ms

    @property
    def dropped_fraction(self) -> float:
        if self.total_frames <= 0:
            return 0.0
        return self.dropped_frames / self.total_frames


@_record
class CdnChunkRecord:
    """CDN-side per-chunk log (Table 2, 'CDN (App layer)' row)."""

    session_id: str = column("S24")
    chunk_id: int = column("i8")
    d_wait_ms: float = column("f8")
    d_open_ms: float = column("f8")
    d_read_ms: float = column("f8")
    d_be_ms: float = column("f8")
    cache_status: str = column("S12")  # "hit_ram" | "hit_disk" | "miss"
    chunk_bytes: int = column("i8")
    server_id: str = column("S32")
    pop_id: str = column("S32")
    served_at_ms: float = column("f8")

    @property
    def d_cdn_ms(self) -> float:
        """The paper's D_CDN = D_wait + D_open + D_read."""
        return self.d_wait_ms + self.d_open_ms + self.d_read_ms

    @property
    def total_server_ms(self) -> float:
        """D_CDN + D_BE: full server-side contribution to D_FB."""
        return self.d_cdn_ms + self.d_be_ms

    @property
    def is_hit(self) -> bool:
        return self.cache_status != "miss"


@_record
class TcpInfoRecord:
    """One kernel ``tcp_info`` snapshot (Table 2, 'CDN (TCP layer)' row)."""

    session_id: str = column("S24")
    chunk_id: int = column("i8")
    t_ms: float = column("f8")
    cwnd_segments: int = column("i8")
    srtt_ms: float = column("f8")
    rttvar_ms: float = column("f8")
    retx_total: int = column("i8")  # cumulative retransmissions on the connection
    mss: int = column("i8")
    #: retransmission timeout (paper footnote 5: 200 ms + srtt + 4*rttvar);
    #: defaulted so datasets persisted before the field existed still load
    rto_ms: float = column("f8", default=0.0)

    @property
    def throughput_kbps(self) -> float:
        """Eq. 3: MSS * CWND / SRTT."""
        if self.srtt_ms <= 0:
            return 0.0
        return self.cwnd_segments * self.mss * 8.0 / self.srtt_ms


@_record
class PlayerSessionRecord:
    """Player-side per-session beacon (Table 3, 'Player' row)."""

    session_id: str = column("S24")
    client_ip: str = column("S48")  # the client's own view of its IP
    user_agent: str = column("S128")
    video_id: int = column("i8")
    video_duration_ms: float = column("f8")
    start_ms: float = column("f8")
    os: str = column("S32")
    browser: str = column("S24")


@_record
class CdnSessionRecord:
    """CDN-side per-session log (Table 3, 'CDN' row)."""

    session_id: str = column("S24")
    client_ip: str = column("S48")  # as seen by the CDN (a proxy's IP if proxied)
    user_agent: str = column("S128")
    pop_id: str = column("S32")
    server_id: str = column("S32")
    org: str = column("S64")  # AS / ISP / enterprise organization
    conn_type: str = column("S16")
    country: str = column("S8")
    city: str = column("S40")
    lat: float = column("f8")
    lon: float = column("f8")


@_record
class ChunkGroundTruth:
    """Simulator-only truth per chunk — validation data, never analysis input."""

    session_id: str = column("S24")
    chunk_id: int = column("i8")
    true_dds_ms: float = column("f8")  # actual download-stack latency in D_FB
    true_rtt0_ms: float = column("f8")  # actual network RTT of the request round
    transient_ds: bool = column("b1")  # was this a download-stack buffering burst?
    segments_sent: int = column("i8")
    segments_retx: int = column("i8")
    true_drop_fraction: float = column("f8")
    network_dlb_ms: float = column("f8")  # D_LB before download-stack distortion
    #: injected faults that actually struck this chunk, as a canonical
    #: comma-joined "class:id" string ("" = no fault).  A plain string so
    #: the record JSON-round-trips unchanged (docs/FAULTS.md); parse with
    #: :func:`repro.core.faultscore.parse_fault_labels`.
    fault_labels: str = column("S160", default="")
