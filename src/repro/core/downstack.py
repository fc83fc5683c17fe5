"""Download-stack diagnosis — Eq. 4 outlier detection and the Eq. 5 bound.

§4.3's two detectors, implemented exactly as published:

**Transient buffering (Eq. 4).**  Within a session, a chunk buffered by the
download stack shows an abnormally high first-byte delay *and* an
abnormally high instantaneous throughput, while the network and server
metrics for that chunk are unremarkable::

    D_FB_i   > mu(D_FB)    + 2 sigma(D_FB)
    TPinst_i > mu(TPinst)  + 2 sigma(TPinst)
    SRTT_i, D_server_i, CWND_i < mu + sigma

**Persistent download-stack latency (Eq. 5).**  Using the kernel's
retransmission timeout as a conservative overestimate of rtt0
(RTO = 200 ms + srtt + 4·srttvar, the paper's footnote 5)::

    D_DS >= D_FB − D_CDN − D_BE − RTO

A positive bound proves the stack added latency; aggregating the bound by
(OS, browser) reproduces Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry.dataset import Dataset, JoinedChunk, SessionView

__all__ = [
    "instantaneous_throughput_kbps",
    "detect_transient_outliers",
    "detect_transient_outliers_dataset",
    "transient_signature",
    "chunk_rto_ms",
    "persistent_ds_bound_ms",
    "platform_ds_table",
    "PlatformDsRow",
]

#: Linux's minimum-RTO contribution used in the paper's footnote-5 formula.
RTO_FLOOR_MS = 200.0
#: Eq. 4 needs at least this many TCP-qualified chunks per session: its
#: statistics are within-session, so short sessions carry no signal
MIN_EQ4_CHUNKS = 5
#: TP_inst above this multiple of the Eq. 3 connection throughput is the
#: per-chunk transient-burst signature
TP_BURST_FACTOR = 2.5


def instantaneous_throughput_kbps(chunk: JoinedChunk) -> float:
    """TP_inst: chunk bytes over last-byte delay, as seen by the player."""
    if chunk.player.dlb_ms <= 0:
        return float("inf")
    return chunk.cdn.chunk_bytes * 8.0 / chunk.player.dlb_ms  # bits/ms == kbps


def _chunk_features(chunk: JoinedChunk) -> Optional[Tuple[float, float, float, float, float]]:
    """(D_FB, TP_inst, SRTT, D_server, CWND), or None without TCP data or
    without a positive last-byte delay (no rate to compare)."""
    last = chunk.last_tcp
    if last is None or last.srtt_ms <= 0 or chunk.player.dlb_ms <= 0:
        return None
    return (
        chunk.player.dfb_ms,
        instantaneous_throughput_kbps(chunk),
        last.srtt_ms,
        chunk.cdn.total_server_ms,
        float(last.cwnd_segments),
    )


def detect_transient_outliers(
    session: SessionView, min_chunks: int = MIN_EQ4_CHUNKS
) -> List[JoinedChunk]:
    """Eq. 4 within one session: chunks buffered by the download stack.

    Requires at least *min_chunks* chunks with TCP data and a positive
    D_LB — the statistics are within-session, so short sessions carry no
    signal.  A chunk with D_LB <= 0 has no instantaneous throughput, so it
    is no Eq. 4 row; :func:`transient_signature` still sees it.
    """
    rows: List[Tuple[JoinedChunk, Tuple[float, float, float, float, float]]] = []
    for chunk in session.chunks:
        features = _chunk_features(chunk)
        if features is not None:
            rows.append((chunk, features))
    if len(rows) < min_chunks:
        return []
    matrix = np.asarray([features for _, features in rows])
    mu = matrix.mean(axis=0)
    sigma = matrix.std(axis=0)

    flagged: List[JoinedChunk] = []
    for (chunk, _), row in zip(rows, matrix):
        dfb, tp_inst, srtt, d_server, cwnd = row
        high_dfb = dfb > mu[0] + 2.0 * sigma[0] and sigma[0] > 0
        high_tp = tp_inst > mu[1] + 2.0 * sigma[1] and sigma[1] > 0
        normal_net = (
            srtt < mu[2] + sigma[2]
            and d_server < mu[3] + sigma[3]
            and cwnd < mu[4] + sigma[4]
        )
        if high_dfb and high_tp and normal_net:
            flagged.append(chunk)
    return flagged


def detect_transient_outliers_dataset(
    dataset: Dataset, min_chunks: int = MIN_EQ4_CHUNKS
) -> Dict[str, List[JoinedChunk]]:
    """Run Eq. 4 over every session; returns {session_id: flagged chunks}."""
    result: Dict[str, List[JoinedChunk]] = {}
    for session in dataset.sessions():
        flagged = detect_transient_outliers(session, min_chunks=min_chunks)
        if flagged:
            result[session.session_id] = flagged
    return result


def transient_signature(chunk: JoinedChunk, tp_factor: float = TP_BURST_FACTOR) -> bool:
    """Per-chunk transient-burst signature (no session statistics needed).

    A chunk delivered as a download-stack burst shows an instantaneous
    throughput that the connection could not have achieved: TP_inst far
    above the Eq. 3 estimate MSS·CWND/SRTT (the paper's Fig. 17(b)
    rationale).  Works even in sessions too short for Eq. 4.
    """
    last = chunk.last_tcp
    if last is None or last.srtt_ms <= 0:
        return False
    connection_tp = last.throughput_kbps
    if connection_tp <= 0:
        return False
    return instantaneous_throughput_kbps(chunk) > tp_factor * connection_tp


def chunk_rto_ms(chunk: JoinedChunk) -> Optional[float]:
    """The kernel's RTO for the chunk (footnote 5): 200 + srtt + 4*srttvar.

    Taken as the *maximum* over the chunk's snapshots: RTO must remain a
    conservative overestimate of rtt0 even when the request round landed
    in a transient latency spike that had decayed by the last snapshot —
    otherwise Eq. 5 produces spurious positive download-stack bounds.
    """
    candidates = [
        RTO_FLOOR_MS + snap.srtt_ms + 4.0 * snap.rttvar_ms
        for snap in chunk.tcp
        if snap.srtt_ms > 0
    ]
    if not candidates:
        return None
    return max(candidates)


def persistent_ds_bound_ms(chunk: JoinedChunk) -> Optional[float]:
    """Eq. 5: conservative lower bound on the chunk's download-stack latency.

    Returns None when no TCP data exists; returns 0.0 when the bound is
    non-positive (no provable stack latency).
    """
    rto = chunk_rto_ms(chunk)
    if rto is None:
        return None
    bound = chunk.player.dfb_ms - chunk.cdn.d_cdn_ms - chunk.cdn.d_be_ms - rto
    return max(bound, 0.0)


@dataclass(frozen=True)
class PlatformDsRow:
    """One row of the Table 5 reproduction.

    ``mean_ds_ms`` is the paper's presentation: the mean bound among
    chunks with a *non-zero* bound.  ``expected_ds_ms`` is the
    unconditional per-chunk burden (mean over all chunks) — more robust
    for cross-platform comparisons when a platform's non-zero tail is
    tiny and outlier-dominated.
    """

    os: str
    browser: str
    mean_ds_ms: float
    n_chunks: int
    nonzero_fraction: float

    @property
    def expected_ds_ms(self) -> float:
        return self.mean_ds_ms * self.nonzero_fraction


def platform_ds_table(
    dataset: Dataset,
    min_chunks: int = 50,
    skip_first_chunk: bool = True,
    exclude_transients: bool = True,
    transient_tp_factor: float = 1.6,
) -> List[PlatformDsRow]:
    """Mean positive Eq. 5 bound per (OS, browser), sorted worst-first.

    Reproduces Table 5: platforms whose download stacks add the most
    *persistent* latency.  Two exclusions keep the estimate clean:

    * first chunks (their event-registration setup cost, §4.3-3, hits
      every platform alike and would mask per-platform differences);
    * chunks flagged by the Eq. 4 transient detector (one multi-second
      buffering burst would dominate a well-behaved platform's mean), plus
      the per-chunk TP-signature with an aggressive threshold
      (*transient_tp_factor*) — over-excluding a few legitimate chunks
      only costs samples here, while missed bursts corrupt the mean.
    """
    flagged: set = set()
    if exclude_transients:
        for session_id, chunks in detect_transient_outliers_dataset(dataset).items():
            flagged.update((session_id, c.chunk_id) for c in chunks)

    by_platform: Dict[Tuple[str, str], List[float]] = {}
    platform_of = {
        s.session_id: (s.os, s.browser) for s in dataset.player_sessions
    }
    for chunk in dataset.join_chunks():
        if skip_first_chunk and chunk.chunk_id == 0:
            continue
        if (chunk.session_id, chunk.chunk_id) in flagged:
            continue
        if exclude_transients and transient_signature(chunk, tp_factor=transient_tp_factor):
            continue
        platform = platform_of.get(chunk.session_id)
        if platform is None:
            continue
        bound = persistent_ds_bound_ms(chunk)
        if bound is None:
            continue
        by_platform.setdefault(platform, []).append(bound)

    rows: List[PlatformDsRow] = []
    for (os_name, browser), bounds in by_platform.items():
        if len(bounds) < min_chunks:
            continue
        positive = [b for b in bounds if b > 0]
        rows.append(
            PlatformDsRow(
                os=os_name,
                browser=browser,
                mean_ds_ms=float(np.mean(positive)) if positive else 0.0,
                n_chunks=len(bounds),
                nonzero_fraction=len(positive) / len(bounds),
            )
        )
    rows.sort(key=lambda r: r.mean_ds_ms, reverse=True)
    return rows
