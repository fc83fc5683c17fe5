"""QoE metrics — §4's outcome variables: startup delay, re-buffering, bitrate.

Prior work ([14, 37] in the paper) established the QoE metrics that matter:
startup delay, re-buffering ratio, average bitrate, and rendering quality.
This module computes them per session and builds the cause→QoE relations of
Figs. 4 and 7 (startup delay vs first-chunk server latency / SRTT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis.stats import BinnedStat, binned_stats
from ..telemetry.dataset import Dataset, SessionView

__all__ = [
    "SessionQoe",
    "session_qoe",
    "startup_vs_first_chunk_server_latency",
    "startup_vs_first_chunk_srtt",
    "summarize",
]


@dataclass(frozen=True)
class SessionQoe:
    """The QoE vector of one session."""

    session_id: str
    startup_ms: Optional[float]
    rebuffer_rate: float
    rebuffer_count: int
    avg_bitrate_kbps: float
    dropped_frame_pct: float
    n_chunks: int


def session_qoe(session: SessionView) -> SessionQoe:
    """Compute the per-session QoE vector."""
    total_frames = sum(c.player.total_frames for c in session.chunks)
    dropped = sum(c.player.dropped_frames for c in session.chunks)
    return SessionQoe(
        session_id=session.session_id,
        startup_ms=session.startup_delay_ms,
        rebuffer_rate=session.rebuffer_rate,
        rebuffer_count=session.total_rebuffer_count,
        avg_bitrate_kbps=session.avg_bitrate_kbps,
        dropped_frame_pct=100.0 * dropped / total_frames if total_frames else 0.0,
        n_chunks=session.n_chunks,
    )


def _first_chunk_relation(
    dataset: Dataset,
    x_of_session,
    bin_edges: Sequence[float],
) -> BinnedStat:
    """Bin per-session startup delay by a first-chunk covariate."""
    xs: List[float] = []
    ys: List[float] = []
    for session in dataset.iter_sessions():
        if not session.chunks or session.chunks[0].chunk_id != 0:
            continue
        startup = session.startup_delay_ms
        if startup is None:
            continue
        x = x_of_session(session)
        if x is None:
            continue
        xs.append(x)
        ys.append(startup)
    return binned_stats(xs, ys, bin_edges, min_count=5)


def startup_vs_first_chunk_server_latency(
    dataset: Dataset,
    bin_edges: Sequence[float] = (0, 25, 50, 100, 150, 200, 300, 400, 600),
) -> BinnedStat:
    """Fig. 4: startup time binned by the first chunk's server latency.

    Server latency is D_CDN + D_BE of chunk 0; startup time is the first
    chunk's full download time (time to play).
    """

    def server_latency(session: SessionView) -> Optional[float]:
        return session.chunks[0].cdn.total_server_ms

    return _first_chunk_relation(dataset, server_latency, bin_edges)


def startup_vs_first_chunk_srtt(
    dataset: Dataset,
    bin_edges: Sequence[float] = (0, 25, 50, 100, 150, 200, 300, 400, 600),
) -> BinnedStat:
    """Fig. 7: startup time binned by the first chunk's SRTT."""

    def first_srtt(session: SessionView) -> Optional[float]:
        samples = session.chunks[0].srtt_samples
        return samples[0] if samples else None

    return _first_chunk_relation(dataset, first_srtt, bin_edges)


def summarize(dataset: Dataset) -> Dict[str, float]:
    """Headline QoE numbers for a dataset (used by examples and reports).

    Computed on whole telemetry columns by the vectorized read path
    (:mod:`~repro.core.columnar_analysis`, docs/PERFORMANCE.md "The read
    path"), for in-memory and spilled datasets alike; folding
    :func:`session_qoe` per session (the ``QoeAccumulator`` of
    ``tests/streaming_oracle.py``) is its reference spelling.  It runs
    the one cascade pass, which also folds localization and the fault
    score and memoizes all three on *dataset*, so whichever of the three
    calls comes first joins the dataset and the others join nothing
    (docs/PERFORMANCE.md "Analyse once").
    """
    from .columnar_analysis import analyze_dataset

    return analyze_dataset(dataset, analyses=("qoe",))["qoe"]
