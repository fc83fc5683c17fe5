"""Bottleneck localization: *where* is a chunk's problem, per the paper.

The paper's stated purpose is not measuring QoE but *locating* the cause:
"understanding the location and root causes of performance problems
enables content providers to take the right corrective (or even proactive)
actions ... In some cases, knowing the bottleneck can help the content
provider decide not to act" (§1).  This module composes the per-signal
detectors of :mod:`repro.core` into a per-chunk attribution and a
per-session diagnosis — the operator-facing deliverable of the whole
methodology.

Attribution rules (applied in order, mirroring §4's decision logic):

1. **client-download-stack** — the chunk carries the Eq. 4 / TP-signature
   burst fingerprint, or the Eq. 5 bound shows the stack dominating D_FB;
2. **server** — server latency (D_CDN + D_BE) exceeds the network
   baseline (sub-caused as ``miss`` / ``disk`` / ``other``);
3. **network-throughput** — the chunk's Eq. 2 performance score is bad and
   its download time is throughput-dominated;
4. **network-latency** — the score is bad with a latency-dominated split,
   or the baseline RTT alone is tail-grade;
5. **client-rendering** — delivery was fine but frames dropped on a
   visible, well-fed player;
6. **none** — the chunk was healthy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List

from ..telemetry.dataset import Dataset, JoinedChunk, SessionView
from . import downstack, perfscore
from .decomposition import chunk_baseline_rtt
from .rendering_diag import GOOD_RATE

__all__ = [
    "Bottleneck",
    "ChunkAttribution",
    "SessionDiagnosis",
    "attribute_chunk",
    "diagnose_session",
    "diagnose_dataset",
]


class Bottleneck(str, Enum):
    """Where a chunk's performance problem lives."""

    NONE = "none"
    SERVER = "server"
    NETWORK_LATENCY = "network-latency"
    NETWORK_THROUGHPUT = "network-throughput"
    CLIENT_DOWNLOAD_STACK = "client-download-stack"
    CLIENT_RENDERING = "client-rendering"


@dataclass(frozen=True)
class ChunkAttribution:
    """Attribution of one chunk: the verdict plus the evidence behind it."""

    session_id: str
    chunk_id: int
    bottleneck: Bottleneck
    #: sub-cause detail, e.g. "miss"/"disk" for server verdicts
    detail: str
    perf_score: float
    server_ms: float
    baseline_rtt_ms: float
    ds_bound_ms: float
    dropped_fraction: float


#: performance-score threshold below which a chunk is "suffering" (Eq. 2)
BAD_SCORE = 1.0
#: dropped-frame fraction above which rendering is considered degraded
BAD_RENDER_FRACTION = 0.25
#: baseline RTT considered tail-grade (§4.2-1's 100 ms threshold)
TAIL_RTT_MS = 100.0
#: Eq. 5 bound above which a download stack that out-costs the server and
#: the network is the chunk's bottleneck
DS_BOUND_MS = 100.0
#: server latency (D_CDN + D_BE) that is a QoE-relevant problem when it
#: out-costs the network — an ordinary ~15 ms disk read is not
SERVER_BOUND_MS = 40.0
#: Eq. 2 throughput share at or above which a suffering chunk is
#: throughput-bound (latency-bound below it)
THROUGHPUT_SHARE = 0.5


def attribute_chunk(
    chunk: JoinedChunk, transient_flagged: bool = False
) -> ChunkAttribution:
    """Attribute one chunk's problem (or lack of one) to a location.

    *transient_flagged* carries the session-level Eq. 4 verdict for this
    chunk; callers without session context can rely on the per-chunk
    TP-signature alone.
    """
    score = perfscore.perf_score(chunk.player)
    server_ms = chunk.cdn.total_server_ms
    baseline = chunk_baseline_rtt(chunk)
    ds_bound = downstack.persistent_ds_bound_ms(chunk) or 0.0
    drops = chunk.player.dropped_fraction

    def build(bottleneck: Bottleneck, detail: str = "") -> ChunkAttribution:
        return ChunkAttribution(
            session_id=chunk.session_id,
            chunk_id=chunk.chunk_id,
            bottleneck=bottleneck,
            detail=detail,
            perf_score=score,
            server_ms=server_ms,
            baseline_rtt_ms=baseline,
            ds_bound_ms=ds_bound,
            dropped_fraction=drops,
        )

    # 1. download-stack buffering or dominant persistent stack latency
    if transient_flagged or downstack.transient_signature(chunk):
        return build(Bottleneck.CLIENT_DOWNLOAD_STACK, "transient-burst")
    if ds_bound > max(server_ms, baseline) and ds_bound > DS_BOUND_MS:
        detail = "first-chunk-setup" if chunk.chunk_id == 0 else "persistent-stack"
        return build(Bottleneck.CLIENT_DOWNLOAD_STACK, detail)

    # 2. the server out-costs the network (the paper's ~5% of chunks) by a
    #    QoE-relevant amount — an ordinary ~15 ms disk read is not a problem
    if server_ms > baseline and server_ms > SERVER_BOUND_MS:
        if not chunk.cdn.is_hit:
            return build(Bottleneck.SERVER, "miss")
        if chunk.cdn.cache_status == "hit_disk":
            return build(Bottleneck.SERVER, "disk")
        return build(Bottleneck.SERVER, "other")

    # 3/4. a suffering chunk is split by Eq. 2's latency/throughput shares
    if score < BAD_SCORE:
        if perfscore.throughput_share(chunk.player) >= THROUGHPUT_SHARE:
            return build(Bottleneck.NETWORK_THROUGHPUT, "bad-score")
        return build(Bottleneck.NETWORK_LATENCY, "bad-score")
    if baseline > TAIL_RTT_MS and chunk.player.rebuffer_count > 0:
        return build(Bottleneck.NETWORK_LATENCY, "tail-baseline")

    # 5. delivery was fine; did the rendering path drop the ball?
    if (
        chunk.player.visible
        and not chunk.player.hw_rendered
        and drops > BAD_RENDER_FRACTION
        and chunk.player.download_rate >= GOOD_RATE
    ):
        return build(Bottleneck.CLIENT_RENDERING, "software-rendering")

    return build(Bottleneck.NONE)


@dataclass
class SessionDiagnosis:
    """Per-session localization summary."""

    session_id: str
    attributions: List[ChunkAttribution]
    dominant: Bottleneck
    problem_fraction: float

    @property
    def counts(self) -> Dict[Bottleneck, int]:
        return Counter(a.bottleneck for a in self.attributions)


def diagnose_session(session: SessionView) -> SessionDiagnosis:
    """Attribute every chunk of a session and summarize.

    Runs the Eq. 4 detector once over the session so transient verdicts
    use within-session statistics where available.
    """
    flagged_ids = {
        c.chunk_id for c in downstack.detect_transient_outliers(session)
    }
    attributions = [
        attribute_chunk(chunk, transient_flagged=chunk.chunk_id in flagged_ids)
        for chunk in session.chunks
    ]
    problems = [a for a in attributions if a.bottleneck is not Bottleneck.NONE]
    if problems:
        dominant = Counter(a.bottleneck for a in problems).most_common(1)[0][0]
    else:
        dominant = Bottleneck.NONE
    return SessionDiagnosis(
        session_id=session.session_id,
        attributions=attributions,
        dominant=dominant,
        problem_fraction=len(problems) / len(attributions) if attributions else 0.0,
    )


def diagnose_dataset(dataset: Dataset) -> Dict[str, float]:
    """Fleet-level localization: share of chunks per bottleneck location.

    The operator's dashboard number: of all delivered chunks, how many had
    a problem, and where did the problems live?  Computed by the
    vectorized cascade (:mod:`~repro.core.columnar_analysis`,
    docs/PERFORMANCE.md "The read path") that ``repro serve`` also folds
    every round, bit-identical to folding :func:`diagnose_session` over
    every session (the ``LocalizationAccumulator`` of
    ``tests/streaming_oracle.py``); spilled datasets diagnose under a
    flat memory ceiling.  It runs the one cascade pass, which also folds
    QoE and the fault score and memoizes all three on *dataset*, so this
    call, ``summarize`` and ``score_fault_localization`` on one object
    join it once, in any order (docs/PERFORMANCE.md "Analyse once").
    """
    from .columnar_analysis import analyze_dataset

    return analyze_dataset(dataset, analyses=("localization",))["localization"]
