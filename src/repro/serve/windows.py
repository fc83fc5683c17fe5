"""Rolling metric windows for the live service mode.

The paper's operators watch the service in fixed windows, not finished
datasets: rebuffer ratio, join time, and per-server/per-ISP aggregates
per interval, with problems localized as they develop (§1, §4).  This
module folds the joined, diagnosed blocks of the columnar cascade
(:func:`~repro.core.columnar_analysis.iter_joined_blocks`) into tumbling
``window_ms`` buckets keyed by each chunk's request time and **seals**
every bucket that can no longer receive data.

Sealing is exact, not heuristic: a service round drains its event loop
completely, so the round-end clock is ``>=`` every emitted chunk time,
and the next round's first arrival is strictly later.  Every bucket
whose ``end_ms <= clock`` is therefore final — no late data, no
approximate watermarks — which is what makes the ``/windows`` endpoint
byte-stable across identical runs (the determinism contract of
docs/OBSERVABILITY.md extended to a long-lived process).

Sealed documents carry the versioned schema
:data:`WINDOW_SCHEMA` (``repro.serve.window/1``); the field set is the
written contract :data:`WINDOW_DOC_FIELDS` documented in
docs/OBSERVABILITY.md ("Service mode") and kept in sync both ways by
tests/test_docs_contract.py.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from statistics import median
from typing import Any, Deque, Dict, List

from ..core.columnar_analysis import JoinedBlock
from ..core.localization import Bottleneck

__all__ = ["WINDOW_SCHEMA", "WINDOW_DOC_FIELDS", "RollingWindows", "window_json_line"]

WINDOW_SCHEMA = "repro.serve.window/1"

#: Field set of one sealed window document — the written contract
#: (docs/OBSERVABILITY.md "Service mode"; lint in tests/test_docs_contract.py).
WINDOW_DOC_FIELDS = (
    "schema",
    "index",
    "start_ms",
    "end_ms",
    "n_sessions",
    "n_chunks",
    "media_ms",
    "rebuffer_ms",
    "rebuffer_ratio",
    "rebuffer_events",
    "join_count",
    "join_ms_median",
    "bottlenecks",
    "problem_fraction",
    "servers",
    "orgs",
    "fault_labels",
)


class _Bucket:
    """Accumulator state of one not-yet-sealed window."""

    __slots__ = (
        "n_sessions", "n_chunks", "media_ms", "rebuffer_ms",
        "rebuffer_events", "joins", "bottlenecks", "server_chunks",
        "server_problems", "org_chunks", "org_network", "fault_labels",
    )

    def __init__(self) -> None:
        self.n_sessions = 0
        self.n_chunks = 0
        self.media_ms = 0.0
        self.rebuffer_ms = 0.0
        self.rebuffer_events = 0
        self.joins: List[float] = []
        self.bottlenecks: Counter = Counter()
        self.server_chunks: Counter = Counter()
        self.server_problems: Counter = Counter()
        self.org_chunks: Counter = Counter()
        self.org_network: Counter = Counter()
        self.fault_labels: Counter = Counter()


#: a block's verdict codes index the Bottleneck members in enum order
_VERDICTS = tuple(Bottleneck)
_NETWORK_VERDICTS = frozenset(
    {Bottleneck.NETWORK_LATENCY, Bottleneck.NETWORK_THROUGHPUT}
)


class RollingWindows:
    """Tumbling ``window_ms`` buckets over chunk request times.

    ``fold`` charges one joined block's chunks to their windows (plus
    each session and its join time to the window containing the session
    start); ``seal_through`` finalizes every bucket ending at or before
    the supplied clock into an immutable window document.  Sealed
    documents are retained in a bounded deque (``retain``), so a
    run-forever service holds O(retain + open windows) state, never
    O(run duration) — the flat-RSS requirement of the memory-smoke tier.
    """

    def __init__(self, window_ms: float, retain: int = 256) -> None:
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if retain <= 0:
            raise ValueError("retain must be positive")
        self.window_ms = float(window_ms)
        self.retain = int(retain)
        self._buckets: Dict[int, _Bucket] = {}
        self._sealed: Deque[Dict[str, Any]] = deque(maxlen=retain)
        self._sealed_through = -1  # highest sealed window index
        self.n_sealed_total = 0

    def _bucket(self, t_ms: float) -> _Bucket:
        index = int(t_ms // self.window_ms)
        if index <= self._sealed_through:
            raise RuntimeError(
                f"data for sealed window {index} at t={t_ms:.3f} ms — the "
                "round-drain sealing invariant is broken"
            )
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = _Bucket()
        return bucket

    def fold(self, block: JoinedBlock) -> None:
        """Charge one joined block's sessions and chunks to their windows.

        A session counts, with its join time, in the window holding its
        start; a chunk, with its verdict, in the window holding its
        request.  Chunks fold in block order — session, then chunk — so a
        window's float sums add in the order a session-by-session fold
        adds them.
        """
        # join time: the first chunk's download, when that chunk is chunk 0
        chunk_ids = block.chunk_id.tolist()
        download_ms = block.download_ms.tolist()
        for start_ms, first, count in zip(
            block.player_sessions["start_ms"].tolist(),
            block.starts.tolist(),
            block.counts.tolist(),
        ):
            bucket = self._bucket(start_ms)
            bucket.n_sessions += 1
            if count and chunk_ids[first] == 0:
                bucket.joins.append(download_ms[first])
        orgs = [org.decode("utf-8") for org in block.cdn_sessions["org"].tolist()]
        players = block.player_rows
        for t_ms, media_ms, rebuffer_ms, rebuffers, code, server, session, labels in zip(
            players["request_sent_ms"].tolist(),
            block.chunk_duration_ms.tolist(),
            block.rebuffer_ms.tolist(),
            players["rebuffer_count"].tolist(),
            block.verdict.tolist(),
            block.cdn_rows["server_id"].tolist(),
            block.jcode.tolist(),
            block.fault_labels.tolist(),
        ):
            bucket = self._bucket(t_ms)
            bucket.n_chunks += 1
            bucket.media_ms += media_ms
            bucket.rebuffer_ms += rebuffer_ms
            bucket.rebuffer_events += rebuffers
            verdict = _VERDICTS[code]
            bucket.bottlenecks[verdict.value] += 1
            server_id = server.decode("utf-8")
            bucket.server_chunks[server_id] += 1
            if verdict is Bottleneck.SERVER:
                bucket.server_problems[server_id] += 1
            org = orgs[session]
            bucket.org_chunks[org] += 1
            if verdict in _NETWORK_VERDICTS:
                bucket.org_network[org] += 1
            # chunks without ground truth carry empty labels
            for label in labels.decode("utf-8").split(","):
                if label:
                    bucket.fault_labels[label] += 1

    def _seal(self, index: int, bucket: _Bucket) -> Dict[str, Any]:
        problems = sum(
            count
            for verdict, count in bucket.bottlenecks.items()
            if verdict != Bottleneck.NONE.value
        )
        return {
            "schema": WINDOW_SCHEMA,
            "index": index,
            "start_ms": round(index * self.window_ms, 6),
            "end_ms": round((index + 1) * self.window_ms, 6),
            "n_sessions": bucket.n_sessions,
            "n_chunks": bucket.n_chunks,
            "media_ms": round(bucket.media_ms, 6),
            "rebuffer_ms": round(bucket.rebuffer_ms, 6),
            "rebuffer_ratio": (
                round(bucket.rebuffer_ms / bucket.media_ms, 9)
                if bucket.media_ms > 0
                else 0.0
            ),
            "rebuffer_events": bucket.rebuffer_events,
            "join_count": len(bucket.joins),
            "join_ms_median": (
                round(median(bucket.joins), 6) if bucket.joins else None
            ),
            "bottlenecks": {
                verdict.value: bucket.bottlenecks.get(verdict.value, 0)
                for verdict in Bottleneck
            },
            "problem_fraction": (
                round(problems / bucket.n_chunks, 9) if bucket.n_chunks else 0.0
            ),
            "servers": {
                server_id: {
                    "chunks": count,
                    "server_chunks": bucket.server_problems.get(server_id, 0),
                }
                for server_id, count in sorted(bucket.server_chunks.items())
            },
            "orgs": {
                org: {
                    "chunks": count,
                    "network_chunks": bucket.org_network.get(org, 0),
                }
                for org, count in sorted(bucket.org_chunks.items())
            },
            "fault_labels": dict(sorted(bucket.fault_labels.items())),
        }

    def seal_through(self, clock_ms: float) -> List[Dict[str, Any]]:
        """Finalize every window ending at or before *clock_ms*.

        Returns the newly sealed documents in window order.  Empty windows
        (no bucket ever created) are skipped — a gap in traffic is a gap
        in the stream, exactly like a production metrics pipeline.
        """
        limit = int(clock_ms // self.window_ms)  # windows < limit are final
        sealed: List[Dict[str, Any]] = []
        for index in sorted(self._buckets):
            if index >= limit:
                break
            sealed.append(self._seal(index, self._buckets.pop(index)))
        if sealed:
            self._sealed_through = max(self._sealed_through, sealed[-1]["index"])
            self._sealed.extend(sealed)
            self.n_sealed_total += len(sealed)
        return sealed

    @property
    def sealed(self) -> List[Dict[str, Any]]:
        """Retained sealed documents, oldest first."""
        return list(self._sealed)

    @property
    def n_open(self) -> int:
        return len(self._buckets)


def window_json_line(document: Dict[str, Any]) -> str:
    """Canonical one-line serialization (sorted keys) of a window document."""
    return json.dumps(document, sort_keys=True)
