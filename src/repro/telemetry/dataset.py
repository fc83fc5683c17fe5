"""Dataset container and the (session, chunk) join.

"A key to end-to-end analysis is to trace session performance from the
player through the CDN (at the granularity of chunks).  We implement
tracing by using a globally unique session ID and per-session chunk IDs."
(§2.2).  :meth:`Dataset.join_chunks` performs exactly that join, and
:meth:`Dataset.sessions` groups it by session.  They are the one join
that builds record views, in memory and for spills alike
(:class:`~repro.telemetry.spill.SpilledDataset` materializes, then calls
them); the headline analyses run the columnar join of
:mod:`repro.core.columnar_analysis` instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields
from operator import is_
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from .columnar import SPILL_KINDS, records_to_array, sort_array, sort_key
from .records import (
    CdnChunkRecord,
    CdnSessionRecord,
    ChunkGroundTruth,
    PlayerChunkRecord,
    PlayerSessionRecord,
    TcpInfoRecord,
)

__all__ = ["JoinedChunk", "SessionView", "Dataset"]


@dataclass(frozen=True)
class JoinedChunk:
    """One chunk seen from both sides, with its TCP snapshots."""

    player: PlayerChunkRecord
    cdn: CdnChunkRecord
    tcp: Tuple[TcpInfoRecord, ...]
    truth: Optional[ChunkGroundTruth] = None

    @property
    def session_id(self) -> str:
        return self.player.session_id

    @property
    def chunk_id(self) -> int:
        return self.player.chunk_id

    @property
    def srtt_samples(self) -> List[float]:
        """SRTT values of this chunk's snapshots (ms), in time order."""
        return [snap.srtt_ms for snap in self.tcp if snap.srtt_ms > 0]

    @property
    def last_tcp(self) -> Optional[TcpInfoRecord]:
        return self.tcp[-1] if self.tcp else None

    @property
    def first_tcp(self) -> Optional[TcpInfoRecord]:
        return self.tcp[0] if self.tcp else None


@dataclass
class SessionView:
    """All of one session's joined records, chunks in order."""

    session_id: str
    player_session: PlayerSessionRecord
    cdn_session: CdnSessionRecord
    chunks: List[JoinedChunk] = field(default_factory=list)

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    @property
    def avg_bitrate_kbps(self) -> float:
        if not self.chunks:
            return 0.0
        return sum(c.player.bitrate_kbps for c in self.chunks) / len(self.chunks)

    @property
    def total_rebuffer_ms(self) -> float:
        return sum(c.player.rebuffer_ms for c in self.chunks)

    @property
    def total_rebuffer_count(self) -> int:
        return sum(c.player.rebuffer_count for c in self.chunks)

    @property
    def watched_media_ms(self) -> float:
        return sum(c.player.chunk_duration_ms for c in self.chunks)

    @property
    def rebuffer_rate(self) -> float:
        """Re-buffering rate: stall time over watched media time (%-able)."""
        media = self.watched_media_ms
        if media <= 0:
            return 0.0
        return self.total_rebuffer_ms / media

    @property
    def startup_delay_ms(self) -> Optional[float]:
        """Time to play: the first chunk's full download time."""
        if not self.chunks:
            return None
        first = self.chunks[0]
        if first.chunk_id != 0:
            return None
        return first.player.download_ms

    @property
    def session_retx_rate(self) -> float:
        """Retransmission-rate estimate from the TCP counters (§4.2-3).

        Cumulative retransmissions on the connection divided by the
        (estimated) number of data segments: total bytes / MSS.
        """
        last_snapshot: Optional[TcpInfoRecord] = None
        total_bytes = 0
        for chunk in self.chunks:
            total_bytes += chunk.cdn.chunk_bytes
            if chunk.tcp:
                candidate = chunk.tcp[-1]
                if last_snapshot is None or candidate.retx_total >= last_snapshot.retx_total:
                    last_snapshot = candidate
        if last_snapshot is None or total_bytes <= 0:
            return 0.0
        segments = max(1.0, total_bytes / last_snapshot.mss)
        return min(1.0, last_snapshot.retx_total / segments)

    @property
    def had_loss(self) -> bool:
        return self.session_retx_rate > 0.0

    def chunk_retx_counts(self) -> List[Tuple[int, int]]:
        """Per-chunk retransmission deltas [(chunk_id, retx)] from counters."""
        result: List[Tuple[int, int]] = []
        previous = 0
        for chunk in self.chunks:
            last = chunk.last_tcp
            if last is None:
                result.append((chunk.chunk_id, 0))
                continue
            delta = max(0, last.retx_total - previous)
            previous = max(previous, last.retx_total)
            result.append((chunk.chunk_id, delta))
        return result


@dataclass
class Dataset:
    """All telemetry from one simulated collection period."""

    player_chunks: List[PlayerChunkRecord] = field(default_factory=list)
    cdn_chunks: List[CdnChunkRecord] = field(default_factory=list)
    tcp_snapshots: List[TcpInfoRecord] = field(default_factory=list)
    player_sessions: List[PlayerSessionRecord] = field(default_factory=list)
    cdn_sessions: List[CdnSessionRecord] = field(default_factory=list)
    ground_truth: List[ChunkGroundTruth] = field(default_factory=list)

    def __getstate__(self) -> dict:
        # the record lists are the state; everything else on the object
        # is derived data (the column cache of run_arrays, the memo of
        # the columnar analyses) that stays out of pickles (shard workers
        # ship datasets through pipes) and is rebuilt on first use on the
        # receiving side
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- basic shape ---------------------------------------------------------

    @property
    def n_sessions(self) -> int:
        return len(self.player_sessions)

    @property
    def n_chunks(self) -> int:
        return len(self.player_chunks)

    # -- joining -------------------------------------------------------------

    def join_chunks(self) -> List[JoinedChunk]:
        """Join player and CDN chunk records on (session_id, chunk_id).

        Chunks present on only one side (lost beacons) are dropped, as in
        any production join.
        """
        cdn_index: Dict[Tuple[str, int], CdnChunkRecord] = {
            (r.session_id, r.chunk_id): r for r in self.cdn_chunks
        }
        truth_index: Dict[Tuple[str, int], ChunkGroundTruth] = {
            (r.session_id, r.chunk_id): r for r in self.ground_truth
        }
        tcp_index: Dict[Tuple[str, int], List[TcpInfoRecord]] = {}
        for snapshot in self.tcp_snapshots:
            tcp_index.setdefault((snapshot.session_id, snapshot.chunk_id), []).append(snapshot)
        for snapshots in tcp_index.values():
            snapshots.sort(key=lambda s: s.t_ms)

        joined: List[JoinedChunk] = []
        for player in self.player_chunks:
            key = (player.session_id, player.chunk_id)
            cdn = cdn_index.get(key)
            if cdn is None:
                continue
            joined.append(
                JoinedChunk(
                    player=player,
                    cdn=cdn,
                    tcp=tuple(tcp_index.get(key, ())),
                    truth=truth_index.get(key),
                )
            )
        return joined

    def sessions(self) -> List[SessionView]:
        """Group the join by session; sessions missing either side are dropped."""
        cdn_sessions = {r.session_id: r for r in self.cdn_sessions}
        views: Dict[str, SessionView] = {}
        for player_session in self.player_sessions:
            cdn_session = cdn_sessions.get(player_session.session_id)
            if cdn_session is None:
                continue
            views[player_session.session_id] = SessionView(
                session_id=player_session.session_id,
                player_session=player_session,
                cdn_session=cdn_session,
            )
        for chunk in self.join_chunks():
            view = views.get(chunk.session_id)
            if view is not None:
                view.chunks.append(chunk)
        for view in views.values():
            view.chunks.sort(key=lambda c: c.chunk_id)
        return [views[sid] for sid in sorted(views)]

    def iter_sessions(self) -> Iterator[SessionView]:
        """Iterate :meth:`sessions` (same views, same order).

        The iteration surface shared with
        :class:`~repro.telemetry.spill.SpilledDataset`, whose record views
        come from this same join.
        """
        return iter(self.sessions())

    def run_arrays(self, kind: str) -> List[np.ndarray]:
        """The kind's rows as sorted columnar runs (``[]`` when it has none).

        The in-memory side of
        :meth:`~repro.telemetry.spill.SpilledDataset.run_arrays`, the read
        surface of the vectorized analyses: one read-only structured array
        in canonical order.  It is encoded on first use and reused while
        the kind's record list is the same list holding the same record
        objects in the same order — records are frozen, so the same
        objects give the same bytes.  An append, an element replacement or
        a reassignment of the list makes the next call encode again.  The
        cache stays out of ``==``, ``repr`` and pickling.
        """
        records = getattr(self, kind)
        if not records:
            return []
        cache = self.__dict__.setdefault("_columns", {})
        cached = cache.get(kind)
        if cached is not None:
            source, snapshot, array = cached
            if (
                source is records
                and len(snapshot) == len(records)
                and all(map(is_, snapshot, records))
            ):
                return [array]
        array = sort_array(kind, records_to_array(kind, records))
        array.flags.writeable = False
        cache[kind] = (records, tuple(records), array)
        return [array]

    # -- filtering / combining -------------------------------------------------

    @classmethod
    def collect(cls, source, keep_ids: Optional[Iterable[str]] = None) -> "Dataset":
        """A new dataset holding *source*'s records of every kind, in order.

        *source* is anything exposing the record kinds as attributes (a
        ``Dataset`` or a spilled one); with *keep_ids*, only those
        sessions' records are kept.
        """
        keep: Optional[Set[str]] = None if keep_ids is None else set(keep_ids)
        return cls(
            **{
                kind: [r for r in getattr(source, kind) if keep is None or r.session_id in keep]
                for kind in SPILL_KINDS
            }
        )

    def filter_sessions(self, keep_ids: Iterable[str]) -> "Dataset":
        """A new dataset containing only the given session ids."""
        return Dataset.collect(self, keep_ids)

    @classmethod
    def merge_all(cls, datasets: Iterable["Dataset"]) -> "Dataset":
        """Merge the shard datasets of one period into canonical order.

        This is the merge the sharded runner uses: shard outputs arrive in
        nondeterministic completion order, and canonical order makes the
        result independent of both that order and the shard count.  Each
        input is stable-sorted (linear for the pre-sorted lists shard
        workers ship), then a k-way :func:`heapq.merge` combines them with
        ties broken by input position — the same result as concatenating
        and stable-sorting.  Telemetry of different periods is never
        merged: periods may reuse session ids.
        """
        inputs = [dataset.sorted() for dataset in datasets]
        return cls(
            **{
                kind: list(
                    heapq.merge(*(getattr(d, kind) for d in inputs), key=sort_key(kind))
                )
                for kind in SPILL_KINDS
            }
        )

    def sorted(self) -> "Dataset":
        """A copy with every record list in canonical order.

        Per-chunk records sort by (session, chunk), TCP snapshots by
        (session, chunk, time), per-session records by session.  Sorting is
        stable, so records sharing a key keep their emission order.  Two
        runs of the same seeded workload that differ only in how sessions
        were interleaved (serial event loop vs. merged shards) become
        ``==``-comparable after canonicalization.  The keys are the
        columnar schema's (:func:`~repro.telemetry.columnar.sort_key`).
        """
        return Dataset(
            **{kind: sorted(getattr(self, kind), key=sort_key(kind)) for kind in SPILL_KINDS}
        )
