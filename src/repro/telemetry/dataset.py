"""Dataset container and the (session, chunk) join.

"A key to end-to-end analysis is to trace session performance from the
player through the CDN (at the granularity of chunks).  We implement
tracing by using a globally unique session ID and per-session chunk IDs."
(§2.2).  :meth:`Dataset.join_chunks` performs exactly that join; every
analysis in :mod:`repro.core` operates on the joined views.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter, is_
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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

__all__ = ["JoinedChunk", "SessionView", "Dataset", "iter_joined_sessions"]


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


class _GroupCursor:
    """Step through a session-id-sorted record stream, one sid group at a time.

    ``take(sid)`` discards groups below *sid* and returns the group equal
    to it (or ``[]``).  Callers request sids in ascending order, so the
    whole pass is O(N) and at most one session's records are live.
    """

    __slots__ = ("_groups", "_sid", "_group")

    def __init__(self, records: Iterable) -> None:
        self._groups = groupby(records, key=attrgetter("session_id"))
        self._advance()

    def _advance(self) -> None:
        self._sid, self._group = next(self._groups, (None, None))

    def take(self, sid: str) -> list:
        while self._sid is not None and self._sid < sid:
            self._advance()
        if self._sid == sid:
            records = list(self._group)
            self._advance()
            return records
        return []


def iter_joined_sessions(
    player_sessions: Iterable[PlayerSessionRecord],
    cdn_sessions: Iterable[CdnSessionRecord],
    player_chunks: Iterable[PlayerChunkRecord],
    cdn_chunks: Iterable[CdnChunkRecord],
    tcp_snapshots: Iterable[TcpInfoRecord],
    ground_truth: Iterable[ChunkGroundTruth],
) -> Iterator[SessionView]:
    """Streaming merge-join: canonical-ordered record streams → session views.

    Produces exactly what :meth:`Dataset.sessions` produces — same views,
    same order, same duplicate-key semantics — but one session at a time,
    so joining a spilled million-session run never materializes more than
    one session's records.  Inputs **must** be in canonical order (the
    :meth:`Dataset.sorted` keys); equal-key semantics then coincide with
    the dict-index join: dict insertion last-wins over emission order
    equals last-wins over a stable canonical sort.
    """
    cdn_session_groups = _GroupCursor(cdn_sessions)
    player_chunk_groups = _GroupCursor(player_chunks)
    cdn_chunk_groups = _GroupCursor(cdn_chunks)
    tcp_groups = _GroupCursor(tcp_snapshots)
    truth_groups = _GroupCursor(ground_truth)
    for sid, player_group in groupby(player_sessions, key=attrgetter("session_id")):
        players = list(player_group)
        cdns = cdn_session_groups.take(sid)
        if not cdns:
            continue
        view = SessionView(
            session_id=sid, player_session=players[-1], cdn_session=cdns[-1]
        )
        cdn_index: Dict[Tuple[str, int], CdnChunkRecord] = {
            (r.session_id, r.chunk_id): r for r in cdn_chunk_groups.take(sid)
        }
        truth_index: Dict[Tuple[str, int], ChunkGroundTruth] = {
            (r.session_id, r.chunk_id): r for r in truth_groups.take(sid)
        }
        tcp_index: Dict[Tuple[str, int], List[TcpInfoRecord]] = {}
        for snapshot in tcp_groups.take(sid):
            tcp_index.setdefault((snapshot.session_id, snapshot.chunk_id), []).append(
                snapshot
            )
        for snapshots in tcp_index.values():
            snapshots.sort(key=lambda s: s.t_ms)
        for player in player_chunk_groups.take(sid):
            key = (player.session_id, player.chunk_id)
            cdn = cdn_index.get(key)
            if cdn is None:
                continue
            view.chunks.append(
                JoinedChunk(
                    player=player,
                    cdn=cdn,
                    tcp=tuple(tcp_index.get(key, ())),
                    truth=truth_index.get(key),
                )
            )
        view.chunks.sort(key=lambda c: c.chunk_id)
        yield view


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
        # the column cache of run_arrays is derived data: it stays out of
        # pickles (shard workers ship datasets through pipes) and is
        # rebuilt on first use on the receiving side
        state = self.__dict__.copy()
        state.pop("_columns", None)
        return state

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
        """Streaming equivalent of :meth:`sessions` (same views, same order).

        The uniform iteration surface shared with
        :class:`~repro.telemetry.spill.SpilledDataset`: analyses that loop
        over ``dataset.iter_sessions()`` run identically on in-memory and
        spilled telemetry, holding one session at a time instead of the
        full view list.
        """
        ordered = self.sorted()
        return iter_joined_sessions(
            ordered.player_sessions,
            ordered.cdn_sessions,
            ordered.player_chunks,
            ordered.cdn_chunks,
            ordered.tcp_snapshots,
            ordered.ground_truth,
        )

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

    def merge(self, other: "Dataset", canonicalize: bool = False) -> "Dataset":
        """Concatenate two datasets (e.g. multiple simulated days).

        With ``canonicalize=True`` the merged record lists are put in the
        canonical (session, chunk, time) order of :meth:`sorted`, so that
        datasets collected by differently-partitioned runs of the same
        workload compare equal with ``==``.
        """
        merged = Dataset(
            **{kind: getattr(self, kind) + getattr(other, kind) for kind in SPILL_KINDS}
        )
        return merged.sorted() if canonicalize else merged

    @classmethod
    def merge_all(
        cls,
        datasets: Iterable["Dataset"],
        canonicalize: bool = True,
        assume_sorted: bool = False,
    ) -> "Dataset":
        """Merge any number of datasets; canonically ordered by default.

        This is the merge the sharded runner uses: shard outputs arrive in
        nondeterministic completion order, and canonicalization makes the
        result independent of both that order and the shard count.

        Canonicalization is a k-way :func:`heapq.merge` of per-input sorted
        lists — O(N log k) instead of concatenate-then-resort's O(N log N).
        Both ``heapq.merge`` and :meth:`sorted` are stable with ties broken
        by input position, so the result is identical to the old
        concatenate-then-stable-sort.  ``assume_sorted=True`` skips the
        per-input :meth:`sorted` pass for producers (shard workers) whose
        outputs are already canonically ordered.
        """
        inputs = list(datasets)
        if not canonicalize:
            merged = cls()
            for dataset in inputs:
                merged = merged.merge(dataset)
            return merged
        if not assume_sorted:
            inputs = [dataset.sorted() for dataset in inputs]
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
