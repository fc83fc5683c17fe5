"""Dataset container and the (session, chunk) join.

"A key to end-to-end analysis is to trace session performance from the
player through the CDN (at the granularity of chunks).  We implement
tracing by using a globally unique session ID and per-session chunk IDs."
(§2.2).  A :class:`Dataset` holds one collection period's telemetry as
one canonical structured array per record kind
(:mod:`repro.telemetry.columnar`), the form spills hold it in too.
:meth:`Dataset.join_chunks` performs the join on record objects decoded
from those arrays, and :meth:`Dataset.sessions` groups it by session.
They are the one join that builds record views, in memory and for
spills alike (:class:`~repro.telemetry.spill.SpilledDataset`
materializes, then calls them); the headline analyses run the columnar
join of :mod:`repro.core.columnar_analysis` on the arrays instead.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .columnar import (
    SPILL_KINDS,
    iter_records,
    merge_runs,
    records_to_array,
    session_runs,
    sort_array,
    take_rows,
)
from .records import (
    CdnChunkRecord,
    CdnSessionRecord,
    ChunkGroundTruth,
    PlayerChunkRecord,
    PlayerSessionRecord,
    TcpInfoRecord,
)

__all__ = ["JoinedChunk", "SessionView", "RecordView", "Dataset"]


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


class RecordView(abc.Sequence):
    """One record kind of a :class:`Dataset` as a read-only sequence, decoded
    from the kind's array on first access (``len`` decodes nothing)."""

    __slots__ = ("_kind", "_array", "_records")

    def __init__(self, kind: str, array: np.ndarray) -> None:
        self._kind, self._array, self._records = kind, array, None

    def _decoded(self) -> Tuple[Any, ...]:
        if self._records is None:
            self._records = tuple(iter_records(self._kind, self._array))
        return self._records

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, index):
        return self._decoded()[index]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._decoded())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, abc.Sequence):
            return NotImplemented
        return self._decoded() == tuple(other)

    def __repr__(self) -> str:
        return f"RecordView({self._kind!r}, {len(self)} records)"


def _record_view(kind: str) -> property:
    return property(lambda self: self._views[kind], doc=f"The {kind} records (read-only).")


class Dataset:
    """All telemetry from one collection period, in canonical order.

    One read-only structured array per record kind, sorted on the kind's
    keys (chunk kinds by session and chunk, TCP snapshots also by time,
    session kinds by session), rows sharing a key in emission order.  It
    is built once and never changes: ``Dataset(**records)`` encodes and
    sorts record objects, raising
    :class:`~repro.telemetry.columnar.ColumnOverflowError` for a string
    wider than its column; :meth:`from_runs` takes sorted runs (the
    collector's, shards', a spill's); :meth:`filter_sessions` masks rows.
    The vectorized analyses read the arrays (:meth:`run_arrays`); each
    kind is also a :class:`RecordView` for the record join and the
    figure analyses.  ``==`` compares the arrays' bytes, and pickles
    carry the arrays only.
    """

    player_chunks = _record_view("player_chunks")
    cdn_chunks = _record_view("cdn_chunks")
    tcp_snapshots = _record_view("tcp_snapshots")
    player_sessions = _record_view("player_sessions")
    cdn_sessions = _record_view("cdn_sessions")
    ground_truth = _record_view("ground_truth")

    def __init__(self, **records: Iterable[Any]) -> None:
        unknown = set(records) - set(SPILL_KINDS)
        if unknown:
            raise TypeError(f"unknown record kinds {sorted(unknown)}")
        self.__setstate__(
            {k: sort_array(k, records_to_array(k, records.get(k, ()))) for k in SPILL_KINDS}
        )

    @classmethod
    def from_runs(cls, runs: Mapping[str, Sequence[np.ndarray]]) -> "Dataset":
        """A dataset over each kind's sorted runs, listed in emission order
        (:func:`~repro.telemetry.columnar.merge_runs`); a single run is
        taken as it is, and made read-only."""
        arrays = {kind: merge_runs(kind, runs.get(kind, ())) for kind in SPILL_KINDS}
        dataset = cls.__new__(cls)
        dataset.__setstate__(arrays)
        return dataset

    def __getstate__(self) -> Dict[str, np.ndarray]:
        # the arrays are the state; the decoded record views and the
        # memo of the columnar analyses stay out of pickles (shard
        # workers ship datasets through pipes) and out of ==
        return self._arrays

    def __setstate__(self, arrays: Dict[str, np.ndarray]) -> None:
        for array in arrays.values():
            array.flags.writeable = False
        self._arrays = arrays
        self._views = {kind: RecordView(kind, array) for kind, array in arrays.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(self._arrays[k].tobytes() == other._arrays[k].tobytes() for k in SPILL_KINDS)

    def __repr__(self) -> str:
        rows = ", ".join(f"{kind}={len(array)}" for kind, array in self._arrays.items())
        return f"Dataset({rows})"

    # -- basic shape ---------------------------------------------------------

    @property
    def n_sessions(self) -> int:
        return len(self._arrays["player_sessions"])

    @property
    def n_chunks(self) -> int:
        return len(self._arrays["player_chunks"])

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
        """The kind's canonical array as one run (``[]`` when it has none).

        The in-memory side of
        :meth:`~repro.telemetry.spill.SpilledDataset.run_arrays`, the read
        surface of the vectorized analyses.  The array is read-only.
        """
        array = self._arrays[kind]
        return [array] if len(array) else []

    # -- filtering / combining -------------------------------------------------

    def filter_sessions(self, keep_ids: Iterable[str]) -> "Dataset":
        """A new dataset containing only the given session ids."""
        return filter_runs(self, keep_ids)

    @classmethod
    def merge_all(cls, datasets: Iterable["Dataset"]) -> "Dataset":
        """Merge the shard datasets of one period into canonical order.

        This is the merge the sharded runner uses.  The shards' arrays are
        concatenated in the order given (sorted shard order) and
        stable-sorted (:meth:`from_runs`), so the result does not depend
        on the shards' completion order, and rows sharing a key keep
        shard order.  Telemetry of different periods is never merged:
        periods may reuse session ids.
        """
        datasets = list(datasets)
        return cls.from_runs(
            {kind: [run for d in datasets for run in d.run_arrays(kind)] for kind in SPILL_KINDS}
        )

    def sorted(self) -> "Dataset":
        """Already canonical: the dataset itself."""
        return self


def filter_runs(source: Any, keep_ids: Iterable[str]) -> Dataset:
    """A :class:`Dataset` of the rows of *source* (a ``Dataset`` or a spill)
    whose session is in *keep_ids*: each sorted run masked by session id."""
    keep = np.unique(np.array([sid.encode("utf-8") for sid in keep_ids], dtype=bytes))

    def kept(run: np.ndarray) -> np.ndarray:
        lengths, _, member = session_runs(run["session_id"], keep)
        return take_rows(run, np.repeat(member, lengths))

    return Dataset.from_runs(
        {kind: [kept(run) for run in source.run_arrays(kind)] for kind in SPILL_KINDS}
    )
