"""Vectorized columnar read path for the headline analyses.

``qoe.summarize``, ``localization.diagnose_dataset`` and
``faultscore.score_fault_localization`` all compute here, directly on the
numpy structured arrays of :mod:`repro.telemetry.columnar` — the join,
the Eq. 2/4/5 chunk math, and the per-session reductions all run as
whole-column numpy operations instead of per-session object graphs.
Each block's rows carry an int64 session code, their session's index in
the block's slice of the sorted player-session universe.  Codes come from
the session-id change points of each run slice, so the byte-string ids
are compared once per row and searched once per distinct session; from
there on the join keeps sessions with boolean masks over codes, matches
kinds on fused ``code * (max chunk id + 1) + chunk_id`` keys, and groups
rows on the change points of keys that are already sorted.
:func:`iter_joined_blocks` yields the joined, diagnosed blocks; batch
analyses fold them into per-analysis states, and ``repro serve`` folds
each round's blocks into its rolling windows and into the
:class:`LocalizationState` and :class:`FaultScoreState` it carries across
rounds.  :func:`analyze_dataset`, behind the three public calls, runs
that one pass — the cascade, which folds all three analyses — at most
once per dataset object and memoizes its results on it.  The
per-session spelling of the same analyses — ``session_qoe`` and
``diagnose_session`` folded by the accumulators of
``tests/streaming_oracle.py`` — is the readable specification and the
test oracle.

Two invariants drive every line here:

* **Byte identity.**  Results are bit-for-bit equal to the per-session
  oracle (pinned by ``tests/test_columnar_analysis.py`` and
  ``tests/test_serve.py``).  Sums that the oracle performs sequentially
  (``Python sum``, ``ndarray.mean/std`` over axis 0) are reproduced with
  the stepped group accumulator :func:`_grouped_seq_sum` — never
  ``np.add.reduceat``/``np.sum``, whose pairwise summation regroups float
  additions.
* **Bounded memory.**  Datasets are consumed in session-aligned blocks
  sized by :data:`~repro.telemetry.columnar.ITER_BLOCK_ROWS`; spilled runs
  stay memory-mapped, only the current block's rows are materialized,
  and the mapped pages of the rows read so far are dropped after each
  block, so about one block of each run stays resident.
  The localization and fault-score states hold O(fault classes)
  counters, so a service can carry them across rounds indefinitely; the
  QoE state keeps per-session scalars for its quantiles.
  Works for in-memory :class:`~repro.telemetry.dataset.Dataset` objects,
  single-directory spills and sharded spills alike: all of them are
  datasets, read through ``run_arrays``.  A multi-period run's periods stay separate datasets,
  and :func:`analyze_datasets` folds them into one set of states.

See docs/PERFORMANCE.md ("The read path") and docs/TELEMETRY.md for the
columnar layout it consumes.
"""

from __future__ import annotations

import copy
from collections import Counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry.columnar import (
    COLUMN_SCHEMAS,
    ITER_BLOCK_ROWS,
    SPILL_KINDS,
    byte_change_points,
    concat_rows,
    release_rows,
    session_runs,
    take_rows,
)
from .downstack import MIN_EQ4_CHUNKS, RTO_FLOOR_MS, TP_BURST_FACTOR
from .faultscore import EXPECTED_BOTTLENECK, ClassScore, FaultScoreReport, parse_fault_labels
from .localization import (
    BAD_RENDER_FRACTION,
    BAD_SCORE,
    DS_BOUND_MS,
    SERVER_BOUND_MS,
    TAIL_RTT_MS,
    THROUGHPUT_SHARE,
    Bottleneck,
)
from .rendering_diag import GOOD_RATE

__all__ = [
    "ANALYSIS_KINDS",
    "FaultScoreState",
    "JoinedBlock",
    "LocalizationState",
    "analyze_dataset",
    "analyze_datasets",
    "iter_joined_blocks",
]

#: the analyses this engine can compute in one blockwise pass
ANALYSIS_KINDS = ("qoe", "localization", "faultscore")

#: Bottleneck verdicts by integer code; ``np.select`` below emits these
#: codes, and enum order fixes the code <-> member mapping.
_BOTTLENECKS: Tuple[Bottleneck, ...] = tuple(Bottleneck)
_CODE_OF = {b: i for i, b in enumerate(_BOTTLENECKS)}
#: per fault class, the expected-bottleneck codes (same order as the
#: ``EXPECTED_BOTTLENECK`` tuples, which ClassScore.expected mirrors)
_EXPECTED_CODES = {
    fault_class: tuple(_CODE_OF[b] for b in expected)
    for fault_class, expected in EXPECTED_BOTTLENECK.items()
}

_INT64_MAX = int(np.iinfo(np.int64).max)


# ---------------------------------------------------------------------------
# sequential (non-pairwise) grouped float accumulation


def _grouped_seq_sum(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-group sums that add elements *sequentially*, like the oracle.

    ``values`` holds the rows of every group back to back (group ``g``
    occupies ``values[starts[g]:starts[g]+counts[g]]``).  A plain
    ``np.add.reduceat`` would sum each slice pairwise — a different float
    regrouping than ``sum(list)`` / ``matrix.mean(axis=0)`` — so instead
    the k-th element of every group is added in step k, vectorized across
    groups.  The groups are visited largest first, so the groups still
    adding at step k are a prefix: each step is one slice, one gather and
    one add.  Cost is O(max group size) numpy calls and O(rows) element
    work, and the extra memory is O(groups).
    """
    acc = np.zeros((len(starts),) + values.shape[1:], dtype=np.float64)
    if len(starts) == 0 or len(values) == 0:
        return acc
    order = np.argsort(-counts)
    # live[k]: how many groups have more than k rows, a prefix of *order*
    live = len(counts) - np.cumsum(np.bincount(counts))
    rows = starts[order]
    for k in range(int(counts.max())):
        n = live[k]
        acc[:n] += values[rows[:n]]
        rows[:n] += 1
    out = np.empty_like(acc)
    out[order] = acc
    return out


# ---------------------------------------------------------------------------
# run access + block planning


def _change_points(values: np.ndarray) -> np.ndarray:
    """True at the first row of every run of equal values in sorted *values*."""
    new = np.ones(len(values), dtype=bool)
    new[1:] = values[1:] != values[:-1]
    return new


def _last_of_runs(new: np.ndarray) -> np.ndarray:
    """The last row of every run, given the runs' :func:`_change_points`.

    The last row of a key is the one a ``dict[key] = record`` rebuild
    keeps.
    """
    last = np.ones(len(new), dtype=bool)
    last[:-1] = new[1:]
    return np.flatnonzero(last)


def _session_universe(ps_runs: Sequence[np.ndarray]) -> np.ndarray:
    """The sorted distinct session ids of the session-sorted *ps_runs*.

    Each run's ids are copied into one array, and a spilled run drops
    the mapped pages it was read from right after
    (:func:`~repro.telemetry.columnar.release_rows`).  numpy's stable
    sort finds stretches that are already in order, so sorting the
    runs' concatenation costs about one pass over each run; the change
    points then drop repeated ids.
    """
    ids = np.empty(
        sum(len(run) for run in ps_runs),
        dtype=COLUMN_SCHEMAS["player_sessions"].dtype["session_id"],
    )
    filled = 0
    for run in ps_runs:
        ids[filled : filled + len(run)] = run["session_id"]
        filled += len(run)
        release_rows(run)
    ids.sort(kind="stable")
    return ids[_change_points(ids)]


def _fuse_factor(n_codes: int, chunk_ids: Iterable[np.ndarray]) -> int:
    """The multiplier of the ``code * fuse + chunk_id`` int64 keys.

    Codes run ``0..n_codes-1``.  Raises ``ValueError`` for a negative
    chunk id (it would sort before its session's other chunks) and for
    ids so large that a fused key could leave int64 (it would wrap).
    """
    max_id = 0
    for ids in chunk_ids:
        if len(ids):
            if int(ids.min()) < 0:
                raise ValueError("columnar analysis requires non-negative chunk ids")
            max_id = max(max_id, int(ids.max()))
    fuse = max_id + 1
    # the largest key is (n_codes - 1) * fuse + max_id = n_codes * fuse - 1,
    # and fuse itself is an int64 factor
    if n_codes * fuse - 1 > _INT64_MAX or fuse > _INT64_MAX:
        raise ValueError(
            f"columnar analysis requires (session, chunk) keys that fit int64: "
            f"{n_codes} sessions with chunk ids up to {max_id} do not"
        )
    return fuse


def _coded(rows: np.ndarray, sids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Session-sorted *rows* restricted to the sessions in sorted *sids*.

    Returns ``(rows, codes)`` where ``codes[i]`` is the index into *sids*
    of row i's session (:func:`~repro.telemetry.columnar.session_runs`).
    When every row's session is in *sids*, *rows* is returned as given.
    """
    lengths, found, member = session_runs(rows["session_id"], sids)
    codes = np.repeat(found, lengths)
    if member.all():
        return rows, codes
    keep = np.repeat(member, lengths)
    return take_rows(rows, keep), codes[keep]


def _merge_parts(
    kind: str, parts: List[Tuple[np.ndarray, np.ndarray]], n_codes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One block's coded parts, listed in run order, merged in key order.

    Runs were stable-sorted at flush, and the canonical order
    (:func:`~repro.telemetry.columnar.merge_runs`) is one stable sort of
    the runs concatenated in run order, so a stable sort of the
    run-ordered concatenation on ``(code, chunk_id)`` reproduces it
    bit-for-bit.  Parts whose session
    ranges do not overlap are already in that order and are not sorted
    or copied again.  Snapshots of one ``(session, chunk)`` key keep run
    order rather than ``t_ms`` order; :func:`_tcp_by_key` reads them
    without relying on it.
    """
    if len(parts) == 1:
        return parts[0]
    rows = concat_rows([rows for rows, _ in parts])
    codes = np.concatenate([codes for _, codes in parts])
    if COLUMN_SCHEMAS[kind].sort_keys == ("session_id",):
        key = codes
    else:
        chunk_id = rows["chunk_id"]
        key = codes * _fuse_factor(n_codes, [chunk_id]) + chunk_id
    if np.all(key[1:] >= key[:-1]):
        return rows, codes
    order = np.argsort(key, kind="stable")
    return take_rows(rows, order), codes[order]


class _BlockPlan:
    """Session-aligned blocks over the universe of player sessions.

    *runs* maps every record kind to its sorted runs (``run_arrays``) in
    run order, the tie-break order :func:`_merge_parts` relies on.

    Block ``i`` owns a contiguous slice of the sorted universe.  For
    every run of every kind both block boundary vectors come from two
    ``searchsorted`` calls on the run's session-id field view, which
    copies nothing to the heap: planning costs O(blocks) memory per run.
    The searches do map pages of a spilled run, and the kernel maps
    whole page-cache folios around each, so each run drops its mapped
    pages right after its own searches
    (:func:`~repro.telemetry.columnar.release_rows`).  :meth:`block`
    then codes each run's slice of a block by session and merges the
    slices, and :meth:`release` drops the pages a block has read.
    """

    def __init__(self, runs: Dict[str, List[np.ndarray]]):
        self.universe = _session_universe(runs["player_sessions"])
        n_sids = len(self.universe)
        self.slices: Dict[str, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        if n_sids == 0:
            self.n_blocks = 0
            return
        total_rows = max(sum(len(r) for r in kind_runs) for kind_runs in runs.values())
        rows_per_session = max(1.0, total_rows / n_sids)
        block_sessions = max(1, int(ITER_BLOCK_ROWS / rows_per_session))
        self.bounds = np.append(np.arange(0, n_sids, block_sessions), n_sids)
        self.n_blocks = len(self.bounds) - 1
        los = self.universe[self.bounds[:-1]]
        his = self.universe[self.bounds[1:] - 1]
        for kind, kind_runs in runs.items():
            entries = []
            for run in kind_runs:
                ids = run["session_id"]
                a = np.searchsorted(ids, los, side="left")
                b = np.searchsorted(ids, his, side="right")
                release_rows(run)
                entries.append((run, a, b))
            self.slices[kind] = entries

    def block(self, kind: str, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Rows of *kind* for block *i* in key order (see :func:`_merge_parts`), and codes.

        ``codes[r]`` is row r's session as an index into the block's
        slice of the universe; rows of sessions outside it are dropped.
        """
        sids = self.universe[self.bounds[i] : self.bounds[i + 1]]
        parts = []
        for run, a, b in self.slices[kind]:
            if b[i] > a[i]:
                rows, codes = _coded(np.asarray(run[a[i] : b[i]]), sids)
                if len(rows):
                    parts.append((rows, codes))
        if not parts:
            return np.empty(0, dtype=COLUMN_SCHEMAS[kind].dtype), np.empty(0, dtype=np.int64)
        return _merge_parts(kind, parts, len(sids))

    def release(self, i: int) -> None:
        """Drop the mapped pages of every run's rows up to block *i*'s
        end, and of each whole run after the last block.

        Always the prefix, not only block *i*'s slice: reading a slice
        maps the folios around it, pages before it included
        (:func:`~repro.telemetry.columnar.release_rows`).
        """
        last = i == self.n_blocks - 1
        for entries in self.slices.values():
            for run, _, b in entries:
                release_rows(run, None if last else int(b[i]))


def _last_wins_match(
    keys: np.ndarray, queries: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Last-wins lookup of *queries* in sorted *keys*.

    Returns ``(matched, j)``: ``matched[i]`` iff ``queries[i]`` occurs in
    *keys*, and ``j[i]`` the index of its *last* occurrence — the same row
    a ``dict[(sid, chunk_id)] = record`` rebuild would keep (an index
    into *keys* even where unmatched, when *keys* is not empty).  Returns
    ``None`` when *keys* equals *queries* and holds no duplicate: query
    i then matches key i.
    """
    if np.array_equal(keys, queries) and bool(np.all(keys[1:] > keys[:-1])):
        return None
    if len(keys) == 0:
        return np.zeros(len(queries), dtype=bool), np.zeros(len(queries), dtype=np.int64)
    j = np.searchsorted(keys, queries, side="right") - 1
    matched = j >= 0
    matched &= keys[np.maximum(j, 0)] == queries
    return matched, np.maximum(j, 0)


# ---------------------------------------------------------------------------
# per-analysis accumulation state


class _QoeState:
    """Blockwise twin of the oracle's ``QoeAccumulator`` (bit-identical)."""

    def __init__(self) -> None:
        self.n = 0
        self._startups: List[np.ndarray] = []
        self._rates: List[np.ndarray] = []
        self._bitrates: List[np.ndarray] = []
        self._dropped: List[np.ndarray] = []
        self._chunks: List[np.ndarray] = []

    def update(self, block: "JoinedBlock") -> None:
        n_kept = block.n_kept
        self.n += n_kept
        counts = block.counts
        starts = block.starts
        # the oracle folds these three per-chunk columns left to
        # right with Python sum(); _grouped_seq_sum replays that exact
        # addition order across all sessions at once
        triple = np.stack(
            [block.rebuffer_ms, block.chunk_duration_ms, block.bitrate_kbps], axis=1
        )
        sums = _grouped_seq_sum(triple, starts, counts)
        rebuffer_sum, media_sum, bitrate_sum = sums[:, 0], sums[:, 1], sums[:, 2]
        rates = np.divide(
            rebuffer_sum, media_sum, out=np.zeros(n_kept), where=media_sum > 0
        )
        avg_bitrate = np.divide(
            bitrate_sum, counts, out=np.zeros(n_kept), where=counts > 0
        )
        # integer frame totals are exact in f8 (< 2**53), so any order works
        total_f = np.bincount(block.jcode, weights=block.total_frames, minlength=n_kept)
        dropped_f = np.bincount(block.jcode, weights=block.dropped_frames, minlength=n_kept)
        dropped_pct = np.divide(
            100.0 * dropped_f, total_f, out=np.zeros(n_kept), where=total_f != 0
        )
        nonempty = counts > 0
        first_rows = starts[nonempty]
        first_ids = block.chunk_id[first_rows]
        startups = block.download_ms[first_rows[first_ids == 0]]
        if len(startups):
            self._startups.append(startups)
        self._rates.append(rates)
        self._bitrates.append(avg_bitrate)
        self._dropped.append(dropped_pct)
        self._chunks.append(counts)

    def result(self) -> Dict[str, float]:
        if self.n == 0:
            return {"n_sessions": 0}
        startups = (
            np.concatenate(self._startups) if self._startups else np.empty(0, dtype=np.float64)
        )
        rates = np.concatenate(self._rates)
        bitrates = np.concatenate(self._bitrates)
        dropped = np.concatenate(self._dropped)
        chunks = np.concatenate(self._chunks)
        return {
            "n_sessions": self.n,
            "median_startup_ms": float(np.median(startups)) if len(startups) else float("nan"),
            "p90_startup_ms": (
                float(np.percentile(startups, 90)) if len(startups) else float("nan")
            ),
            "rebuffer_session_fraction": float(np.mean(rates > 0)),
            "mean_rebuffer_rate_pct": float(np.mean(100.0 * rates)),
            "median_bitrate_kbps": float(np.median(bitrates)),
            "mean_dropped_frame_pct": float(np.mean(dropped)),
            "median_session_chunks": float(np.median(chunks)),
        }


class LocalizationState:
    """Share of chunks per bottleneck, folded block by block.

    The blockwise twin of the oracle's ``LocalizationAccumulator``; its
    state is one counter per bottleneck location.
    """

    def __init__(self) -> None:
        self._counts = np.zeros(len(_BOTTLENECKS), dtype=np.int64)
        self._total = 0

    def update(self, block: "JoinedBlock") -> None:
        self._counts += np.bincount(block.verdict, minlength=len(_BOTTLENECKS))
        self._total += len(block.verdict)

    def result(self) -> Dict[str, float]:
        if self._total == 0:
            return {}
        return {
            b.value: int(self._counts[i]) / self._total
            for i, b in enumerate(_BOTTLENECKS)
        }


class _LabelMeta:
    """Parsed, cached view of one distinct ``fault_labels`` byte string."""

    __slots__ = (
        "classes",
        "known",
        "categories",
        "labeled",
        "spurious",
        "expected_codes",
    )

    def __init__(self, raw: bytes) -> None:
        pairs = parse_fault_labels(raw.decode("utf-8"))
        self.classes = sorted({fault_class for fault_class, _ in pairs})
        self.labeled = bool(self.classes)
        self.known = [fc for fc in self.classes if fc in EXPECTED_BOTTLENECK]
        self.categories = self.classes or ["none"]
        self.expected_codes = {fc: frozenset(_EXPECTED_CODES[fc]) for fc in self.known}
        layer_codes = frozenset(
            code for fc in self.known for code in _EXPECTED_CODES[fc]
        )
        self.spurious = frozenset(range(1, len(_BOTTLENECKS))) - layer_codes


class FaultScoreState:
    """Localization verdicts graded against ``fault_labels``, block by block.

    The blockwise twin of the oracle's ``FaultScoreAccumulator``.  Every
    tally is a count over chunks, so neither block order nor block cuts
    matter: a spurious verdict (one naming a layer that none of the
    chunk's faults maps to) is counted per verdict code, and ``result``
    gives each class present in the data the spurious counts of its
    expected codes as false positives.  The state stays O(fault classes)
    however many blocks it folds, and the report comes out in canonical
    order: classes and confusion rows sorted, verdict columns in
    :class:`~repro.core.localization.Bottleneck` order.
    """

    def __init__(self) -> None:
        self.n_chunks = 0
        self.n_labeled = 0
        self.n_unscored = 0
        self._meta_cache: Dict[bytes, _LabelMeta] = {}
        #: (truth category, verdict code) -> chunks
        self._confusion: Dict[Tuple[str, int], int] = {}
        #: fault class -> [true positives, false negatives]
        self._tallies: Dict[str, List[int]] = {}
        self._spurious = np.zeros(len(_BOTTLENECKS), dtype=np.int64)

    def update(self, block: "JoinedBlock") -> None:
        n = len(block.verdict)
        self.n_chunks += n
        has_truth = block.has_truth
        n_truth = int(has_truth.sum())
        self.n_unscored += n - n_truth
        if n_truth == 0:
            return
        verdicts = block.verdict[has_truth]
        labels = block.fault_labels[has_truth]
        # a label holds for long stretches of rows: sort only the first
        # row of each stretch
        new = byte_change_points(labels)
        unique_labels, head_inverse = np.unique(
            labels[np.flatnonzero(new)], return_inverse=True
        )
        inverse = head_inverse[np.cumsum(new) - 1]
        # one count per distinct (label, verdict) pair covers the
        # confusion matrix, the TP/FN tallies and the spurious verdicts
        n_codes = len(_BOTTLENECKS)
        pair_counts = np.bincount(
            inverse * n_codes + verdicts, minlength=len(unique_labels) * n_codes
        ).reshape(len(unique_labels), n_codes)
        for raw, counts in zip(unique_labels, pair_counts):
            raw_b = bytes(raw)
            meta = self._meta_cache.get(raw_b)
            if meta is None:
                meta = self._meta_cache[raw_b] = _LabelMeta(raw_b)
            if meta.labeled:
                self.n_labeled += int(counts.sum())
            for code in np.flatnonzero(counts).tolist():
                count = int(counts[code])
                for category in meta.categories:
                    key = (category, code)
                    self._confusion[key] = self._confusion.get(key, 0) + count
                for fault_class in meta.known:
                    tally = self._tallies.setdefault(fault_class, [0, 0])
                    if code in meta.expected_codes[fault_class]:
                        tally[0] += count
                    else:
                        tally[1] += count
                if code in meta.spurious:
                    self._spurious[code] += count

    def result(self) -> FaultScoreReport:
        report = FaultScoreReport()
        report.n_chunks = self.n_chunks
        report.n_labeled = self.n_labeled
        report.n_unscored = self.n_unscored
        for fault_class in sorted(self._tallies):
            true_positives, false_negatives = self._tallies[fault_class]
            report.classes[fault_class] = ClassScore(
                fault_class,
                tuple(b.value for b in EXPECTED_BOTTLENECK[fault_class]),
                true_positives=true_positives,
                false_negatives=false_negatives,
                false_positives=int(
                    self._spurious[list(_EXPECTED_CODES[fault_class])].sum()
                ),
            )
        for category, code in sorted(self._confusion):
            report.confusion.setdefault(category, Counter())[
                _BOTTLENECKS[code].value
            ] = self._confusion[(category, code)]
        return report


# ---------------------------------------------------------------------------
# the blockwise join + chunk math


class JoinedBlock:
    """One session-aligned block after the player<->CDN join.

    Sessions are the block's *kept* sessions (a player and a CDN session
    record both exist), numbered ``0..n_kept-1`` in session-id order;
    ``player_sessions`` and ``cdn_sessions`` hold their last-wins rows.
    Every other array is aligned with the joined chunk rows, in canonical
    order: session, then chunk id, then original row order for duplicates
    — the order a session-by-session join yields chunks in.
    ``player_rows`` and ``cdn_rows`` are those rows themselves, ``jcode``
    their session numbers, and ``counts``/``starts`` each session's run
    of rows.  ``verdict`` holds the cascade's
    :class:`~repro.core.localization.Bottleneck` codes (enum order) and
    ``fault_labels`` the last-wins ground-truth labels where
    ``has_truth``.  Arrays may be read-only views of the
    dataset's runs (rows that needed no copy are handed back as they
    are): treat a block as read-only.
    """

    __slots__ = (
        "n_kept",
        "player_sessions",
        "cdn_sessions",
        "player_rows",
        "cdn_rows",
        "jcode",
        "counts",
        "starts",
        "chunk_id",
        "rebuffer_ms",
        "chunk_duration_ms",
        "bitrate_kbps",
        "dropped_frames",
        "total_frames",
        "download_ms",
        "verdict",
        "has_truth",
        "fault_labels",
    )


def _tcp_by_key(tm: np.ndarray, tkey: np.ndarray, jkey: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The TCP facts the cascade reads, for each joined row's key.

    Snapshots group on the change points of their sorted keys *tkey*;
    within a group they may come in run order.  A group's last snapshot
    gives srtt, cwnd and mss: its latest ``t_ms``, and of several at
    that time the later row — where a merge on ``t_ms`` that breaks ties
    by run order puts it.  Its snapshots with a positive srtt give the
    minimum srtt and the largest RTO estimate.  Returns ``(has_tcp,
    last_srtt, last_cwnd, last_mss, srtt_min, rto, has_pos)`` aligned
    with *jkey*.
    """
    n = len(jkey)
    if len(tm) == 0:
        return (
            np.zeros(n, dtype=bool),
            np.zeros(n),
            np.zeros(n, dtype=np.int64),
            np.zeros(n, dtype=np.int64),
            np.full(n, np.inf),
            np.zeros(n),
            np.zeros(n, dtype=bool),
        )
    new = _change_points(tkey)
    starts = np.flatnonzero(new)
    match = _last_wins_match(tkey[starts], jkey)
    if match is None:
        has_tcp, group = np.ones(n, dtype=bool), np.arange(n)
    else:
        has_tcp, group = match
    t_ms = np.ascontiguousarray(tm["t_ms"])
    at_latest = t_ms == np.maximum.reduceat(t_ms, starts)[np.cumsum(new) - 1]
    row = np.where(at_latest, np.arange(len(tm)), -1)
    last = np.maximum.reduceat(row, starts)[group]
    srtt = np.ascontiguousarray(tm["srtt_ms"])
    positive = srtt > 0
    rto = np.full(len(tm), -np.inf)
    rto[positive] = RTO_FLOOR_MS + srtt[positive] + 4.0 * tm["rttvar_ms"][positive]
    srtt_min = np.minimum.reduceat(np.where(positive, srtt, np.inf), starts)[group]
    has_pos = has_tcp & np.logical_or.reduceat(positive, starts)[group]
    return (
        has_tcp,
        np.where(has_tcp, srtt[last], 0.0),
        np.where(has_tcp, tm["cwnd_segments"][last], 0),
        np.where(has_tcp, tm["mss"][last], 0),
        np.where(has_tcp, srtt_min, np.inf),
        np.where(has_pos, np.maximum.reduceat(rto, starts)[group], 0.0),
        has_pos,
    )


def _compute_block(plan: _BlockPlan, index: int) -> Optional[JoinedBlock]:
    ps, ps_code = plan.block("player_sessions", index)
    cs, cs_code = plan.block("cdn_sessions", index)
    # every session of the block's universe slice has a player row, so
    # ps_last holds one row per code
    ps_last = _last_of_runs(_change_points(ps_code))
    cs_last = _last_of_runs(_change_points(cs_code))
    kept = np.zeros(len(ps_last), dtype=bool)
    kept[cs_code[cs_last]] = True
    n_kept = int(np.count_nonzero(kept))
    if n_kept == 0:
        return None
    kinds = ("player_chunks", "cdn_chunks", "tcp_snapshots", "ground_truth")
    loaded = [plan.block(kind, index) for kind in kinds]
    if n_kept < len(kept):
        # drop the rows of sessions without a CDN record, renumbering codes
        renumber = np.cumsum(kept) - 1
        for k, (rows, codes) in enumerate(loaded):
            mask = kept[codes]
            loaded[k] = (take_rows(rows, mask), renumber[codes[mask]])
        ps_last = ps_last[kept]
    chunk_ids = [np.ascontiguousarray(rows["chunk_id"]) for rows, _ in loaded]
    fuse = _fuse_factor(n_kept, chunk_ids)
    # (session, chunk) keys, sorted like the rows they key
    keys = [codes * fuse + ids for (_, codes), ids in zip(loaded, chunk_ids)]
    (pc, pc_code), (cc, _) = loaded[:2]

    match = _last_wins_match(keys[1], keys[0])
    if match is None:
        # one CDN row per player row, pairwise: no copy
        joined, cdn, jcode, jkey, chunk_id = pc, cc, pc_code, keys[0], chunk_ids[0]
    else:
        matched, j = match
        joined = take_rows(pc, matched)
        cdn = take_rows(cc, j[matched])
        jcode = pc_code[matched]
        jkey = keys[0][matched]
        chunk_id = chunk_ids[0][matched]
    n = len(joined)

    block = JoinedBlock()
    block.n_kept = n_kept
    # session rows that are all kept and distinct need no copy
    block.player_sessions = ps if len(ps) == n_kept else take_rows(ps, ps_last)
    block.cdn_sessions = cs if len(cs) == n_kept else take_rows(cs, cs_last)
    block.player_rows = joined
    block.cdn_rows = cdn
    block.jcode = jcode
    counts = np.bincount(jcode, minlength=n_kept)
    block.counts = counts
    block.starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]]
    )
    block.chunk_id = chunk_id
    block.rebuffer_ms = np.ascontiguousarray(joined["rebuffer_ms"])
    block.chunk_duration_ms = np.ascontiguousarray(joined["chunk_duration_ms"])
    block.bitrate_kbps = np.ascontiguousarray(joined["bitrate_kbps"])
    block.dropped_frames = np.ascontiguousarray(joined["dropped_frames"])
    block.total_frames = np.ascontiguousarray(joined["total_frames"])
    dfb = np.ascontiguousarray(joined["dfb_ms"])
    dlb = np.ascontiguousarray(joined["dlb_ms"])
    block.download_ms = dfb + dlb

    # -- per-chunk TCP aggregates -------------------------------------------
    has_tcp, last_srtt, last_cwnd, last_mss, srtt_min, rto, has_pos = _tcp_by_key(
        loaded[2][0], keys[2], jkey
    )

    # -- elementwise chunk math (bit-exact oracle associations) -------------
    d_wait = np.ascontiguousarray(cdn["d_wait_ms"])
    d_open = np.ascontiguousarray(cdn["d_open_ms"])
    d_read = np.ascontiguousarray(cdn["d_read_ms"])
    d_be = np.ascontiguousarray(cdn["d_be_ms"])
    chunk_bytes = np.ascontiguousarray(cdn["chunk_bytes"])
    d_cdn = d_wait + d_open + d_read
    server_ms = d_cdn + d_be
    total_dl = block.download_ms
    score = np.divide(
        block.chunk_duration_ms, total_dl, out=np.full(n, np.inf), where=total_dl > 0
    )
    latency_share = np.divide(dfb, total_dl, out=np.zeros(n), where=total_dl > 0)
    throughput_share = 1.0 - latency_share
    rtt0 = np.maximum(dfb - server_ms, 0.1)
    baseline = np.minimum(rtt0, srtt_min)
    ds_bound = np.where(
        has_pos, np.maximum(dfb - d_cdn - d_be - rto, 0.0), 0.0
    )
    drops = np.divide(
        block.dropped_frames,
        block.total_frames,
        out=np.zeros(n),
        where=block.total_frames > 0,
    )
    tp_inst = np.divide(
        chunk_bytes * 8.0, dlb, out=np.full(n, np.inf), where=dlb > 0
    )
    connection_tp = np.divide(
        (last_cwnd * last_mss) * 8.0, last_srtt, out=np.zeros(n), where=last_srtt > 0
    )
    transient_sig = (
        has_tcp
        & (last_srtt > 0)
        & (connection_tp > 0)
        & (tp_inst > TP_BURST_FACTOR * connection_tp)
    )

    # -- Eq. 4 per-session outlier statistics -------------------------------
    # a chunk without a positive last-byte delay has no rate: not an Eq. 4 row
    qualified = has_tcp & (last_srtt > 0) & (dlb > 0)
    idx_q = np.flatnonzero(qualified)
    transient_flag = np.zeros(n, dtype=bool)
    if len(idx_q):
        q_new = _change_points(jcode[idx_q])
        q_inv = np.cumsum(q_new) - 1
        q_starts = np.flatnonzero(q_new)
        q_counts = np.diff(np.append(q_starts, len(idx_q)))
        features = np.stack(
            [
                dfb[idx_q],
                tp_inst[idx_q],
                last_srtt[idx_q],
                server_ms[idx_q],
                last_cwnd[idx_q].astype(np.float64),
            ],
            axis=1,
        )
        mu = _grouped_seq_sum(features, q_starts, q_counts) / q_counts[:, None]
        diff = features - mu[q_inv]
        sigma = np.sqrt(_grouped_seq_sum(diff * diff, q_starts, q_counts) / q_counts[:, None])
        mu_r = mu[q_inv]
        sg_r = sigma[q_inv]
        eligible = q_counts[q_inv] >= MIN_EQ4_CHUNKS
        high_dfb = (features[:, 0] > mu_r[:, 0] + 2.0 * sg_r[:, 0]) & (sg_r[:, 0] > 0)
        high_tp = (features[:, 1] > mu_r[:, 1] + 2.0 * sg_r[:, 1]) & (sg_r[:, 1] > 0)
        normal_net = (
            (features[:, 2] < mu_r[:, 2] + sg_r[:, 2])
            & (features[:, 3] < mu_r[:, 3] + sg_r[:, 3])
            & (features[:, 4] < mu_r[:, 4] + sg_r[:, 4])
        )
        flagged_rows = idx_q[eligible & high_dfb & high_tp & normal_net]
        if len(flagged_rows):
            # the Eq. 4 flag set holds chunk *ids*, so every joined row
            # sharing a flagged (session, chunk) key is flagged
            key_index = np.cumsum(_change_points(jkey)) - 1
            flagged_keys = np.zeros(n, dtype=bool)
            flagged_keys[key_index[flagged_rows]] = True
            transient_flag = flagged_keys[key_index]

    # -- the attribution cascade, as one np.select --------------------------
    with np.errstate(invalid="ignore"):
        c_transient = transient_flag | transient_sig
        c_ds_bound = (ds_bound > np.maximum(server_ms, baseline)) & (ds_bound > DS_BOUND_MS)
        c_server = (server_ms > baseline) & (server_ms > SERVER_BOUND_MS)
        c_bad = score < BAD_SCORE
        c_bad_tp = throughput_share >= THROUGHPUT_SHARE
        c_tail = (baseline > TAIL_RTT_MS) & (
            np.ascontiguousarray(joined["rebuffer_count"]) > 0
        )
        c_render = (
            np.ascontiguousarray(joined["visible"])
            & ~np.ascontiguousarray(joined["hw_rendered"])
            & (drops > BAD_RENDER_FRACTION)
            & (score >= GOOD_RATE)
        )
    cds = _CODE_OF[Bottleneck.CLIENT_DOWNLOAD_STACK]
    block.verdict = np.select(
        [c_transient, c_ds_bound, c_server, c_bad & c_bad_tp, c_bad, c_tail, c_render],
        [
            cds,
            cds,
            _CODE_OF[Bottleneck.SERVER],
            _CODE_OF[Bottleneck.NETWORK_THROUGHPUT],
            _CODE_OF[Bottleneck.NETWORK_LATENCY],
            _CODE_OF[Bottleneck.NETWORK_LATENCY],
            _CODE_OF[Bottleneck.CLIENT_RENDERING],
        ],
        default=_CODE_OF[Bottleneck.NONE],
    ).astype(np.int64)

    # -- ground truth (last-wins, like the oracle's dict rebuild) -----------
    gt = loaded[3][0]
    match = _last_wins_match(keys[3], jkey)
    if match is None:
        block.has_truth = np.ones(n, dtype=bool)
        block.fault_labels = gt["fault_labels"]
    else:
        has_truth, jt = match
        labels = np.zeros(n, dtype=COLUMN_SCHEMAS["ground_truth"].dtype["fault_labels"])
        labels[has_truth] = gt["fault_labels"][jt[has_truth]]
        block.has_truth = has_truth
        block.fault_labels = labels
    return block


# ---------------------------------------------------------------------------
# driver


_STATE_FACTORIES = {
    "qoe": _QoeState,
    "localization": LocalizationState,
    "faultscore": FaultScoreState,
}

def _checked(analyses: Iterable[str]) -> Tuple[str, ...]:
    """*analyses* as a tuple; an unknown name raises ``ValueError``."""
    requested = tuple(analyses)
    for name in requested:
        if name not in ANALYSIS_KINDS:
            raise ValueError(
                f"unknown analysis {name!r}; choose from {ANALYSIS_KINDS}"
            )
    return requested


def iter_joined_blocks(dataset: Any, metrics: Optional[Any] = None) -> Iterator[JoinedBlock]:
    """The joined, diagnosed blocks of *dataset*, in session order.

    The one pass shape: it reads every record kind, joins player and CDN
    rows, and runs the localization cascade on TCP snapshots and ground
    truth, so each block feeds QoE, localization and the fault score
    alike.  Blocks with no kept session are skipped.  Each block runs —
    the consumer's work on it included — inside an ``analysis.block``
    span of *metrics* and is counted in its ``analysis.*_total``
    counters.  Once the consumer has folded a block (or it was skipped),
    a spilled run drops the mapped pages of every row up to the block's
    end (:meth:`_BlockPlan.release`), so a pass holds about one block of
    rows resident whatever the spill's size; in memory that does
    nothing.  Nothing is memoized: every call joins.
    """
    from .. import obs

    registry = metrics if metrics is not None else obs.MetricsRegistry()
    blocks_total = registry.counter("analysis.blocks_total")
    sessions_total = registry.counter("analysis.sessions_total")
    chunks_total = registry.counter("analysis.chunks_total")
    # the cascade reads every record kind
    plan = _BlockPlan({kind: dataset.run_arrays(kind) for kind in SPILL_KINDS})
    for i in range(plan.n_blocks):
        with registry.span("analysis.block"):
            block = _compute_block(plan, i)
            blocks_total.inc()
            if block is not None:
                sessions_total.inc(block.n_kept)
                chunks_total.inc(len(block.verdict))
                yield block
                del block  # build the next block without holding this one
            plan.release(i)


def analyze_dataset(
    dataset: Any,
    analyses: Iterable[str] = ANALYSIS_KINDS,
    metrics: Optional[Any] = None,
) -> Dict[str, Any]:
    """*analyses* over *dataset*, from its one memoized pass.

    Returns ``{name: result}`` with each result bit-identical to its
    per-session oracle (``tests/streaming_oracle.py``).  Whatever is
    requested, the first call on *dataset* runs the cascade pass, which
    folds QoE, localization and the fault score together, and memoizes
    all three results on *dataset*; so ``summarize``,
    ``diagnose_dataset`` and ``score_fault_localization`` on one dataset
    join it once, in any order.  Every dataset is a snapshot — a
    :class:`~repro.telemetry.dataset.Dataset` never changes, and a
    :class:`~repro.telemetry.spill.SpilledDataset` maps a sealed spill's
    run files once, at open (reopen the spill to read it again) — so the
    memo lasts as long as the object.  A memo hit runs no block, opens no span and counts
    nothing; with *metrics* None it publishes an empty registry.  Every
    call returns its own copies, and a pass that raises memoizes
    nothing.
    """
    from .. import obs

    requested = _checked(analyses)
    registry = metrics if metrics is not None else obs.MetricsRegistry()
    results = vars(dataset).get("_analysis")
    if results is None:
        with registry.span("analysis.read"):
            states = {name: _STATE_FACTORIES[name]() for name in ANALYSIS_KINDS}
            for block in iter_joined_blocks(dataset, metrics=registry):
                for state in states.values():
                    state.update(block)
                del block  # not held while the next block is built
            results = {name: state.result() for name, state in states.items()}
        vars(dataset)["_analysis"] = results
    if metrics is None:
        obs.publish_last_run(registry)
    return {name: copy.deepcopy(results[name]) for name in requested}


def analyze_datasets(
    datasets: Iterable[Any],
    analyses: Iterable[str] = ANALYSIS_KINDS,
    metrics: Optional[Any] = None,
) -> Tuple[Dict[str, Any], List[Dict[str, float]]]:
    """*analyses* folding every dataset's blocks, in order, into one state
    per analysis; returns ``({name: result}, [QoE summary per dataset])``.

    Each dataset is joined on its own, so no session is joined across
    datasets: this is how a multi-period run, whose periods may reuse
    session ids, is analyzed as a whole.  The same blocks feed each
    dataset's own QoE state, which equals ``qoe.summarize`` of it.
    Nothing is memoized: every call joins every dataset.
    """
    from .. import obs

    requested = _checked(analyses)
    registry = metrics if metrics is not None else obs.MetricsRegistry()
    states = {name: _STATE_FACTORIES[name]() for name in requested}
    own_qoe: List[Dict[str, float]] = []
    with registry.span("analysis.read"):
        for dataset in datasets:
            own = _QoeState()
            for block in iter_joined_blocks(dataset, metrics=registry):
                own.update(block)
                for state in states.values():
                    state.update(block)
                del block  # not held while the next block is built
            own_qoe.append(own.result())
    if metrics is None:
        obs.publish_last_run(registry)
    return {name: state.result() for name, state in states.items()}, own_qoe
