"""Columnar analysis read path: byte identity with the per-session oracle.

The contract under test (docs/PERFORMANCE.md, "The read path"): for every
dataset shape the pipeline produces — in-memory, single spill with many
sorted runs per kind, sharded spill, multi-period layout (including an
empty period), one session, no sessions at all — the vectorized
``repro.core.columnar_analysis`` pass, and the three public analyses
that run it, return *identical* results to the per-session oracle
(``consume`` in ``tests/streaming_oracle.py``): the same dicts in the
same insertion order (asserted via JSON serialization), the same
``FaultScoreReport`` structure down to Counter key order and the
formatted report text.  The fault-score state that ``repro serve``
carries across rounds must not grow with the blocks it folds.

Also pins that an in-memory dataset is encoded once, when it is
collected: a proxy filter and the three analyses after it encode
nothing, the arrays are read-only, and analysing never shows in ``==``,
``repr`` or pickles.  And the analyse-once rule of ``analyze_dataset``:
the three public calls on one dataset object, in any order, run one
cascade pass, whose memoized results last as long as the object (every
dataset is a snapshot), are handed out as copies, stay out of pickles,
and cost a hit no block, span or count.  Identity checks run each call
on a fresh object, so no memoized result stands in for the pass under
test.  The sequential grouped sums the pass relies on are checked
against a Python ``sum`` loop.
"""

from __future__ import annotations

import dataclasses
import json
import mmap
import pickle
import random
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.api import run
from repro.core import columnar_analysis as ca
from repro.core import downstack
from repro.core.faultscore import score_fault_localization
from repro.core.localization import Bottleneck, diagnose_dataset, diagnose_session
from repro.core.proxy_filter import filter_proxies
from repro.core.qoe import summarize
from repro.faults import FaultEvent, FaultSpec
from repro.obs.registry import MetricsRegistry
from repro.simulation.config import SimulationConfig
from repro.telemetry import dataset as dataset_module
from repro.telemetry import spill as spill_module
from repro.telemetry.columnar import COLUMN_SCHEMAS, SPILL_KINDS, array_to_records
from repro.telemetry.dataset import Dataset
from repro.telemetry.beacons import export_beacons_csv
from repro.telemetry.io import save_dataset
from repro.telemetry.spill import SpilledDataset, SpillWriter
from repro.telemetry.synth import synthesize_sharded, synthesize_spill
from helpers import (
    cdn_chunk,
    make_records,
    needs_smaps,
    player_chunk,
    records_of,
    resident_kib,
    row,
    tcp_snap,
)
from streaming_oracle import (
    FaultScoreAccumulator,
    LocalizationAccumulator,
    QoeAccumulator,
    consume,
)


def _mixed_spec() -> FaultSpec:
    return FaultSpec(
        name="mixed",
        events=(
            FaultEvent("deg", "server-degraded", 0.0, 1e12, 8.0, server_fraction=0.5),
            FaultEvent("lat", "network-latency", 0.0, 1e12, 5.0, orgs=("Comcast",)),
            FaultEvent("rend", "client-render", 0.0, 1e12, 0.5, platforms=("Windows",)),
        ),
    )


@pytest.fixture(scope="module")
def faulted_dataset():
    """A simulated in-memory dataset with ground-truth labels of all layers.
    Like every dataset it is canonical; ``finely_spilled`` is the same run
    read from interleaving runs in emission order."""
    config = SimulationConfig(n_sessions=150, warmup_sessions=50, seed=11)
    return run(config, faults=_mixed_spec()).dataset


def _assert_reports_identical(columnar, records) -> None:
    # dataclass equality covers counts, per-class tallies, confusion values
    assert columnar == records
    # ...but dict equality ignores insertion order, which is part of the
    # serialization contract — pin it explicitly, Counter keys included
    assert list(columnar.classes) == list(records.classes)
    assert list(columnar.confusion) == list(records.confusion)
    for category in records.confusion:
        assert list(columnar.confusion[category]) == list(
            records.confusion[category]
        ), category
    assert columnar.format_report() == records.format_report()


def _public_results(dataset):
    return (
        summarize(dataset),
        diagnose_dataset(dataset),
        score_fault_localization(dataset),
    )


def _assert_results_identical(results, oracle) -> None:
    (q, loc, fs), (q_rec, loc_rec, fs_rec) = results, oracle
    assert json.dumps(q) == json.dumps(q_rec)
    assert json.dumps(loc) == json.dumps(loc_rec)
    _assert_reports_identical(fs, fs_rec)


def _oracle(dataset):
    return consume(
        dataset, QoeAccumulator(), LocalizationAccumulator(), FaultScoreAccumulator()
    )


def _fresh(dataset):
    """A new object over *dataset*'s telemetry, with nothing decoded or
    memoized: a reopened spill, or a new Dataset over copies of the same
    arrays."""
    if isinstance(dataset, SpilledDataset):
        return SpilledDataset(dataset.directories)
    return Dataset.from_runs({kind: dataset.run_arrays(kind) for kind in SPILL_KINDS})


def _assert_paths_identical(dataset) -> None:
    """Per-session oracle vs the columnar pass, each on a fresh object:
    through ``analyze_dataset``; each public call alone (each runs the
    cascade pass); and the three public calls after a pass, all memo
    hits."""
    oracle = _oracle(dataset)
    out = ca.analyze_dataset(_fresh(dataset))
    _assert_results_identical(
        (out["qoe"], out["localization"], out["faultscore"]), oracle
    )
    alone = (
        summarize(_fresh(dataset)),
        diagnose_dataset(_fresh(dataset)),
        score_fault_localization(_fresh(dataset)),
    )
    _assert_results_identical(alone, oracle)
    analysed = _fresh(dataset)
    ca.analyze_dataset(analysed)
    _assert_results_identical(_public_results(analysed), oracle)


class TestByteIdentity:
    def test_in_memory_faulted(self, faulted_dataset):
        _assert_paths_identical(faulted_dataset)

    def test_spilled_multi_run(self, tmp_path):
        # >4096 sessions => several sorted runs per kind, exercising the
        # merge-order reconstruction of the blockwise planner
        spilled = synthesize_spill(
            tmp_path / "s", 10_000, seed=5, threshold_rows=2048
        )
        assert len(spilled.run_arrays("player_chunks")) >= 3
        _assert_paths_identical(spilled)

    def test_sharded_spill(self, tmp_path):
        spilled = synthesize_sharded(
            tmp_path / "sh", 600, 2, seed=9, threshold_rows=256
        )
        assert len(spilled.directories) == 2
        _assert_paths_identical(spilled)

    def test_multi_period_with_empty_period(self, tmp_path):
        synthesize_spill(tmp_path / "period-a", 300, seed=3, threshold_rows=256)
        SpillWriter(tmp_path / "period-b", threshold_rows=128).finalize()
        spilled = SpilledDataset([tmp_path / "period-a", tmp_path / "period-b"])
        _assert_paths_identical(spilled)

    def test_single_session(self, tmp_path):
        spilled = synthesize_spill(tmp_path / "one", 1, seed=2)
        _assert_paths_identical(spilled)

    def test_empty_spill(self, tmp_path):
        SpillWriter(tmp_path / "empty", threshold_rows=128).finalize()
        spilled = SpilledDataset(tmp_path / "empty")
        out = ca.analyze_dataset(spilled)
        assert out["qoe"] == {"n_sessions": 0}
        assert out["localization"] == {}
        assert out["faultscore"].n_chunks == 0
        _assert_paths_identical(spilled)

    def test_forced_small_blocks(self, tmp_path, monkeypatch):
        # shrink the block budget so the 600-session spill needs many
        # blocks; identity must not depend on where block cuts fall
        spilled = synthesize_spill(tmp_path / "s", 600, seed=6, threshold_rows=512)
        monkeypatch.setattr(ca, "ITER_BLOCK_ROWS", 97)
        registry = MetricsRegistry()
        ca.analyze_dataset(spilled, metrics=registry)
        counters = registry.execution_snapshot()["counters"]
        assert counters["analysis.blocks_total"] > 5
        assert counters["analysis.sessions_total"] == 600
        _assert_paths_identical(spilled)

    def test_snapshot_without_srtt_sets_no_rtt_floor(self):
        # only the 300 ms sample bounds the chunk's RTT baseline: counting
        # the srtt-0 snapshot would call 60 ms of server time a bottleneck
        snapshots = [
            _record("tcp_snapshots", session_id="s0", chunk_id=0, t_ms=t_ms,
                    srtt_ms=srtt_ms, cwnd_segments=10, mss=1460)
            for t_ms, srtt_ms in ((0.0, 0.0), (1.0, 300.0))
        ]
        dataset = Dataset(
            player_sessions=[_record("player_sessions", session_id="s0")],
            cdn_sessions=[_record("cdn_sessions", session_id="s0")],
            player_chunks=[
                _record("player_chunks", session_id="s0", chunk_id=0, dfb_ms=400.0,
                        dlb_ms=400.0, chunk_duration_ms=4000.0, total_frames=96)
            ],
            cdn_chunks=[
                _record("cdn_chunks", session_id="s0", chunk_id=0, d_wait_ms=30.0,
                        d_open_ms=30.0)
            ],
            tcp_snapshots=snapshots,
        )
        _assert_paths_identical(dataset)
        assert diagnose_dataset(dataset)[Bottleneck.SERVER.value] == 0.0

    def test_forced_small_blocks_with_fault_labels(self, faulted_dataset, monkeypatch):
        # the fault-score state counts false positives block by block, so
        # identity must not depend on where block cuts fall in labelled data;
        # a fresh copy, so no pass memoized under the default block size
        # answers for the small one
        dataset = _fresh(faulted_dataset)
        monkeypatch.setattr(ca, "ITER_BLOCK_ROWS", 97)
        blocks = list(ca.iter_joined_blocks(dataset))
        assert len(blocks) > 5
        _assert_paths_identical(dataset)

    def test_chunk_without_last_byte_delay_is_no_eq4_row(self):
        # chunk 5 is buffered: first-byte delay and rate far above the
        # session's, connection and server below its mean.  Chunk 2 has
        # dlb_ms = 0.0 and so no rate: an infinite TP_inst in the Eq. 4
        # statistics would make every std NaN and hide chunk 5.
        srtt = [60.0, 62.0, 64.0, 66.0, 68.0, 10.0, 70.0, 72.0]
        cwnd = [100, 104, 108, 112, 116, 50, 120, 124]
        records = make_records(8)
        records["player_chunks"] = [
            player_chunk(
                chunk=i,
                dfb_ms=2000.0 if i == 5 else 100.0,
                dlb_ms={5: 50.0, 2: 0.0}.get(i, 900.0),
            )
            for i in range(8)
        ]
        records["cdn_chunks"] = [
            cdn_chunk(chunk=i, d_read_ms=0.5 if i == 5 else 1.0 + 0.25 * i) for i in range(8)
        ]
        records["tcp_snapshots"] = [
            tcp_snap(chunk=i, srtt_ms=srtt[i], cwnd_segments=cwnd[i]) for i in range(8)
        ]
        dataset = Dataset(**records)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (session,) = dataset.sessions()
            assert [c.chunk_id for c in downstack.detect_transient_outliers(session)] == [5]
            # chunk 5's rate stays within 2.5x of its connection's, so only
            # Eq. 4 names it; chunk 2's infinite rate is the signature
            assert [downstack.transient_signature(c) for c in session.chunks] == [
                i == 2 for i in range(8)
            ]
            _assert_paths_identical(dataset)
            _assert_blocks_hold_the_oracle_views(dataset)
            (block,) = ca.iter_joined_blocks(dataset)
        stack = list(Bottleneck).index(Bottleneck.CLIENT_DOWNLOAD_STACK)
        assert np.flatnonzero(block.verdict == stack).tolist() == [2, 5]


@pytest.fixture(scope="module")
def finely_spilled(tmp_path_factory):
    """The faulted run spilled every 64 rows: each kind has many runs, and
    the runs of a chunk kind split sessions between them."""
    directory = tmp_path_factory.mktemp("fine") / "spill"
    config = SimulationConfig(
        n_sessions=150,
        warmup_sessions=50,
        seed=11,
        spill_dir=str(directory),
        spill_threshold_rows=64,
    )
    return run(config, faults=_mixed_spec()).dataset


class TestOverlappingRuns:
    """Blocks whose sessions span several runs merge them by int keys."""

    @pytest.mark.parametrize(
        "kind", ["player_chunks", "cdn_chunks", "tcp_snapshots", "ground_truth"]
    )
    def test_runs_split_sessions(self, finely_spilled, kind):
        runs = finely_spilled.run_arrays(kind)
        assert len(runs) > 10
        holders = Counter(sid for r in runs for sid in set(r["session_id"].tolist()))
        assert max(holders.values()) > 1
        # and the runs' session ranges interleave, not just touch
        ranges = sorted((r["session_id"][0], r["session_id"][-1]) for r in runs)
        assert sum(hi > lo for (_, hi), (lo, _) in zip(ranges, ranges[1:])) > len(runs) // 2

    @pytest.mark.parametrize("block_rows", [None, 97])
    def test_identity_with_oracle_and_in_memory_run(
        self, finely_spilled, faulted_dataset, monkeypatch, block_rows
    ):
        if block_rows is not None:
            monkeypatch.setattr(ca, "ITER_BLOCK_ROWS", block_rows)
        _assert_paths_identical(finely_spilled)
        # fresh objects: the module-scoped ones may hold passes memoized
        # under another block size
        spilled = ca.analyze_dataset(_fresh(finely_spilled))
        memory = ca.analyze_dataset(_fresh(faulted_dataset))
        _assert_results_identical(
            (spilled["qoe"], spilled["localization"], spilled["faultscore"]),
            (memory["qoe"], memory["localization"], memory["faultscore"]),
        )


_CHUNK_KINDS = ("player_chunks", "cdn_chunks", "tcp_snapshots", "ground_truth")


def _shift_chunk_ids(dataset: Dataset, offset: int) -> Dataset:
    """A copy of *dataset* with *offset* added to every chunk id."""
    records = records_of(dataset)
    for kind in _CHUNK_KINDS:
        records[kind] = [
            dataclasses.replace(r, chunk_id=r.chunk_id + offset) for r in records[kind]
        ]
    return Dataset(**records)


def _spill(records_by_kind, directory: Path, threshold_rows: int) -> SpilledDataset:
    writer = SpillWriter(directory, threshold_rows=threshold_rows)
    for kind, records in records_by_kind:
        for record in records:
            writer.add(kind, row(record))
    return writer.finalize()


class TestChunkIdRange:
    """Fused ``(session, chunk)`` keys are int64: ids that cannot fit raise."""

    @pytest.fixture(scope="class")
    def thirty_sessions(self, faulted_dataset):
        keep = [r.session_id for r in faulted_dataset.player_sessions[:30]]
        return faulted_dataset.filter_sessions(keep)

    def _shuffled_spill(self, dataset, tmp_path):
        # each kind's records in a seeded shuffle, so the 16-row runs
        # interleave, as emission-order runs do
        records = records_of(dataset)
        for index, kind in enumerate(SPILL_KINDS):
            random.Random(index).shuffle(records[kind])
        spilled = _spill(records.items(), tmp_path / "s", 16)
        runs = spilled.run_arrays("player_chunks")
        ranges = sorted((r["session_id"][0], r["session_id"][-1]) for r in runs)
        assert sum(hi > lo for (_, hi), (lo, _) in zip(ranges, ranges[1:])) > len(runs) // 2
        return spilled

    def test_large_ids_that_fit_match_the_oracle(self, thirty_sessions, tmp_path):
        shifted = _shift_chunk_ids(thirty_sessions, 2**40)
        _assert_paths_identical(shifted)
        _assert_paths_identical(self._shuffled_spill(shifted, tmp_path))

    def test_in_memory_join_key_overflow_raises(self, thirty_sessions):
        shifted = _shift_chunk_ids(thirty_sessions, 2**60)
        with pytest.raises(ValueError, match="fit int64"):
            ca.analyze_dataset(shifted)

    def test_multi_run_spill_key_overflow_raises(self, thirty_sessions, tmp_path):
        spilled = self._shuffled_spill(_shift_chunk_ids(thirty_sessions, 2**60), tmp_path)
        assert len(spilled.run_arrays("player_chunks")) > 5
        with pytest.raises(ValueError, match="fit int64"):
            ca.analyze_dataset(spilled, ("qoe",))
        with pytest.raises(ValueError, match="fit int64"):
            ca.analyze_dataset(spilled)

    def test_key_limit_is_exact(self):
        # a block holds at most ITER_BLOCK_ROWS = 2**16 sessions, so any id
        # below 2**47 fits: the largest key is 2**16 * 2**47 - 1
        assert ca.ITER_BLOCK_ROWS == 2**16
        assert ca._fuse_factor(2**16, [np.array([2**47 - 1])]) == 2**47
        with pytest.raises(ValueError, match="fit int64"):
            ca._fuse_factor(2**16, [np.array([2**47])])
        # one session: the keys are the ids, but the factor is an int64 too
        assert ca._fuse_factor(1, [np.array([2**63 - 2])]) == 2**63 - 1
        with pytest.raises(ValueError, match="fit int64"):
            ca._fuse_factor(1, [np.array([2**63 - 1])])

    def test_largest_key_that_fits_matches_the_oracle(self, thirty_sessions):
        keep = [r.session_id for r in thirty_sessions.player_sessions[:2]]
        two = thirty_sessions.filter_sessions(keep)
        top = max(r.chunk_id for kind in _CHUNK_KINDS for r in getattr(two, kind))
        # two sessions with chunk ids up to 2**62 - 1: the last key is 2**63 - 1
        _assert_paths_identical(_shift_chunk_ids(two, 2**62 - 1 - top))
        with pytest.raises(ValueError, match="fit int64"):
            ca.analyze_dataset(_shift_chunk_ids(two, 2**62 - top))

    def test_negative_ids_raise(self, thirty_sessions, tmp_path):
        shifted = _shift_chunk_ids(thirty_sessions, -1)
        with pytest.raises(ValueError, match="non-negative chunk ids"):
            ca.analyze_dataset(shifted)
        with pytest.raises(ValueError, match="non-negative chunk ids"):
            ca.analyze_dataset(self._shuffled_spill(shifted, tmp_path))

    def test_overflow_raises_again_and_memoizes_nothing(self, thirty_sessions, tmp_path):
        shifted = _shift_chunk_ids(thirty_sessions, 2**60)
        for dataset in (shifted, self._shuffled_spill(shifted, tmp_path)):
            for _ in range(2):
                for call in (summarize, diagnose_dataset, score_fault_localization):
                    with pytest.raises(ValueError, match="fit int64"):
                        call(dataset)
            assert not _memo(dataset)


def _record(kind: str, **values):
    """One record of *kind*: the given fields, zero or empty elsewhere."""
    row = np.zeros(1, dtype=COLUMN_SCHEMAS[kind].dtype)
    for name, value in values.items():
        row[name] = value
    (record,) = array_to_records(kind, row)
    return record


_MS = st.sampled_from((0.0, 2.0, 30.0, 400.0, 5000.0))
#: copies of a record; one is the common case and the one examples shrink to
_COPIES = st.sampled_from((1, 2, 0))
_FIELDS = {
    "player_sessions": st.fixed_dictionaries({"start_ms": _MS}),
    "cdn_sessions": st.fixed_dictionaries({"org": st.sampled_from(("isp-a", "isp-b"))}),
    "player_chunks": st.fixed_dictionaries(
        {
            "dfb_ms": _MS,
            "dlb_ms": _MS,
            "bitrate_kbps": st.sampled_from((235.0, 3000.0)),
            "chunk_duration_ms": st.sampled_from((4000.0, 0.0)),
            "rebuffer_count": st.integers(0, 1),
            "rebuffer_ms": _MS,
            "visible": st.booleans(),
            "dropped_frames": st.integers(0, 96),
            "total_frames": st.sampled_from((96, 0)),
            "hw_rendered": st.booleans(),
        }
    ),
    "cdn_chunks": st.fixed_dictionaries(
        {
            "d_wait_ms": _MS,
            "d_open_ms": _MS,
            "d_read_ms": _MS,
            "d_be_ms": _MS,
            "chunk_bytes": st.sampled_from((250_000, 0)),
            "server_id": st.sampled_from(("server-a", "server-b")),
        }
    ),
    # a slow, a fast and an unmeasured connection: which snapshot is last
    # decides the transient-throughput signal
    "tcp_snapshots": st.builds(
        lambda t_ms, connection: dict(
            t_ms=t_ms, cwnd_segments=connection[0], srtt_ms=connection[1], rttvar_ms=5.0, mss=1460
        ),
        st.sampled_from((0.0, 1.0, 2.0)),
        st.sampled_from(((1, 300.0), (80, 20.0), (10, 0.0))),
    ),
    "ground_truth": st.fixed_dictionaries(
        {
            "fault_labels": st.sampled_from(
                ("", "server-degraded:d1", "network-latency:l1,client-render:r1", "mystery:x1")
            )
        }
    ),
}


@st.composite
def _emissions(draw):
    """Records of every kind for up to four sessions, in a random emission
    order.  A session may lack its player or CDN session record or carry
    two; a chunk may lack either side, repeat on either side, and carry
    several snapshots, some at the same time.  In a mirrored example every
    chunk has as many CDN and ground-truth rows as player rows, so blocks
    can take the join's pairwise path with repeated keys."""
    records = []
    mirror = draw(st.booleans())

    def emit(kind, copies, **key):
        for _ in range(copies):
            records.append((kind, _record(kind, session_id=sid, **key, **draw(_FIELDS[kind]))))

    for sid in ("s0", "s1", "s2", "s3")[: draw(st.sampled_from((4, 3, 2, 1)))]:
        emit("player_sessions", draw(_COPIES))
        emit("cdn_sessions", draw(_COPIES))
        for chunk_id in range(draw(st.integers(0, 7))):
            players = draw(_COPIES)
            emit("player_chunks", players, chunk_id=chunk_id)
            emit("cdn_chunks", players if mirror else draw(_COPIES), chunk_id=chunk_id)
            emit("tcp_snapshots", draw(st.sampled_from((2, 1, 3, 0))), chunk_id=chunk_id)
            emit("ground_truth", players if mirror else draw(_COPIES), chunk_id=chunk_id)
    return draw(st.permutations(records))


def _gap_session_emissions():
    """Three sessions with three chunks each, where the middle session has
    no player session record: its rows fall inside the block's session
    range but outside its universe."""
    records = []
    for sid in ("s0", "s1", "s2"):
        if sid != "s1":
            records.append(("player_sessions", _record("player_sessions", session_id=sid)))
        records.append(("cdn_sessions", _record("cdn_sessions", session_id=sid)))
        for chunk_id in range(3):
            key = dict(session_id=sid, chunk_id=chunk_id)
            player = _record("player_chunks", dlb_ms=400.0, chunk_duration_ms=4000.0, **key)
            records.append(("player_chunks", player))
            records.append(("cdn_chunks", _record("cdn_chunks", **key)))
    return records


def _assert_blocks_hold_the_oracle_views(dataset) -> None:
    """Session by session and chunk by chunk, the joined blocks hold the
    oracle views' records, ground-truth labels and verdicts, in order."""
    views = list(dataset.iter_sessions())
    blocks = list(ca.iter_joined_blocks(dataset))
    assert [
        pair
        for block in blocks
        for pair in zip(
            array_to_records("player_sessions", block.player_sessions),
            array_to_records("cdn_sessions", block.cdn_sessions),
        )
    ] == [(view.player_session, view.cdn_session) for view in views]
    expected = [
        (chunk.player, chunk.cdn, chunk.truth and chunk.truth.fault_labels, attribution.bottleneck)
        for view in views
        for chunk, attribution in zip(view.chunks, diagnose_session(view).attributions)
    ]
    bottlenecks = list(Bottleneck)
    actual = [
        (player, cdn, labels.decode() if has_truth else None, bottlenecks[verdict])
        for block in blocks
        for player, cdn, has_truth, labels, verdict in zip(
            array_to_records("player_chunks", block.player_rows),
            array_to_records("cdn_chunks", block.cdn_rows),
            block.has_truth,
            block.fault_labels,
            block.verdict,
        )
    ]
    assert actual == expected


class TestMergeShapes:
    """Columnar == oracle on small spills of every merge shape the planner meets."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        emissions=_emissions(),
        threshold_rows=st.integers(1, 6),
        block_rows=st.sampled_from((1, 5, ca.ITER_BLOCK_ROWS)),
    )
    @example(emissions=_gap_session_emissions(), threshold_rows=3, block_rows=5)
    def test_columnar_matches_oracle(self, emissions, threshold_rows, block_rows):
        with tempfile.TemporaryDirectory() as tmp:
            spilled = _spill(
                [(kind, [record]) for kind, record in emissions],
                Path(tmp) / "spill",
                threshold_rows,
            )
            with mock.patch.object(ca, "ITER_BLOCK_ROWS", block_rows):
                _assert_paths_identical(spilled)
                _assert_blocks_hold_the_oracle_views(spilled)
            # the JSON-lines writer merges the runs' rows into the bytes
            # of the same records saved from memory
            records = {kind: [] for kind in SPILL_KINDS}
            for kind, record in emissions:
                records[kind].append(record)
            saved = save_dataset(spilled, Path(tmp) / "spilled")
            expected = save_dataset(Dataset(**records), Path(tmp) / "memory")
            for path in sorted(expected.iterdir()):
                assert (saved / path.name).read_bytes() == path.read_bytes(), path.name


def _python_grouped_sums(values, starts, counts):
    """Per-group column sums, each a Python ``sum`` over the group's rows
    in row order."""
    rows = values.reshape(len(values), -1).tolist()
    width = len(rows[0]) if rows else 1
    sums = []
    for start, count in zip(starts.tolist(), counts.tolist()):
        group = rows[start : start + count]
        sums.append([sum(column) for column in zip(*group)] if group else [0.0] * width)
    return np.array(sums, dtype=np.float64).reshape((len(starts),) + values.shape[1:])


class TestGroupedSeqSum:
    """``_grouped_seq_sum`` adds each group's rows in row order, bit for bit."""

    @pytest.mark.parametrize("columns", [(), (3,), (5,)])
    def test_matches_python_sum(self, columns):
        rng = np.random.default_rng(len(columns))
        # empty, single-row and short groups, and a long tail, in mixed order
        counts = np.array([0, 1, 3, 0, 500, 2, 1, 40, 7, 0], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        # magnitudes spread wide, so any regrouping of the additions shows
        values = rng.standard_normal((int(counts.sum()),) + columns) * 10.0 ** rng.integers(
            -8, 9, (int(counts.sum()),) + columns
        )
        out = ca._grouped_seq_sum(values, starts, counts)
        expected = _python_grouped_sums(values, starts, counts)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_no_groups_or_no_rows(self):
        empty = np.empty(0, dtype=np.int64)
        assert ca._grouped_seq_sum(np.empty((0, 2)), empty, empty).shape == (0, 2)
        zeros = ca._grouped_seq_sum(np.empty(0), np.zeros(3, np.int64), np.zeros(3, np.int64))
        assert zeros.tolist() == [0.0, 0.0, 0.0]


class TestFaultScoreState:
    """The fault-score state ``repro serve`` carries across rounds."""

    def test_state_does_not_grow_with_blocks_fed(self, faulted_dataset):
        blocks = list(ca.iter_joined_blocks(faulted_dataset))
        state = ca.FaultScoreState()
        sizes = []
        for _ in range(20):
            for block in blocks:
                state.update(block)
            sizes.append(len(pickle.dumps(state)))
        # spurious verdicts exist, so a per-event record would grow
        assert any(s.false_positives for s in state.result().classes.values())
        assert sizes[-1] - sizes[0] <= 1024, sizes

    def test_false_positives_do_not_depend_on_block_order(self):
        server = list(Bottleneck).index(Bottleneck.SERVER)
        # an unlabelled server verdict, the class's first chunk, another
        # unlabelled server verdict, a clean chunk: both spurious server
        # verdicts count against the class, wherever they come
        rows = [(server, b""), (server, b"cache-brownout:e1"), (server, b""), (0, b"")]

        def block(part):
            joined = ca.JoinedBlock()
            joined.verdict = np.array([verdict for verdict, _ in part], dtype=np.int64)
            joined.has_truth = np.ones(len(part), dtype=bool)
            joined.fault_labels = np.array([labels for _, labels in part], dtype="S160")
            return joined

        whole, split, reverse = (ca.FaultScoreState() for _ in range(3))
        whole.update(block(rows))
        for row in rows:
            split.update(block([row]))
        for row in reversed(rows):
            reverse.update(block([row]))
        (score,) = whole.result().classes.values()
        assert (score.true_positives, score.false_positives) == (1, 2)
        assert split.result() == whole.result()
        assert reverse.result() == whole.result()
        assert reverse.result().format_report() == whole.result().format_report()


def _memo(dataset):
    """The results memoized on *dataset*, by analysis."""
    return vars(dataset).get("_analysis", {})


class TestPassMemo:
    """``analyze_dataset`` runs one pass per dataset object, the cascade,
    and memoizes its results on it (docs/PERFORMANCE.md, "Analyse once")."""

    @pytest.fixture()
    def joins(self, monkeypatch):
        """The number of record kinds each pass read, one entry per pass."""
        passes = []
        plan = ca._BlockPlan

        class CountingPlan(plan):
            def __init__(self, runs, *args):
                passes.append(len(runs))
                super().__init__(runs, *args)

        monkeypatch.setattr(ca, "_BlockPlan", CountingPlan)
        return passes

    @pytest.fixture(params=["memory", "spill"])
    def source(self, request, faulted_dataset, finely_spilled):
        return faulted_dataset if request.param == "memory" else finely_spilled

    def test_three_calls_join_once_in_either_order(self, source, joins):
        dataset = _fresh(source)
        results = _public_results(dataset)
        # one pass, which reads all six kinds
        assert joins == [6]
        _public_results(dataset)
        assert joins == [6]
        reversed_order = _fresh(source)
        faultscore = score_fault_localization(reversed_order)
        localization = diagnose_dataset(reversed_order)
        qoe = summarize(reversed_order)
        assert joins == [6, 6]
        _assert_results_identical((qoe, localization, faultscore), results)
        _assert_results_identical(results, _oracle(source))

    def test_mutating_a_result_leaves_the_next_unchanged(self, faulted_dataset):
        dataset = _fresh(faulted_dataset)
        qoe, localization, report = _public_results(dataset)
        expected = _public_results(_fresh(faulted_dataset))
        qoe["n_sessions"] = -1
        localization.clear()
        report.n_chunks = -1
        for score in report.classes.values():
            score.true_positives = -1
        for row in report.confusion.values():
            row["none"] += 1_000
        _assert_results_identical(_public_results(dataset), expected)
        out = ca.analyze_dataset(dataset)
        out["qoe"]["n_sessions"] = -1
        out["faultscore"].classes.clear()
        _assert_results_identical(_public_results(dataset), expected)

    def test_memo_holds_results_only(self, faulted_dataset, finely_spilled):
        dataset, spilled = _fresh(faulted_dataset), _fresh(finely_spilled)
        for analysed in (dataset, spilled):
            summarize(analysed)
            memo = _memo(analysed)
            # one result set: every analysis of the one pass
            assert set(memo) == set(ca.ANALYSIS_KINDS)
            # the QoE summary dict, not the per-session arrays behind it
            assert all(isinstance(value, (int, float)) for value in memo["qoe"].values())
            assert len(pickle.dumps(memo)) < 4096

    def test_memo_stays_out_of_pickles(self, faulted_dataset, finely_spilled):
        dataset, spilled = _fresh(faulted_dataset), _fresh(finely_spilled)
        before = pickle.dumps(dataset), pickle.dumps(spilled)
        _public_results(dataset)
        _public_results(spilled)
        assert (pickle.dumps(dataset), pickle.dumps(spilled)) == before
        assert not _memo(pickle.loads(before[0]))
        assert not _memo(pickle.loads(before[1]))

    def test_a_hit_runs_no_block_and_counts_nothing(self, faulted_dataset, monkeypatch):
        dataset = _fresh(faulted_dataset)
        ca.analyze_dataset(dataset)
        assert obs.last_run()["spans"]

        def no_block(*args):
            raise AssertionError("a memo hit computed a block")

        monkeypatch.setattr(ca, "_compute_block", no_block)
        registry = MetricsRegistry()
        ca.analyze_dataset(dataset, metrics=registry)
        ca.analyze_dataset(dataset, ("qoe",), metrics=registry)
        empty = MetricsRegistry()
        assert registry.execution_snapshot() == empty.execution_snapshot()
        assert registry.spans_snapshot() == []
        # with no registry given, a hit publishes an empty one, so readers
        # of the last run never count a pass twice
        _public_results(dataset)
        assert obs.last_run() == {"metrics": empty.snapshot(), "spans": []}


class TestResolveAnalysis:
    """The analysis names ``analyze_dataset`` accepts."""

    def test_unknown_analysis_kind_rejected(self, tmp_path):
        spilled = synthesize_spill(tmp_path / "s", 10, seed=1)
        with pytest.raises(ValueError, match="unknown analys"):
            ca.analyze_dataset(spilled, analyses=("qoe", "bogus"))


class TestSharedEncode:
    """In-memory datasets are encoded once, when they are collected."""

    @pytest.fixture()
    def encodes(self, monkeypatch):
        # every encoder the dataset and spill modules call: records in
        # the dataset module, rows in the spill writer
        counts: Counter = Counter()
        for module, name in ((dataset_module, "records_to_array"), (spill_module, "rows_to_array")):
            encode = getattr(module, name)

            def counting(kind, records, encode=encode):
                counts[kind] += 1
                return encode(kind, records)

            monkeypatch.setattr(module, name, counting)
        return counts

    def test_filter_and_three_analyses_encode_nothing(self, faulted_dataset, encodes):
        dataset = _fresh(faulted_dataset)
        filtered, report = filter_proxies(dataset)
        assert report.n_kept_sessions < dataset.n_sessions  # the filter masked rows
        results = _public_results(filtered)
        assert encodes == Counter()
        _assert_results_identical(results, _oracle(filtered))

    def test_cached_arrays_are_reused_and_reject_writes(self, faulted_dataset):
        dataset = _fresh(faulted_dataset)
        for kind in SPILL_KINDS:
            (array,) = dataset.run_arrays(kind)
            assert dataset.run_arrays(kind)[0] is array
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[-1]
            with pytest.raises(ValueError, match="read-only"):
                array["session_id"][0] = b"x"
        assert Dataset().run_arrays("player_chunks") == []

    def test_analysis_leaves_eq_repr_and_pickle_unchanged(self, faulted_dataset):
        dataset = _fresh(faulted_dataset)
        before = (repr(dataset), pickle.dumps(dataset))
        _public_results(dataset)
        assert dataset == faulted_dataset
        assert repr(dataset) == before[0]
        assert pickle.dumps(dataset) == before[1]


# ---------------------------------------------------------------------------
# mapped pages: a spilled pass keeps about one block of rows resident


#: the largest page-cache folio on x86-64 Linux (2 MiB, a PMD): reading
#: the rows at either edge of a run's block slice maps at most one such
#: folio beyond the slice, and fault-around stays inside it
_FOLIO_KIB = 2048
_PAGE_KIB = mmap.PAGESIZE // 1024
#: the resident share of the interleaved simulated spill allowed at any
#: block.  Its runs are 150-500 KiB, so the folios mapped around a
#: block's slices cover much of each run: dropping every run's read
#: prefix after each block held at most 0.50 of the spill at any of its
#: 18 blocks; dropping only each block's slices climbs block by block
#: to 0.95-0.97, and keeping the pages the plan's searches map starts
#: at 1.0
_INTERLEAVED_RESIDENT_SHARE = 0.65


@pytest.fixture(scope="module")
def interleaved_spill(tmp_path_factory):
    """The directory of a simulated run spilled every 2,048 rows: the runs
    of each kind interleave sessions.  Only the path is kept, so no map of
    the simulator's own spill stays open."""
    directory = tmp_path_factory.mktemp("interleaved") / "spill"
    config = SimulationConfig(
        n_sessions=3_000,
        warmup_sessions=100,
        seed=11,
        spill_dir=str(directory),
        spill_threshold_rows=2_048,
    )
    run(config)
    return directory


def _resident_per_block(directory, plans):
    """One pass over a fresh open of *directory*: its plan (the one
    appended to *plans*), the resident KiB of the directory's maps at
    each block and after the pass, and the number of runs."""
    spilled = SpilledDataset(directory)
    assert resident_kib(directory) == 0
    samples = [resident_kib(directory) for _ in ca.iter_joined_blocks(spilled)]
    (plan,) = plans
    assert len(samples) == plan.n_blocks
    n_runs = sum(len(spilled.run_arrays(kind)) for kind in SPILL_KINDS)
    return plan, samples, resident_kib(directory), n_runs


@needs_smaps
class TestMappedPagesDropped:
    """A spilled pass drops the mapped pages of the rows it has read, so
    its resident run pages stay near one block's rows whatever the
    spill's size, and nothing stays resident after it; the writers drop
    what they stream.  Residency comes from ``/proc/self/smaps``: the
    pages mapped into this process, which tracemalloc does not count."""

    @pytest.fixture
    def plans(self, monkeypatch):
        plans = []

        class RecordedPlan(ca._BlockPlan):
            def __init__(self, runs):
                super().__init__(runs)
                plans.append(self)

        monkeypatch.setattr(ca, "_BlockPlan", RecordedPlan)
        return plans

    def test_synthetic_pass_holds_one_block_of_rows(self, tmp_path, monkeypatch, plans):
        # one run per kind, each many folios long, in 8 blocks
        directory = tmp_path / "s"
        synthesize_spill(directory, 16_000, seed=3)
        monkeypatch.setattr(ca, "ITER_BLOCK_ROWS", 16_384)
        plan, samples, after, n_runs = _resident_per_block(directory, plans)
        assert plan.n_blocks >= 4
        for i, sample in enumerate(samples):
            share = sum(
                int(b[i] - a[i]) * run.itemsize
                for entries in plan.slices.values()
                for run, a, b in entries
            )
            bound = share / 1024 + n_runs * 2 * _FOLIO_KIB
            assert sample <= bound, (i, sample, bound)
        assert after <= n_runs * _PAGE_KIB

    def test_interleaved_simulated_pass_stays_bounded(
        self, interleaved_spill, monkeypatch, plans
    ):
        monkeypatch.setattr(ca, "ITER_BLOCK_ROWS", 4_096)
        plan, samples, after, n_runs = _resident_per_block(interleaved_spill, plans)
        assert n_runs > 30 and plan.n_blocks >= 12
        spill_kib = sum(path.stat().st_size for path in interleaved_spill.iterdir()) / 1024
        assert max(samples) <= _INTERLEAVED_RESIDENT_SHARE * spill_kib, (samples, spill_kib)
        assert after <= n_runs * _PAGE_KIB

    def test_writers_drop_the_pages_they_stream(self, interleaved_spill, tmp_path):
        spilled = SpilledDataset(interleaved_spill)
        n_runs = sum(len(spilled.run_arrays(kind)) for kind in SPILL_KINDS)
        save_dataset(spilled, tmp_path / "jsonl")
        assert resident_kib(interleaved_spill) <= n_runs * _PAGE_KIB
        export_beacons_csv(spilled, tmp_path / "csv")
        assert resident_kib(interleaved_spill) <= n_runs * _PAGE_KIB
