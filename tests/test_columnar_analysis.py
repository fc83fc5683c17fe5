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

Also pins the in-memory encode-once rule of ``Dataset.run_arrays``: one
filter + three-analysis pass encodes each record kind once, mutations
between calls re-encode, cached arrays are read-only, and the cache never
shows in ``==``, ``repr`` or pickles.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
from collections import Counter

import numpy as np
import pytest

from repro.api import run
from repro.core import columnar_analysis as ca
from repro.core.faultscore import score_fault_localization
from repro.core.localization import Bottleneck, diagnose_dataset
from repro.core.proxy_filter import filter_proxies
from repro.core.qoe import summarize
from repro.faults import FaultEvent, FaultSpec
from repro.obs.registry import MetricsRegistry
from repro.simulation.config import SimulationConfig
from repro.telemetry import dataset as dataset_module
from repro.telemetry.columnar import SPILL_KINDS
from repro.telemetry.dataset import Dataset
from repro.telemetry.spill import SpilledDataset, SpillWriter
from repro.telemetry.synth import synthesize_sharded, synthesize_spill
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
def emitted_dataset():
    """A simulated in-memory dataset with ground-truth labels of all layers,
    records in emission order."""
    config = SimulationConfig(n_sessions=150, warmup_sessions=50, seed=11)
    return run(config, faults=_mixed_spec()).dataset


@pytest.fixture(scope="module")
def faulted_dataset(emitted_dataset):
    """The same dataset in canonical order."""
    return emitted_dataset.sorted()


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


def _assert_paths_identical(dataset) -> None:
    """Per-session oracle vs one columnar pass and vs the public calls."""
    oracle = _oracle(dataset)
    out = ca.analyze_dataset(dataset)
    _assert_results_identical(
        (out["qoe"], out["localization"], out["faultscore"]), oracle
    )
    _assert_results_identical(_public_results(dataset), oracle)


def _fresh_copy(dataset: Dataset) -> Dataset:
    """A new Dataset over new lists of the same record objects."""
    return Dataset.collect(dataset)


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

    def test_forced_small_blocks_with_fault_labels(self, faulted_dataset, monkeypatch):
        # the fault-score state counts false positives block by block, so
        # identity must not depend on where block cuts fall in labelled data
        monkeypatch.setattr(ca, "ITER_BLOCK_ROWS", 97)
        blocks = list(ca.iter_joined_blocks(faulted_dataset))
        assert len(blocks) > 5
        _assert_paths_identical(faulted_dataset)


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

    def test_false_positives_count_only_for_classes_seen_by_then(self):
        server = list(Bottleneck).index(Bottleneck.SERVER)
        # an unlabelled server verdict, the class's first chunk, another
        # unlabelled server verdict, a clean chunk
        rows = [(server, b""), (server, b"cache-brownout:e1"), (server, b""), (0, b"")]

        def block(part):
            joined = ca.JoinedBlock()
            joined.verdict = np.array([verdict for verdict, _ in part], dtype=np.int64)
            joined.has_truth = np.ones(len(part), dtype=bool)
            joined.fault_labels = np.array([labels for _, labels in part], dtype="S160")
            return joined

        whole, split = ca.FaultScoreState(), ca.FaultScoreState()
        whole.update(block(rows))
        for row in rows:
            split.update(block([row]))
        (score,) = whole.result().classes.values()
        assert (score.true_positives, score.false_positives) == (1, 1)
        assert split.result() == whole.result()


class TestResolveAnalysis:
    """The analysis names ``analyze_dataset`` accepts."""

    def test_unknown_analysis_kind_rejected(self, tmp_path):
        spilled = synthesize_spill(tmp_path / "s", 10, seed=1)
        with pytest.raises(ValueError, match="unknown analys"):
            ca.analyze_dataset(spilled, analyses=("qoe", "bogus"))


class TestSharedEncode:
    """In-memory datasets encode each record kind once for every analysis."""

    @pytest.fixture()
    def encodes(self, monkeypatch):
        counts: Counter = Counter()
        encode = dataset_module.records_to_array

        def counting(kind, records):
            counts[kind] += 1
            return encode(kind, records)

        monkeypatch.setattr(dataset_module, "records_to_array", counting)
        return counts

    def test_filter_and_three_analyses_encode_each_kind_once(
        self, emitted_dataset, encodes
    ):
        filtered, _ = filter_proxies(emitted_dataset)
        results = _public_results(filtered)
        assert encodes == Counter(dict.fromkeys(SPILL_KINDS, 1))
        _assert_results_identical(results, _oracle(filtered))

    @pytest.mark.parametrize("mutation", ["append", "reassign", "replace"])
    def test_mutation_between_calls_matches_a_fresh_dataset(
        self, faulted_dataset, mutation
    ):
        dataset = _fresh_copy(faulted_dataset)
        before = _public_results(dataset)
        first = dataset.player_chunks[0]
        stalled = dataclasses.replace(first, rebuffer_ms=first.rebuffer_ms + 5_000.0)
        if mutation == "append":
            dataset.player_chunks.append(stalled)
        elif mutation == "reassign":
            dataset.player_chunks = [stalled] + dataset.player_chunks[1:]
        else:
            dataset.player_chunks[0] = stalled
        after = _public_results(dataset)
        assert json.dumps(after[0]) != json.dumps(before[0])
        _assert_results_identical(after, _public_results(_fresh_copy(dataset)))
        _assert_results_identical(after, _oracle(dataset))

    def test_cached_arrays_are_reused_and_reject_writes(self, faulted_dataset):
        dataset = _fresh_copy(faulted_dataset)
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
        dataset = _fresh_copy(faulted_dataset)
        before = (repr(dataset), pickle.dumps(dataset))
        _public_results(dataset)
        assert dataset == faulted_dataset
        assert repr(dataset) == before[0]
        assert pickle.dumps(dataset) == before[1]
