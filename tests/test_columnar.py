"""Columnar telemetry core: round-trips, spills, and the memory-mode contract.

The contract under test (docs/TELEMETRY.md): telemetry records are
byte-identical whichever memory mode produced them — in-memory lists,
serial spill, or sharded spill — and a corrupt or incompatible spill fails
loudly at open time, never silently mid-analysis.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import random
from operator import attrgetter

import numpy as np
import pytest

from helpers import cdn_chunk, make_dataset, player_chunk
from repro.api import run
from repro.faults import FaultEvent, FaultSpec
from repro.obs.manifest import dump_json
from repro.simulation.config import SimulationConfig
from repro.simulation.parallel import PeriodSpec, execute_periods
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.columnar import (
    COLUMN_SCHEMAS,
    SPILL_KINDS,
    ColumnOverflowError,
    array_to_records,
    iter_records,
    records_to_array,
    sort_array,
)
from repro.telemetry.dataset import Dataset
from repro.telemetry.io import save_dataset
from repro.telemetry.records import PlayerSessionRecord
from repro.telemetry.spill import (
    SPILL_MANIFEST_FILENAME,
    SpilledDataset,
    SpillError,
    SpillWriter,
)
from repro.telemetry.synth import synthesize_sharded, synthesize_spill


def _config(**overrides) -> SimulationConfig:
    defaults = dict(n_sessions=80, warmup_sessions=30, seed=13)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture(scope="module")
def reference_dataset():
    """One small simulated dataset, in-memory, canonically sorted."""
    return run(_config()).dataset.sorted()


@pytest.fixture(scope="module")
def faulted_dataset():
    """A small simulated dataset with fault labels, in emission order."""
    spec = FaultSpec(
        name="encode",
        events=(
            FaultEvent("deg", "server-degraded", 0.0, 1e12, 6.0, server_fraction=0.5),
            FaultEvent("lat", "network-latency", 0.0, 1e12, 3.0),
        ),
    )
    return run(_config(), faults=spec).dataset


def _kind_records(dataset, kind):
    return list(getattr(dataset, kind))


def _rowwise_records_to_array(kind, records):
    """Oracle: the row-at-a-time encoder (one Python tuple per record)."""
    schema = COLUMN_SCHEMAS[kind]
    getter = attrgetter(*schema.field_names)
    rows = []
    for record in records:
        row = list(getter(record))
        for index, _, _ in schema.string_fields:
            row[index] = row[index].encode("utf-8")
        rows.append(tuple(row))
    return np.array(rows, dtype=schema.dtype)


def _argsort_sort_array(kind, array):
    """Oracle: a stable structured-array argsort over the key columns.

    It sorts a view holding only the key fields: ``np.argsort(array,
    order=keys)`` would break ties by the remaining fields instead of
    keeping emission order.
    """
    keys = list(COLUMN_SCHEMAS[kind].sort_keys)
    return array[np.argsort(array[keys], kind="stable")]


def _shuffled_with_duplicate_keys(kind, records, seed=0):
    """*records* plus key-sharing copies that differ in a value column,
    shuffled, so a sort's tie order is observable."""
    schema = COLUMN_SCHEMAS[kind]
    value_field = next(
        name
        for name in schema.field_names
        if name not in schema.sort_keys and schema.dtype[name].kind == "f"
    )
    twins = [
        dataclasses.replace(r, **{value_field: getattr(r, value_field) + 1.0})
        for r in records[::3]
    ]
    mixed = records + twins
    random.Random(seed).shuffle(mixed)
    return mixed


class TestColumnarRoundTrip:
    @pytest.mark.parametrize("kind", SPILL_KINDS)
    def test_exact_round_trip(self, reference_dataset, kind):
        records = _kind_records(reference_dataset, kind)
        assert records, f"reference run produced no {kind}"
        array = records_to_array(kind, records)
        assert array.dtype == COLUMN_SCHEMAS[kind].dtype
        assert array_to_records(kind, array) == records

    def test_round_trip_json_bytes_identical(self, reference_dataset):
        # the facade contract at its strictest: JSON serialization of a
        # round-tripped record equals the original byte for byte
        import dataclasses

        records = _kind_records(reference_dataset, "player_chunks")
        rebuilt = array_to_records("player_chunks", records_to_array("player_chunks", records))
        for a, b in zip(records, rebuilt):
            assert json.dumps(dataclasses.asdict(a)) == json.dumps(dataclasses.asdict(b))

    def test_sort_array_matches_dataset_sorted(self, reference_dataset):
        for kind in SPILL_KINDS:
            shuffled = _shuffled_with_duplicate_keys(
                kind, _kind_records(reference_dataset, kind)
            )
            expected = getattr(Dataset(**{kind: shuffled}).sorted(), kind)
            resorted = array_to_records(kind, sort_array(kind, records_to_array(kind, shuffled)))
            assert resorted == expected, kind

    @pytest.mark.parametrize("kind", SPILL_KINDS)
    def test_encoder_and_sort_bytes_match_rowwise_oracle(self, faulted_dataset, kind):
        records = _shuffled_with_duplicate_keys(
            kind, _kind_records(faulted_dataset, kind), seed=3
        )
        assert records, f"faulted run produced no {kind}"
        expected = _rowwise_records_to_array(kind, records)
        array = records_to_array(kind, records)
        assert array.dtype == expected.dtype
        assert array.tobytes() == expected.tobytes()
        assert (
            sort_array(kind, array).tobytes()
            == _argsort_sort_array(kind, expected).tobytes()
        )

    def test_encoder_accepts_any_iterable(self, faulted_dataset):
        records = _kind_records(faulted_dataset, "ground_truth")
        assert any(r.fault_labels for r in records)
        assert (
            records_to_array("ground_truth", iter(records)).tobytes()
            == _rowwise_records_to_array("ground_truth", records).tobytes()
        )

    def test_string_overflow_raises_not_truncates(self):
        record = PlayerSessionRecord(
            session_id="x" * 25,  # column is S24
            client_ip="10.0.0.1",
            user_agent="ua",
            video_id=1,
            video_duration_ms=1.0,
            start_ms=0.0,
            os="linux",
            browser="b",
        )
        with pytest.raises(ColumnOverflowError, match="session_id"):
            records_to_array("player_sessions", [record])

    def test_multibyte_overflow_counts_bytes_not_characters(self):
        # 13 characters fit an S24 column by count, but are 26 UTF-8 bytes
        fits = PlayerSessionRecord("s1", "ip", "ua", 1, 1.0, 0.0, "os", "b")
        wide = dataclasses.replace(fits, session_id="é" * 13)
        with pytest.raises(ColumnOverflowError, match="session_id.* 26 bytes"):
            records_to_array("player_sessions", [fits, wide, fits])

    def test_iter_records_is_blockwise_lazy(self):
        # consuming one record must not require materializing the array
        array = records_to_array(
            "player_sessions",
            [
                PlayerSessionRecord(f"s{i:04d}", "ip", "ua", i, 1.0, 0.0, "os", "b")
                for i in range(10)
            ],
        )
        stream = iter_records("player_sessions", array)
        first = next(stream)
        assert first.session_id == "s0000"


class TestSpillWriterReader:
    def test_multi_run_spill_equals_canonical_order(self, reference_dataset, tmp_path):
        writer = SpillWriter(tmp_path / "s", threshold_rows=64)
        # feed records in emission order (the unsorted collector stream)
        raw = run(_config()).dataset
        for kind in SPILL_KINDS:
            for record in _kind_records(raw, kind):
                writer.add(kind, record)
        spilled = writer.finalize()
        manifest = json.loads((tmp_path / "s" / SPILL_MANIFEST_FILENAME).read_text())
        assert manifest["kinds"]["player_chunks"]["rows"] > 64  # several runs
        for kind in SPILL_KINDS:
            assert list(spilled.iter_kind(kind)) == _kind_records(reference_dataset, kind)

    def test_writer_refuses_existing_spill(self, tmp_path):
        SpillWriter(tmp_path / "s").finalize()
        with pytest.raises(SpillError, match="already holds a spill"):
            SpillWriter(tmp_path / "s")

    def test_finalize_is_idempotent(self, tmp_path):
        writer = SpillWriter(tmp_path / "s")
        assert writer.finalize() is writer.finalize()

    def test_add_array_rejects_wrong_dtype(self, tmp_path):
        writer = SpillWriter(tmp_path / "s")
        with pytest.raises(SpillError, match="does not match"):
            writer.add_array("player_chunks", np.zeros(3, dtype="f8"))

    def test_pickle_round_trip(self, tmp_path):
        spilled = synthesize_spill(tmp_path / "s", 100, seed=1, threshold_rows=128)
        clone = pickle.loads(pickle.dumps(spilled))
        assert list(clone.player_sessions) == list(spilled.player_sessions)


class TestSpillCorruptionRejection:
    def _spill(self, tmp_path):
        synthesize_spill(tmp_path / "s", 300, seed=2, threshold_rows=256)
        return tmp_path / "s"

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(SpillError, match="no spill.json"):
            SpilledDataset(tmp_path / "empty")

    def test_corrupt_manifest_json(self, tmp_path):
        directory = self._spill(tmp_path)
        (directory / SPILL_MANIFEST_FILENAME).write_text("{not json")
        with pytest.raises(SpillError, match="corrupt spill manifest"):
            SpilledDataset(directory)

    def test_unknown_format_version(self, tmp_path):
        directory = self._spill(tmp_path)
        manifest = json.loads((directory / SPILL_MANIFEST_FILENAME).read_text())
        manifest["version"] = 999
        (directory / SPILL_MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(SpillError, match="version 999"):
            SpilledDataset(directory)

    def test_truncated_run_file(self, tmp_path):
        directory = self._spill(tmp_path)
        run_file = next(directory.glob("player_chunks-*.npy"))
        payload = run_file.read_bytes()
        run_file.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(SpillError):
            SpilledDataset(directory)

    def test_missing_run_file(self, tmp_path):
        directory = self._spill(tmp_path)
        next(directory.glob("tcp_snapshots-*.npy")).unlink()
        with pytest.raises(SpillError, match="missing"):
            SpilledDataset(directory)

    def test_row_count_mismatch(self, tmp_path):
        directory = self._spill(tmp_path)
        manifest = json.loads((directory / SPILL_MANIFEST_FILENAME).read_text())
        manifest["kinds"]["player_sessions"]["runs"][0]["rows"] += 1
        manifest["kinds"]["player_sessions"]["rows"] += 1
        (directory / SPILL_MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(SpillError, match="manifest declares"):
            SpilledDataset(directory)

    def test_dtype_mismatch(self, tmp_path):
        directory = self._spill(tmp_path)
        manifest = json.loads((directory / SPILL_MANIFEST_FILENAME).read_text())
        manifest["kinds"]["ground_truth"]["dtype"][0][1] = "<i4"
        (directory / SPILL_MANIFEST_FILENAME).write_text(json.dumps(manifest))
        with pytest.raises(SpillError, match="columnar schema"):
            SpilledDataset(directory)


class TestMemoryModeByteIdentity:
    """The tentpole invariant: memory mode never changes a single byte."""

    def test_serial_spill_equals_in_memory(self, reference_dataset, tmp_path):
        spilled = run(
            _config(spill_dir=str(tmp_path / "spill"), spill_threshold_rows=128)
        ).dataset
        assert isinstance(spilled, SpilledDataset)
        for kind in SPILL_KINDS:
            assert list(spilled.iter_kind(kind)) == _kind_records(reference_dataset, kind)

    def test_sharded_spill_equals_in_memory_bytes(self, reference_dataset, tmp_path):
        sharded = run(
            _config(
                workers=4,
                spill_dir=str(tmp_path / "spill"),
                spill_threshold_rows=128,
            )
        )
        out_mem = save_dataset(reference_dataset, tmp_path / "mem")
        out_spill = save_dataset(sharded.dataset, tmp_path / "sharded")
        for path in sorted(out_mem.iterdir()):
            assert (out_spill / path.name).read_bytes() == path.read_bytes(), path.name

    def test_metrics_document_byte_identical_across_modes(self, tmp_path):
        docs = [
            dump_json(run(config).metrics_document())
            for config in (
                _config(),
                _config(spill_dir=str(tmp_path / "a"), spill_threshold_rows=128),
                _config(workers=4, spill_dir=str(tmp_path / "b"), spill_threshold_rows=128),
            )
        ]
        assert docs[0] == docs[1] == docs[2]

    def test_spill_counters_live_in_manifest_not_metrics_doc(self, tmp_path):
        result = run(_config(spill_dir=str(tmp_path / "s"), spill_threshold_rows=128))
        document = result.metrics_document()
        assert not any(
            name.startswith("telemetry.spill.") for name in document["metrics"]["counters"]
        )
        execution = result.manifest()["execution"]
        assert execution["metrics"]["counters"]["telemetry.spill.rows_total"] > 0
        assert execution["spill_dir"] == str(tmp_path / "s")

    def test_record_views_agree_across_residence(self, tmp_path):
        # a chunk pair whose session beacons were lost joins as a chunk
        # but belongs to no session view, in memory and spilled alike
        dataset = make_dataset(3)
        dataset.player_chunks.append(player_chunk(session="s0", chunk=4))
        dataset.cdn_chunks.append(cdn_chunk(session="s0", chunk=4))
        writer = SpillWriter(tmp_path / "s", threshold_rows=2)
        for kind in SPILL_KINDS:
            for record in getattr(dataset, kind):
                writer.add(kind, record)
        spilled = writer.finalize()
        assert len(spilled.run_arrays("player_chunks")) == 2
        joined = spilled.join_chunks()
        assert len(joined) == 4
        assert joined == dataset.sorted().join_chunks()
        assert spilled.sessions() == dataset.sessions()

    def test_streaming_sessions_equal_materialized(self, reference_dataset, tmp_path):
        spilled = run(
            _config(spill_dir=str(tmp_path / "s"), spill_threshold_rows=128)
        ).dataset
        for a, b in zip(spilled.iter_sessions(), reference_dataset.sessions()):
            assert a.session_id == b.session_id
            assert a.chunks == b.chunks
            assert a.player_session == b.player_session
            assert a.cdn_session == b.cdn_session


class TestCollectorModes:
    def test_discard_mode_holds_nothing(self):
        collector = TelemetryCollector(discard=True)
        collector.add_player_session(
            PlayerSessionRecord("s", "ip", "ua", 1, 1.0, 0.0, "os", "b")
        )
        dataset = collector.dataset()
        assert dataset.n_sessions == 0

    def test_multi_period_spill_routes_to_period_subdirs(self, tmp_path):
        # Unlabeled periods fall back to positional subdir names; the full
        # layout + identity contract lives in tests/test_parallel.py.
        config = _config(spill_dir=str(tmp_path / "s"))
        periods = [PeriodSpec(config=config), PeriodSpec(config=config)]
        execute_periods(periods)
        assert (tmp_path / "s" / "period-00").is_dir()
        assert (tmp_path / "s" / "period-01").is_dir()

    def test_merge_all_rejects_mixed_modes(self, tmp_path):
        spilled = synthesize_spill(tmp_path / "s", 50, seed=4)
        with pytest.raises(SpillError, match="in-memory"):
            SpilledDataset.merge_all([spilled, Dataset()])


class TestSyntheticGenerator:
    def test_sharded_generation_equals_serial(self, tmp_path):
        serial = synthesize_spill(tmp_path / "serial", 2000, seed=5, threshold_rows=512)
        sharded = synthesize_sharded(
            tmp_path / "sharded", 2000, 3, seed=5, threshold_rows=512
        )
        for kind in SPILL_KINDS:
            assert list(sharded.iter_kind(kind)) == list(serial.iter_kind(kind))

    def test_sessions_join_and_analyze(self, tmp_path):
        from repro.core import diagnose_dataset, qoe

        spilled = synthesize_spill(tmp_path / "s", 400, seed=6, threshold_rows=512)
        summary = qoe.summarize(spilled)
        assert summary["n_sessions"] == 400
        fractions = diagnose_dataset(spilled)
        assert fractions and abs(sum(fractions.values()) - 1.0) < 1e-9

    def test_one_pass_consume_matches_classic(self, tmp_path):
        from repro.core import diagnose_dataset, qoe
        from streaming_oracle import LocalizationAccumulator, QoeAccumulator, consume

        spilled = synthesize_spill(tmp_path / "s", 300, seed=7, threshold_rows=512)
        q, loc = consume(spilled, QoeAccumulator(), LocalizationAccumulator())
        assert q == qoe.summarize(spilled)
        assert loc == diagnose_dataset(spilled)
