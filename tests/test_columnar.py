"""Columnar telemetry core: round-trips, spills, and the memory-mode contract.

The contract under test (docs/TELEMETRY.md): telemetry records are
byte-identical whichever memory mode produced them — in-memory dataset,
serial spill, or sharded spill — a dataset is canonical and never
changes once built, and a corrupt or incompatible spill fails loudly at
open time, never silently mid-analysis.  A spill is a dataset: it maps
each run file once, at open, its record kinds, ``==`` and filtering are
the in-memory dataset's, and saving it holds a bounded number of rows
per run.  The session coder that codes
and masks rows by session id equals a Python ``groupby``/``bisect``
spelling.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import json
import mmap
import pickle
import random
import sys
import tracemalloc
from operator import attrgetter

import numpy as np
import pytest

from helpers import (
    cdn_chunk,
    make_records,
    needs_smaps,
    player_chunk,
    player_session,
    records_of,
    resident_kib,
    row,
)
from repro.api import run
from repro.core.columnar_analysis import analyze_dataset
from repro.core.proxy_filter import filter_proxies
from repro.faults import FaultEvent, FaultSpec
from repro.obs.manifest import dump_json
from repro.simulation.config import SimulationConfig
from repro.simulation.parallel import PeriodSpec, execute_periods
from repro.telemetry import columnar
from repro.telemetry import io as io_module
from repro.telemetry import spill as spill_module
from repro.telemetry import synth
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.columnar import (
    COLUMN_SCHEMAS,
    SPILL_KINDS,
    ColumnOverflowError,
    ColumnSchema,
    array_to_records,
    byte_change_points,
    iter_records,
    records_to_array,
    release_rows,
    rows_to_array,
    session_runs,
    sort_array,
    sort_key,
)
from repro.telemetry.dataset import Dataset
from repro.telemetry.io import save_dataset
from repro.telemetry.records import PlayerSessionRecord, column
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
    """One small simulated dataset, in memory (canonical order)."""
    return run(_config()).dataset


@pytest.fixture(scope="module")
def faulted_dataset():
    """A small simulated dataset with fault labels (canonical order; tests
    that need another order shuffle its records)."""
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


def _assert_runs_interleave(spilled, kind):
    """The kind's runs cover overlapping session ranges, so reading them
    merges rows across runs rather than concatenating them."""
    runs = spilled.run_arrays(kind)
    ranges = sorted((r["session_id"][0], r["session_id"][-1]) for r in runs)
    assert sum(hi > lo for (_, hi), (lo, _) in zip(ranges, ranges[1:])) > len(runs) // 2


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
        # the oracle is Python's stable sort on the record key tuples; a
        # Dataset built from the same records holds the same order
        for kind in SPILL_KINDS:
            shuffled = _shuffled_with_duplicate_keys(
                kind, _kind_records(reference_dataset, kind)
            )
            expected = sorted(shuffled, key=sort_key(kind))
            resorted = array_to_records(kind, sort_array(kind, records_to_array(kind, shuffled)))
            assert resorted == expected, kind
            assert list(getattr(Dataset(**{kind: shuffled}), kind)) == expected, kind

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


class TestColumnsDeclaredOnRecords:
    """A kind's columns are its record's field declarations."""

    #: records._record's two decorators: slots on Python >= 3.10, plain
    #: frozen on 3.9
    DECORATORS = [{"frozen": True}] + (
        [{"frozen": True, "slots": True}] if sys.version_info >= (3, 10) else []
    )

    @pytest.mark.parametrize("options", DECORATORS)
    def test_every_field_declares_its_column(self, options):
        @dataclasses.dataclass(**options)
        class Probe:
            session_id: str = column("S24")
            count: int = column("i8", default=0)

        schema = ColumnSchema("probe", Probe, ("session_id",))
        assert schema.dtype == np.dtype([("session_id", "S24"), ("count", "i8")])
        assert Probe("s1").count == 0

        @dataclasses.dataclass(**options)
        class Undeclared:
            session_id: str = column("S24")
            count: int = 0

        with pytest.raises(ValueError, match=r"^probe: Undeclared\.count declares no column"):
            ColumnSchema("probe", Undeclared, ("session_id",))


class TestRowEncoder:
    """``rows_to_array`` is the one column encoder: the collector's runs
    and ``records_to_array`` both go through it."""

    @pytest.mark.parametrize("kind", SPILL_KINDS)
    def test_rows_encode_like_records(self, faulted_dataset, kind):
        records = _shuffled_with_duplicate_keys(
            kind, _kind_records(faulted_dataset, kind), seed=5
        )
        array = rows_to_array(kind, [row(record) for record in records])
        assert array.tobytes() == records_to_array(kind, records).tobytes()
        assert array.tobytes() == _rowwise_records_to_array(kind, records).tobytes()

    @pytest.mark.parametrize("widths", [(7,), (9,), (8, 7), (7, 8), (8, 9, 8)])
    def test_row_of_the_wrong_width_raises(self, widths):
        values = row(player_session())
        rows = [values[:width] if width <= 8 else values + ("extra",) for width in widths]
        with pytest.raises(ValueError, match="rows hold 8 values") as raised:
            rows_to_array("player_sessions", rows)
        assert not isinstance(raised.value, ColumnOverflowError)

    def test_short_row_raises_when_the_run_is_made(self):
        collector = TelemetryCollector()
        collector.add_player_session(row(player_session())[:-1])  # buffered as is
        with pytest.raises(ValueError, match="rows hold 8 values"):
            collector.dataset()

    def test_wide_string_row_raises_when_the_run_is_made(self, tmp_path):
        writer = SpillWriter(tmp_path / "s", threshold_rows=2)
        writer.add("player_sessions", row(player_session(session="s1")))
        with pytest.raises(ColumnOverflowError, match="session_id"):
            writer.add("player_sessions", row(player_session(session="x" * 25)))


class TestSpillWriterReader:
    def test_multi_run_spill_equals_canonical_order(self, reference_dataset, tmp_path):
        writer = SpillWriter(tmp_path / "s", threshold_rows=64)
        # feed each kind's records in a seeded shuffle (an unsorted stream)
        fed = {}
        for index, kind in enumerate(SPILL_KINDS):
            fed[kind] = _kind_records(reference_dataset, kind)
            random.Random(index).shuffle(fed[kind])
            for record in fed[kind]:
                writer.add(kind, row(record))
        spilled = writer.finalize()
        manifest = json.loads((tmp_path / "s" / SPILL_MANIFEST_FILENAME).read_text())
        assert manifest["kinds"]["player_chunks"]["rows"] > 64  # several runs
        _assert_runs_interleave(spilled, "player_chunks")
        for kind in SPILL_KINDS:
            assert list(getattr(spilled, kind)) == sorted(fed[kind], key=sort_key(kind))
            assert list(getattr(spilled, kind)) == _kind_records(reference_dataset, kind)

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
            assert list(getattr(spilled, kind)) == _kind_records(reference_dataset, kind)

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
        records = make_records(3)
        records["player_chunks"].append(player_chunk(session="s0", chunk=4))
        records["cdn_chunks"].append(cdn_chunk(session="s0", chunk=4))
        writer = SpillWriter(tmp_path / "s", threshold_rows=2)
        for kind in SPILL_KINDS:
            for record in records[kind]:
                writer.add(kind, row(record))
        spilled = writer.finalize()
        assert len(spilled.run_arrays("player_chunks")) == 2
        dataset = Dataset(**records)
        joined = spilled.join_chunks()
        assert len(joined) == 4
        assert joined == dataset.join_chunks()
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
        collector.add_player_session(("s", "ip", "ua", 1, 1.0, 0.0, "os", "b"))
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


class TestOneRepresentation:
    """A Dataset holds canonical arrays and never changes once built."""

    def test_record_kinds_are_read_only(self, reference_dataset):
        dataset = Dataset(**records_of(reference_dataset))
        before = records_of(dataset)
        record = dataset.player_chunks[0]
        with pytest.raises(AttributeError):
            dataset.player_chunks = [record]
        with pytest.raises(AttributeError):
            dataset.player_chunks.append(record)
        with pytest.raises(TypeError):
            dataset.player_chunks[0] = record
        for kind in SPILL_KINDS:
            (array,) = dataset.run_arrays(kind)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[-1]
        assert records_of(dataset) == before
        assert dataset == reference_dataset

    def test_views_decode_once_and_len_decodes_nothing(self, reference_dataset, monkeypatch):
        from repro.telemetry import dataset as dataset_module

        dataset = Dataset.from_runs(
            {kind: reference_dataset.run_arrays(kind) for kind in SPILL_KINDS}
        )
        decodes = []
        decode = dataset_module.iter_records

        def counting(kind, array):
            decodes.append(kind)
            return decode(kind, array)

        monkeypatch.setattr(dataset_module, "iter_records", counting)
        assert [len(getattr(dataset, kind)) for kind in SPILL_KINDS] == [
            len(getattr(reference_dataset, kind)) for kind in SPILL_KINDS
        ]
        assert dataset.tcp_snapshots and not decodes
        assert dataset.tcp_snapshots[0] == reference_dataset.tcp_snapshots[0]
        assert list(dataset.tcp_snapshots) == list(reference_dataset.tcp_snapshots)
        assert decodes == ["tcp_snapshots"]

    def test_overflow_raises_when_the_dataset_is_built(self):
        wide = player_session(session="x" * 25)  # column is S24
        with pytest.raises(ColumnOverflowError, match="session_id"):
            Dataset(player_sessions=[player_session(), wide])

    def test_any_record_order_builds_the_same_dataset(self, reference_dataset):
        shuffled = records_of(reference_dataset)
        for index, records in enumerate(shuffled.values()):
            random.Random(index).shuffle(records)
        assert Dataset(**shuffled) == reference_dataset
        assert Dataset(**records_of(reference_dataset)) == reference_dataset

    def test_filter_sessions_masks_memory_and_spill_alike(self, reference_dataset, tmp_path):
        spilled = run(
            _config(spill_dir=str(tmp_path / "s"), spill_threshold_rows=64)
        ).dataset
        keep = {r.session_id for r in reference_dataset.player_sessions[::3]}
        kept = {
            kind: [r for r in getattr(reference_dataset, kind) if r.session_id in keep]
            for kind in SPILL_KINDS
        }
        expected = Dataset(**kept)
        assert expected.n_sessions == len(keep)
        assert reference_dataset.filter_sessions(sorted(keep)) == expected
        assert spilled.filter_sessions(keep) == expected
        assert reference_dataset.filter_sessions([]) == Dataset()
        assert spilled == reference_dataset


class TestASpillIsADataset:
    """A spill is a Dataset over its run files, opened once: the record
    kinds, ``==``, filtering and saving are the in-memory dataset's."""

    @pytest.fixture
    def spilled(self, tmp_path):
        return run(_config(spill_dir=str(tmp_path / "s"), spill_threshold_rows=64)).dataset

    def test_open_maps_each_run_once(self, spilled, monkeypatch):
        n_runs = sum(len(spilled.run_arrays(kind)) for kind in SPILL_KINDS)
        assert n_runs > len(SPILL_KINDS)
        keep = [record.session_id for record in list(spilled.player_sessions)[:5]]
        opened = []
        open_run = spill_module._open_run

        def spy(directory, kind, entry):
            opened.append(entry["file"])
            return open_run(directory, kind, entry)

        monkeypatch.setattr(spill_module, "_open_run", spy)
        reopened = SpilledDataset(spilled.directories)
        assert len(opened) == len(set(opened)) == n_runs
        opened.clear()
        analyze_dataset(reopened)
        reopened.filter_sessions(keep)
        assert opened == []

    def test_record_kinds_equality_and_filtering(self, spilled, reference_dataset):
        assert isinstance(spilled, Dataset)
        assert spilled == reference_dataset and reference_dataset == spilled
        assert spilled != Dataset()
        with pytest.raises(TypeError):
            hash(spilled)
        for kind in SPILL_KINDS:
            records = getattr(spilled, kind)
            expected = getattr(reference_dataset, kind)
            assert len(records) == len(expected) > 0
            assert records[0] == expected[0]
            assert list(records) == list(records) == list(expected)
            assert records == expected
        keep = [r.session_id for r in reference_dataset.player_sessions[::4]]
        kept = spilled.filter_sessions(keep)
        assert type(kept) is Dataset
        assert kept == reference_dataset.filter_sessions(keep)
        assert pickle.loads(pickle.dumps(kept)) == kept
        runs = {kind: spilled.run_arrays(kind) for kind in SPILL_KINDS}
        assert type(spilled.from_runs(runs)) is Dataset
        assert type(SpilledDataset.from_runs(runs)) is Dataset
        assert type(Dataset.merge_all([spilled])) is Dataset

    def test_save_holds_a_bounded_number_of_rows_per_run(self, tmp_path, monkeypatch):
        # three synthesis blocks make three runs per kind; with 16 rows of
        # each run held at a time, saving stays far below one kind's bytes
        monkeypatch.setattr(synth, "BLOCK_SESSIONS", 500)
        spilled = synthesize_spill(tmp_path / "s", 1_500, seed=8, threshold_rows=500)
        assert all(len(spilled.run_arrays(kind)) == 3 for kind in SPILL_KINDS)
        largest = max(
            sum(run.nbytes for run in spilled.run_arrays(kind)) for kind in SPILL_KINDS
        )
        monkeypatch.setattr(io_module, "SAVE_RUN_ROWS", 16)
        tracemalloc.start()
        try:
            save_dataset(spilled, tmp_path / "jsonl")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < largest / 4, (peak, largest)
        lines = (tmp_path / "jsonl" / "ground_truth.jsonl").read_text().splitlines()
        assert len(lines) == len(spilled.ground_truth)


@needs_smaps
class TestReleaseRows:
    """``release_rows`` drops the resident pages of a read-only mapped
    run, which reads back the same bytes, and leaves any other array
    alone: values and resident pages."""

    @pytest.fixture
    def directory(self, tmp_path):
        synthesize_spill(tmp_path / "s", 2_000, seed=4)
        return tmp_path / "s"

    def test_a_read_only_map_drops_its_pages(self, directory):
        (mapped,) = SpilledDataset(directory).run_arrays("ground_truth")
        assert isinstance(mapped, np.memmap) and mapped.mode == "r"
        expected = mapped.tobytes()
        full = resident_kib(directory)
        assert full * 1024 >= mapped.nbytes
        release_rows(mapped, len(mapped) // 2)
        assert 0 < resident_kib(directory) < full
        release_rows(mapped)
        assert resident_kib(directory) == 0
        assert mapped.tobytes() == expected

    def test_other_arrays_keep_their_values_and_pages(self, directory):
        path = next(directory.glob("ground_truth-*.npy"))
        in_memory = np.load(path)
        expected = in_memory.tobytes()
        release_rows(in_memory)
        assert in_memory.tobytes() == expected
        # a copy-on-write map: the advice would discard the written row
        private = np.load(path, mmap_mode="c")
        private[0] = private[1]
        expected = private.tobytes()
        resident = resident_kib(directory)
        assert resident > 0
        release_rows(private)
        assert resident_kib(directory) == resident
        assert private.tobytes() == expected
        del private
        # a view of a read-only map is no run: its base is the run
        (mapped,) = SpilledDataset(directory).run_arrays("ground_truth")
        view = mapped[1:]
        expected = view.tobytes()
        resident = resident_kib(directory)
        release_rows(view)
        assert resident_kib(directory) == resident
        assert view.tobytes() == expected


@needs_smaps
class TestReadersDropPages:
    """The record readers of a spill drop the mapped pages they have read,
    so no more than one page per run stays resident after them."""

    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("readers") / "s"
        # three 4,096-session blocks: three runs of every kind
        synthesize_spill(directory, 9_000, seed=9, threshold_rows=2_048)
        return directory

    @staticmethod
    def opened(directory):
        """A fresh open of *directory* and its page budget (KiB)."""
        spilled = SpilledDataset(directory)
        n_runs = sum(len(spilled.run_arrays(kind)) for kind in SPILL_KINDS)
        assert all(len(spilled.run_arrays(kind)) > 1 for kind in SPILL_KINDS)
        assert resident_kib(directory) == 0
        return spilled, n_runs * (mmap.PAGESIZE // 1024)

    def test_filter_sessions(self, directory):
        spilled, budget = self.opened(directory)
        ids = [session.session_id for session in spilled.player_sessions][::2]
        filtered = spilled.filter_sessions(ids)
        assert filtered.n_sessions == len(ids)
        assert resident_kib(directory) <= budget

    def test_equality(self, directory):
        (one, budget), (other, _) = self.opened(directory), self.opened(directory)
        assert one == other
        assert resident_kib(directory) <= 2 * budget

    def test_multi_run_record_view(self, directory):
        spilled, budget = self.opened(directory)
        snapshots = list(spilled.tcp_snapshots)
        assert len(snapshots) == len(spilled.tcp_snapshots) > 0
        assert resident_kib(directory) <= budget

    def test_single_run_record_view(self, tmp_path):
        synthesize_spill(tmp_path / "s", 2_000, seed=4)
        spilled = SpilledDataset(tmp_path / "s")
        (run,) = spilled.run_arrays("tcp_snapshots")
        assert len(list(spilled.tcp_snapshots)) == len(run)
        assert resident_kib(tmp_path / "s") <= mmap.PAGESIZE // 1024

    def test_filter_proxies(self, directory):
        spilled, budget = self.opened(directory)
        # the synthetic clients share a few IPs: the volume rule is off
        filtered, report = filter_proxies(spilled, min_sessions_for_mega_ip=10**9)
        assert filtered.n_sessions == report.n_kept_sessions > 0
        assert resident_kib(directory) <= budget


class TestSyntheticGenerator:
    def test_sharded_generation_equals_serial(self, tmp_path):
        serial = synthesize_spill(tmp_path / "serial", 2000, seed=5, threshold_rows=512)
        sharded = synthesize_sharded(
            tmp_path / "sharded", 2000, 3, seed=5, threshold_rows=512
        )
        for kind in SPILL_KINDS:
            assert list(getattr(sharded, kind)) == list(getattr(serial, kind))

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


def _session_runs_oracle(ids, sids):
    """:func:`session_runs` spelled with Python lists: per run of equal
    ids, its length, its ``bisect_left`` position in *sids*, and whether
    it is there."""
    ids, sids = ids.tolist(), sids.tolist()
    lengths, found, member = [], [], []
    for sid, run_ in itertools.groupby(ids):
        position = bisect.bisect_left(sids, sid)
        lengths.append(len(list(run_)))
        found.append(position)
        member.append(position < len(sids) and sids[position] == sid)
    return lengths, found, member


def _id_column(names, width="S24"):
    """*names* as the ``session_id`` column of a player-chunk array: a
    strided field view, as the planner hands the coder its run slices."""
    rows = np.zeros(len(names), dtype=COLUMN_SCHEMAS["player_chunks"].dtype)
    rows["session_id"] = names
    column = rows["session_id"]
    return column if width == "S24" else column.astype(width)


class TestSessionCoder:
    """``session_runs`` equals a Python spelling on both of its paths."""

    UNIVERSE = np.array([b"s-00", b"s-01", b"s-02", b"s-03-with-a-long-id-xx"], dtype="S24")

    @pytest.fixture()
    def searches(self, monkeypatch):
        """How often the coder searched *sids*."""
        calls = []
        search = np.searchsorted

        def counting(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        monkeypatch.setattr(columnar.np, "searchsorted", counting)
        return calls

    def _assert_oracle(self, ids, sids):
        lengths, found, member = session_runs(ids, sids)
        assert (lengths.tolist(), found.tolist(), member.tolist()) == _session_runs_oracle(
            ids, sids
        )
        return found

    @pytest.mark.parametrize("width", ["S24", "contiguous"])
    def test_every_session_present_codes_without_a_search(self, searches, width):
        names = [b"s-00", b"s-00", b"s-01", b"s-02", b"s-02", b"s-02", b"s-03-with-a-long-id-xx"]
        ids = _id_column(names)
        if width == "contiguous":
            ids = np.ascontiguousarray(ids)
        found = self._assert_oracle(ids, self.UNIVERSE)
        assert found.tolist() == [0, 1, 2, 3]
        assert searches == []

    @pytest.mark.parametrize(
        "names",
        [
            # a session outside the universe
            [b"s-00", b"s-01", b"s-01x", b"s-02", b"s-03-with-a-long-id-xx"],
            # a session of the universe missing
            [b"s-00", b"s-00", b"s-02", b"s-03-with-a-long-id-xx"],
            # as many sessions as the universe, one of them outside it
            [b"s-00", b"s-01", b"s-02", b"s-03-with-a-long-id-xy"],
            # ids before and after every session of the universe
            [b"a", b"s-00", b"s-01", b"s-02", b"s-03-with-a-long-id-xx", b"zz"],
        ],
    )
    def test_other_slices_search_each_run_once(self, searches, names):
        self._assert_oracle(_id_column(names), self.UNIVERSE)
        assert len(searches) == 1

    def test_other_widths_and_empty_columns(self, searches):
        names = [b"s-00", b"s-01", b"s-02", b"s-03-with-a-long-id-xx"]
        # the same ids in a wider column: equal strings, searched
        self._assert_oracle(_id_column(names, "S32"), self.UNIVERSE)
        self._assert_oracle(_id_column(names), self.UNIVERSE.astype("S32"))
        self._assert_oracle(_id_column([]), self.UNIVERSE)
        self._assert_oracle(_id_column(names), self.UNIVERSE[:0])
        self._assert_oracle(_id_column([]), self.UNIVERSE[:0])

    @pytest.mark.parametrize("width", [24, 12, 160])
    def test_byte_change_points_match_value_compares(self, width):
        rng = random.Random(width)
        # values differing in their first, middle or last byte only
        values = sorted(
            bytes([97] * position + [98 + rng.randrange(2)] + [97] * (width - position - 1))
            for position in (0, width // 2, width - 1)
            for _ in range(4)
        )
        column = np.array(values, dtype=f"S{width}")
        expected = [True] + [a != b for a, b in zip(values, values[1:])]
        assert byte_change_points(column).tolist() == expected
        assert byte_change_points(column[:1]).tolist() == [True]
        assert byte_change_points(column[:0]).tolist() == []
