"""Causal tracing: per-chunk events, tcp_info snapshots, deterministic export.

The headline contract under test (docs/OBSERVABILITY.md "Tracing"): for a
fixed seed, ``repro simulate --trace-out`` serializes **byte-identical**
trace JSONL whether the run is serial or sharded across any worker count;
head-based sampling is keyed by a stable session-id hash, so the sampled
set never depends on shard layout; per-event fault annotations union to
exactly the chunk's ground-truth ``fault_labels``; and the 500 ms
``net.tcp_sample`` stream reproduces the paper's first-chunk
retransmission spike (§4.3, Fig. 15 analogue).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro import SimulationConfig, run
from repro.cli import main as cli_main
from repro.obs import config_hash
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    load_run_manifest,
    validate_manifest,
)
from repro.obs.trace import (
    FIRST_BYTE_STAGES,
    TRACE_EVENT_SPECS,
    TraceRecorder,
    chrome_trace_document,
    chunk_events,
    chunk_fault_labels,
    chunk_ids,
    dominant_stage,
    read_trace_jsonl,
    session_sampled,
    slowest_chunk,
    stage_durations,
    trace_meta_line,
    validate_trace,
    write_trace,
)

BROWNOUT_SPEC = Path(__file__).resolve().parent.parent / "examples" / "fault_cache_brownout.json"


def _config(**overrides) -> SimulationConfig:
    """Small workload that still exercises warmup, prefetch, and misses."""
    defaults = dict(
        n_sessions=80,
        warmup_sessions=40,
        seed=11,
        n_videos=20,
        n_servers=12,
        warm_first_chunks=True,
        prefetch_after_miss=True,
        trace_sample=1.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture(scope="module")
def brownout_serial():
    return run(_config(), faults=BROWNOUT_SPEC)


@pytest.fixture(scope="module")
def brownout_sharded():
    return run(_config(workers=4), faults=BROWNOUT_SPEC)


@pytest.fixture(scope="module")
def brownout_rows(brownout_serial, tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    brownout_serial.write_trace(path)
    return read_trace_jsonl(path)


# ---------------------------------------------------------------------------
# sampling


class TestSampling:
    def test_bounds(self):
        assert session_sampled("s0011-00000000", 1.0)
        assert not session_sampled("s0011-00000000", 0.0)

    def test_monotone_in_sample_rate(self):
        # hash < p1*2^64 implies hash < p2*2^64 for p1 <= p2: raising the
        # rate only ever adds sessions, never swaps them
        ids = [f"s0011-{i:08d}" for i in range(200)]
        low = {s for s in ids if session_sampled(s, 0.3)}
        high = {s for s in ids if session_sampled(s, 0.7)}
        assert low < high

    def test_rate_is_approximately_honored(self):
        ids = [f"s0011-{i:08d}" for i in range(2000)]
        frac = sum(session_sampled(s, 0.5) for s in ids) / len(ids)
        assert 0.4 < frac < 0.6

    def test_recorder_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            TraceRecorder(0.0)
        with pytest.raises(ValueError):
            TraceRecorder(1.5)

    def test_config_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            SimulationConfig(trace_sample=-0.1)
        with pytest.raises(ValueError):
            SimulationConfig(trace_sample=1.1)

    def test_trace_sample_is_an_execution_field(self):
        # tracing is observational: it must not change run identity
        assert config_hash(_config()) == config_hash(_config(trace_sample=0.0))


# ---------------------------------------------------------------------------
# recorder semantics


class TestRecorder:
    def test_unregistered_event_name_rejected(self):
        recorder = TraceRecorder(1.0)
        trace = recorder.session_trace("s0000-00000000")
        with pytest.raises(KeyError):
            trace.chunk(0).emit("cdn.made_up_event", 0.0)

    def test_events_sorted_by_canonical_key(self):
        recorder = TraceRecorder(1.0)
        trace = recorder.session_trace("s0000-00000000")
        ct = trace.chunk(1)
        ct.emit("session.request", 10.0)
        trace.chunk(0).emit("session.request", 99.0)
        ct.emit("client.last_byte", 20.0)
        keys = [event[:3] for event in recorder.events()]
        assert keys == sorted(keys)

    def test_seq_is_per_session_monotone(self):
        recorder = TraceRecorder(1.0)
        trace = recorder.session_trace("s0000-00000000")
        trace.chunk(0).emit("session.request", 0.0)
        trace.chunk(1).emit("session.request", 1.0)
        seqs = [event[2] for event in recorder.events()]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


# ---------------------------------------------------------------------------
# determinism: the parallel-merge contract extends to traces


class TestDeterminism:
    def test_serial_and_sharded_jsonl_byte_identical(
        self, brownout_serial, brownout_sharded, tmp_path
    ):
        jsonl_a, chrome_a = brownout_serial.write_trace(tmp_path / "a.jsonl")
        jsonl_b, chrome_b = brownout_sharded.write_trace(tmp_path / "b.jsonl")
        assert jsonl_a.read_bytes() == jsonl_b.read_bytes()
        assert chrome_a.read_bytes() == chrome_b.read_bytes()

    def test_sampling_stable_under_reshard(self, tmp_path):
        cfg = dict(n_sessions=40, warmup_sessions=20, trace_sample=0.5)
        one = run(_config(**cfg))
        three = run(_config(**cfg, workers=3))
        jsonl_a, _ = one.write_trace(tmp_path / "w1.jsonl")
        jsonl_b, _ = three.write_trace(tmp_path / "w3.jsonl")
        assert jsonl_a.read_bytes() == jsonl_b.read_bytes()
        sampled = {event[0] for event in one.trace.events()}
        assert 0 < len(sampled) < one.dataset.n_sessions

    def test_warmup_is_never_traced(self, brownout_serial):
        traced_sessions = {event[0] for event in brownout_serial.trace.events()}
        measured = {s.session_id for s in brownout_serial.dataset.player_sessions}
        assert traced_sessions == measured

    def test_disabled_tracing_costs_nothing(self):
        result = run(_config(trace_sample=0.0))
        assert result.trace is None
        with pytest.raises(ValueError):
            result.write_trace("unused.jsonl")


# ---------------------------------------------------------------------------
# fault-epoch annotations


class TestFaultAnnotations:
    def test_event_labels_union_to_ground_truth(self, brownout_serial, brownout_rows):
        truth = {
            (gt.session_id, gt.chunk_id): gt.fault_labels
            for gt in brownout_serial.dataset.ground_truth
        }
        keys = chunk_ids(brownout_rows)
        assert set(keys) == set(truth)
        for key in keys:
            assert chunk_fault_labels(chunk_events(brownout_rows, *key)) == truth[key]

    def test_brownout_makes_origin_the_modal_dominant_stage(self, brownout_rows):
        counts = Counter(
            dominant_stage(chunk_events(brownout_rows, *key))[0]
            for key in chunk_ids(brownout_rows)
        )
        assert counts.most_common(1)[0][0] == "origin"

    def test_stage_durations_cover_first_byte_stages_only(self, brownout_rows):
        key = chunk_ids(brownout_rows)[0]
        totals = stage_durations(chunk_events(brownout_rows, *key))
        assert set(totals) <= set(FIRST_BYTE_STAGES)
        assert totals.get("propagation", 0.0) > 0.0


# ---------------------------------------------------------------------------
# the 500 ms tcp_info stream (paper §4.3, Fig. 15 analogue)


class TestTcpSnapshots:
    def test_first_chunk_carries_the_retx_spike(self, brownout_serial):
        retx_by_index = Counter()
        for gt in brownout_serial.dataset.ground_truth:
            retx_by_index[gt.chunk_id] += gt.segments_retx
        spike, _ = retx_by_index.most_common(1)[0]
        assert spike == 0

    def test_snapshots_record_rto_above_floor(self, brownout_serial):
        snaps = brownout_serial.dataset.tcp_snapshots
        assert snaps and all(s.rto_ms >= 200.0 for s in snaps)

    def test_trace_samples_sit_on_500ms_grid(self, brownout_rows):
        for key in chunk_ids(brownout_rows)[:50]:
            times = [
                row["t_ms"]
                for row in chunk_events(brownout_rows, *key)
                if row["name"] == "net.tcp_sample"
            ]
            # consecutive periodic samples are 500 ms apart; the final
            # end-of-transfer sample may close the interval early
            for earlier, later in zip(times, times[1:-1]):
                assert later - earlier == pytest.approx(500.0)

    def test_trace_samples_match_dataset_end_state(self, brownout_serial, brownout_rows):
        snaps = {
            (s.session_id, s.chunk_id): s
            for s in brownout_serial.dataset.tcp_snapshots
        }
        checked = 0
        for key in chunk_ids(brownout_rows)[:50]:
            rows = [
                row
                for row in chunk_events(brownout_rows, *key)
                if row["name"] == "net.tcp_sample"
            ]
            if not rows or key not in snaps:
                continue
            last = rows[-1]
            assert last["args"]["retx_total"] == snaps[key].retx_total
            assert last["args"]["rto_ms"] == pytest.approx(snaps[key].rto_ms)
            checked += 1
        assert checked > 0


# ---------------------------------------------------------------------------
# export formats


class TestExports:
    def test_jsonl_round_trip_validates(self, brownout_serial, brownout_rows):
        summary = validate_trace(brownout_rows)
        assert summary["events"] == brownout_serial.trace.n_events
        assert summary["sessions"] == brownout_serial.dataset.n_sessions

    def test_validation_catches_missing_terminal_event(self, brownout_rows):
        broken = [row for row in brownout_rows if row["name"] != "client.last_byte"]
        with pytest.raises(ValueError, match="client.last_byte"):
            validate_trace(broken)

    def test_validation_catches_unknown_event_name(self, brownout_rows):
        broken = [dict(brownout_rows[0], name="cdn.bogus")] + brownout_rows[1:]
        with pytest.raises(ValueError, match="cdn.bogus"):
            validate_trace(broken)

    def test_chrome_document_shape(self, brownout_serial):
        doc = chrome_trace_document(brownout_serial.trace.events())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["schema"] == "repro.trace/1"
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert phases <= {"X", "i", "M"}
        assert any(event["ph"] == "X" for event in doc["traceEvents"])

    def test_write_trace_emits_both_artifacts(self, brownout_serial, tmp_path):
        jsonl_path, chrome_path = write_trace(
            brownout_serial.trace.events(), tmp_path / "trace.jsonl"
        )
        assert jsonl_path.name == "trace.jsonl"
        assert chrome_path.name == "trace.chrome.json"
        json.loads(chrome_path.read_text())


# ---------------------------------------------------------------------------
# manifest schema versioning


class TestManifestVersioning:
    def test_manifest_carries_schema_version(self, brownout_serial):
        manifest = brownout_serial.manifest()
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION

    def test_saved_manifest_round_trips(self, brownout_serial, tmp_path):
        brownout_serial.save(tmp_path / "run")
        manifest = load_run_manifest(tmp_path / "run")
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION

    def test_unknown_version_rejected(self, brownout_serial):
        manifest = dict(brownout_serial.manifest())
        manifest["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            validate_manifest(manifest)

    def test_foreign_schema_rejected(self, brownout_serial):
        manifest = dict(brownout_serial.manifest())
        manifest["schema"] = "someone.else/9"
        with pytest.raises(ValueError, match="schema"):
            validate_manifest(manifest)

    def test_legacy_manifest_reads_as_version_one(self, brownout_serial):
        manifest = dict(brownout_serial.manifest())
        del manifest["schema_version"]
        validate_manifest(manifest)  # pre-versioning manifests stay loadable


# ---------------------------------------------------------------------------
# CLI: --trace-out / repro trace / repro metrics diff


class TestCli:
    def _simulate(self, tmp_path, *extra):
        argv = [
            "simulate",
            "--sessions", "40",
            "--warmup", "20",
            "--seed", "11",
            "--videos", "15",
            "--out", str(tmp_path / "run"),
            *extra,
        ]
        assert cli_main(argv) == 0

    def test_trace_out_writes_both_artifacts(self, tmp_path, capsys):
        self._simulate(
            tmp_path,
            "--faults", str(BROWNOUT_SPEC),
            "--trace-out", str(tmp_path / "trace.jsonl"),
        )
        out = capsys.readouterr().out
        assert "trace events" in out
        assert (tmp_path / "trace.jsonl").exists()
        assert (tmp_path / "trace.chrome.json").exists()

    def test_trace_validate_and_drilldown(self, tmp_path, capsys):
        self._simulate(
            tmp_path,
            "--faults", str(BROWNOUT_SPEC),
            "--trace-out", str(tmp_path / "trace.jsonl"),
        )
        assert cli_main(["trace", str(tmp_path / "trace.jsonl"), "--validate"]) == 0
        assert "trace OK" in capsys.readouterr().out
        assert cli_main(["trace", str(tmp_path / "trace.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "chunk timeline" in out
        assert "fault epochs: cache-brownout:brownout-1" in out
        assert "dominant stage:" in out

    def test_trace_drilldown_specific_chunk(self, tmp_path, capsys):
        self._simulate(tmp_path, "--trace-out", str(tmp_path / "trace.jsonl"))
        capsys.readouterr()
        rows = read_trace_jsonl(tmp_path / "trace.jsonl")
        session, chunk = slowest_chunk(rows)
        argv = [
            "trace", str(tmp_path / "trace.jsonl"),
            "--session", session,
            "--chunk", str(chunk),
        ]
        assert cli_main(argv) == 0
        assert f"session={session} chunk={chunk}" in capsys.readouterr().out

    def test_trace_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(["trace", str(tmp_path / "nope.jsonl")]) == 1

    def test_metrics_diff_identical(self, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"a": 1, "b": {"c": [1, 2]}}))
        assert cli_main(["metrics", "diff", str(doc), str(doc)]) == 0
        assert "documents identical" in capsys.readouterr().out

    def test_metrics_diff_reports_first_divergent_key(self, tmp_path, capsys):
        doc_a = tmp_path / "a.json"
        doc_b = tmp_path / "b.json"
        doc_a.write_text(json.dumps({"a": 1, "b": {"c": [1, 2], "d": 3}}))
        doc_b.write_text(json.dumps({"a": 1, "b": {"c": [1, 9], "d": 4}}))
        assert cli_main(["metrics", "diff", str(doc_a), str(doc_b)]) == 1
        out = capsys.readouterr().out
        assert "first divergent key: b.c[1]" in out

    def test_metrics_diff_real_documents(self, tmp_path, capsys):
        self._simulate(tmp_path, "--metrics-out", str(tmp_path / "m1.json"))
        a = json.loads((tmp_path / "m1.json").read_text())
        (tmp_path / "m2.json").write_text(json.dumps(a))
        capsys.readouterr()
        argv = ["metrics", "diff", str(tmp_path / "m1.json"), str(tmp_path / "m2.json")]
        assert cli_main(argv) == 0

    def test_metrics_diff_rejects_unknown_manifest_version(self, tmp_path, capsys):
        self._simulate(tmp_path, "--metrics-out", str(tmp_path / "m1.json"))
        doc = json.loads((tmp_path / "m1.json").read_text())
        doc["manifest"]["schema_version"] = 99
        (tmp_path / "m2.json").write_text(json.dumps(doc))
        capsys.readouterr()
        argv = ["metrics", "diff", str(tmp_path / "m2.json"), str(tmp_path / "m1.json")]
        assert cli_main(argv) == 2

    def test_metrics_diff_excludes_execution_block_by_default(
        self, tmp_path, capsys
    ):
        # the execution block (spans, shard reports, execution-scoped
        # counters) legitimately varies across --workers/--spill-dir choices;
        # only the workload payload is under the byte-identity contract
        doc_a = tmp_path / "a.json"
        doc_b = tmp_path / "b.json"
        doc_a.write_text(json.dumps({"a": 1, "execution": {"wall_s": 1.0}}))
        doc_b.write_text(json.dumps({"a": 1, "execution": {"wall_s": 9.0}}))
        assert cli_main(["metrics", "diff", str(doc_a), str(doc_b)]) == 0
        out = capsys.readouterr().out
        assert "execution block excluded" in out
        assert "documents identical" in out

    def test_metrics_diff_include_execution_flag(self, tmp_path, capsys):
        doc_a = tmp_path / "a.json"
        doc_b = tmp_path / "b.json"
        doc_a.write_text(json.dumps({"a": 1, "execution": {"wall_s": 1.0}}))
        doc_b.write_text(json.dumps({"a": 1, "execution": {"wall_s": 9.0}}))
        argv = [
            "metrics", "diff", "--include-execution", str(doc_a), str(doc_b)
        ]
        assert cli_main(argv) == 1
        out = capsys.readouterr().out
        assert "execution block excluded" not in out
        assert "first divergent key: execution.wall_s" in out


# ---------------------------------------------------------------------------
# trace JSONL meta line (schema versioning for the third artifact class)


class TestTraceMetaLine:
    def test_meta_line_shape(self):
        line = trace_meta_line(3)
        assert line == '{"events": 3, "schema": "repro.trace/1"}'

    def test_export_leads_with_the_meta_line(self, brownout_serial, tmp_path):
        path = brownout_serial.write_trace(tmp_path / "trace.jsonl")[0]
        first = path.read_text(encoding="utf-8").splitlines()[0]
        meta = json.loads(first)
        assert meta["schema"] == "repro.trace/1"
        assert meta["events"] == brownout_serial.trace.n_events
        assert "name" not in meta

    def test_reader_skips_the_meta_line(self, brownout_serial, tmp_path):
        path = brownout_serial.write_trace(tmp_path / "trace.jsonl")[0]
        rows = read_trace_jsonl(path)
        assert len(rows) == brownout_serial.trace.n_events
        assert all("name" in row for row in rows)

    def test_foreign_schema_rejected(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"schema": "someone.else/9", "events": 0}\n')
        with pytest.raises(ValueError, match="someone.else/9"):
            read_trace_jsonl(path)

    def test_premeta_export_still_loads(self, brownout_serial, tmp_path):
        # files written before the meta line existed: first line carries
        # event keys, never "schema"
        with_meta = brownout_serial.write_trace(tmp_path / "trace.jsonl")[0]
        lines = with_meta.read_text(encoding="utf-8").splitlines()
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text("\n".join(lines[1:]) + "\n")
        assert read_trace_jsonl(legacy) == read_trace_jsonl(with_meta)

    def test_cli_trace_validates_through_the_meta_line(self, tmp_path, capsys):
        self._simulate_with_trace(tmp_path)
        assert cli_main(["trace", str(tmp_path / "trace.jsonl"), "--validate"]) == 0
        assert "trace OK" in capsys.readouterr().out

    @staticmethod
    def _simulate_with_trace(tmp_path):
        argv = [
            "simulate",
            "--sessions", "40",
            "--warmup", "20",
            "--seed", "11",
            "--videos", "15",
            "--out", str(tmp_path / "run"),
            "--trace-out", str(tmp_path / "trace.jsonl"),
        ]
        assert cli_main(argv) == 0
