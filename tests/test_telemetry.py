"""Unit tests for telemetry records, dataset join, collector, and IO."""

import pytest

from helpers import (
    cdn_chunk,
    cdn_session,
    make_dataset,
    make_records,
    player_chunk,
    player_session,
    row,
    tcp_snap,
)
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.dataset import Dataset
from repro.telemetry.io import load_dataset, save_dataset
from repro.telemetry.records import ChunkGroundTruth


class TestRecords:
    def test_player_chunk_derived_metrics(self):
        record = player_chunk(dfb_ms=500.0, dlb_ms=1500.0)
        assert record.download_ms == 2000.0
        assert record.download_rate == pytest.approx(3.0)
        assert record.dropped_fraction == 0.0

    def test_download_rate_handles_zero(self):
        record = player_chunk(dfb_ms=0.0, dlb_ms=0.0)
        assert record.download_rate == float("inf")

    def test_cdn_chunk_decomposition(self):
        record = cdn_chunk(d_wait_ms=1.0, d_open_ms=2.0, d_read_ms=3.0, d_be_ms=10.0)
        assert record.d_cdn_ms == 6.0
        assert record.total_server_ms == 16.0
        assert record.is_hit

    def test_miss_flag(self):
        assert not cdn_chunk(cache_status="miss").is_hit

    def test_tcp_throughput_eq3(self):
        snap = tcp_snap(cwnd_segments=100, srtt_ms=100.0, mss=1460)
        # 100 * 1460 bytes over 100 ms = 1.46 MB/0.1 s = 11.68 Mbps
        assert snap.throughput_kbps == pytest.approx(11_680.0)

    def test_tcp_throughput_zero_srtt(self):
        assert tcp_snap(srtt_ms=0.0).throughput_kbps == 0.0


class TestDatasetJoin:
    def test_join_matches_pairs(self):
        dataset = make_dataset(3)
        joined = dataset.join_chunks()
        assert len(joined) == 3
        assert all(j.player.chunk_id == j.cdn.chunk_id for j in joined)

    def test_join_drops_unmatched(self):
        records = make_records(2)
        records["player_chunks"].append(player_chunk(chunk=99))
        assert len(Dataset(**records).join_chunks()) == 2

    def test_tcp_snapshots_attached_sorted(self):
        records = make_records(1)
        records["tcp_snapshots"].append(tcp_snap(chunk=0, t=100.0))
        joined = Dataset(**records).join_chunks()[0]
        times = [s.t_ms for s in joined.tcp]
        assert times == sorted(times)
        assert joined.first_tcp.t_ms == 100.0

    def test_srtt_samples_skip_zero(self):
        records = make_records(1)
        records["tcp_snapshots"].append(tcp_snap(chunk=0, t=10.0, srtt_ms=0.0))
        joined = Dataset(**records).join_chunks()[0]
        assert all(s > 0 for s in joined.srtt_samples)

    def test_sessions_grouping(self):
        dataset = make_dataset(3)
        sessions = dataset.sessions()
        assert len(sessions) == 1
        assert sessions[0].n_chunks == 3
        assert [c.chunk_id for c in sessions[0].chunks] == [0, 1, 2]

    def test_sessions_missing_cdn_side_dropped(self):
        records = make_records(1)
        records["player_sessions"].append(player_session(session="orphan"))
        assert len(Dataset(**records).sessions()) == 1

    def test_session_view_metrics(self):
        dataset = make_dataset(2)
        view = dataset.sessions()[0]
        assert view.avg_bitrate_kbps == pytest.approx(1050.0)
        assert view.watched_media_ms == 12_000.0
        assert view.rebuffer_rate == 0.0
        assert view.startup_delay_ms == pytest.approx(1000.0)

    def test_session_retx_rate_from_counters(self):
        records = make_records(2)
        records["tcp_snapshots"] = [
            tcp_snap(chunk=0, t=500.0, retx_total=0),
            tcp_snap(chunk=1, t=1000.0, retx_total=54),
        ]
        view = Dataset(**records).sessions()[0]
        # 54 retx over 2 * 787500 / 1460 ~ 1078 segments -> ~5%
        assert view.session_retx_rate == pytest.approx(0.05, abs=0.01)
        assert view.had_loss

    def test_chunk_retx_deltas(self):
        records = make_records(3)
        records["tcp_snapshots"] = [
            tcp_snap(chunk=0, t=500.0, retx_total=10),
            tcp_snap(chunk=1, t=1000.0, retx_total=10),
            tcp_snap(chunk=2, t=1500.0, retx_total=15),
        ]
        view = Dataset(**records).sessions()[0]
        assert view.chunk_retx_counts() == [(0, 10), (1, 0), (2, 5)]

    def test_startup_none_when_first_chunk_missing(self):
        records = make_records(2)
        records["player_chunks"] = records["player_chunks"][1:]
        records["cdn_chunks"] = records["cdn_chunks"][1:]
        assert Dataset(**records).sessions()[0].startup_delay_ms is None

    def test_filter_sessions(self):
        dataset = make_dataset(2)
        empty = dataset.filter_sessions([])
        assert empty.n_sessions == 0 and empty.n_chunks == 0
        same = dataset.filter_sessions(["s1"])
        assert same.n_sessions == 1 and same.n_chunks == 2

    def test_merge(self):
        d1 = make_dataset(1)
        d2 = Dataset(
            player_chunks=[player_chunk(session="s2")],
            cdn_chunks=[cdn_chunk(session="s2")],
            player_sessions=[player_session(session="s2")],
            cdn_sessions=[cdn_session(session="s2")],
        )
        merged = Dataset.merge_all([d1, d2])
        assert merged.n_sessions == 2
        assert len(merged.sessions()) == 2


class TestCollector:
    def test_collects_all_record_types(self):
        collector = TelemetryCollector()
        collector.add_player_session(row(player_session()))
        collector.add_cdn_session(row(cdn_session()))
        collector.add_player_chunk(row(player_chunk()))
        collector.add_cdn_chunk(row(cdn_chunk()))
        collector.add_tcp_snapshot(row(tcp_snap()))
        collector.add_ground_truth(
            row(ChunkGroundTruth("s1", 0, 5.0, 60.0, False, 100, 0, 0.0, 900.0))
        )
        dataset = collector.dataset()
        assert dataset.n_sessions == 1
        assert dataset.n_chunks == 1
        assert len(dataset.ground_truth) == 1

    def test_ground_truth_opt_out(self):
        collector = TelemetryCollector(record_ground_truth=False)
        collector.add_ground_truth(
            row(ChunkGroundTruth("s1", 0, 5.0, 60.0, False, 100, 0, 0.0, 900.0))
        )
        assert collector.dataset().ground_truth == ()

    def test_dataset_snapshot_is_copy(self):
        collector = TelemetryCollector()
        collector.add_player_chunk(row(player_chunk()))
        dataset = collector.dataset()
        collector.add_player_chunk(row(player_chunk(chunk=1)))
        assert dataset.n_chunks == 1


class TestIo:
    def test_round_trip(self, tmp_path):
        records = make_records(3)
        records["ground_truth"].append(
            ChunkGroundTruth("s1", 0, 5.0, 60.0, False, 100, 2, 0.1, 900.0)
        )
        dataset = Dataset(**records)
        save_dataset(dataset, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.player_chunks == dataset.player_chunks
        assert loaded.cdn_chunks == dataset.cdn_chunks
        assert loaded.tcp_snapshots == dataset.tcp_snapshots
        assert loaded.player_sessions == dataset.player_sessions
        assert loaded.cdn_sessions == dataset.cdn_sessions
        assert loaded.ground_truth == dataset.ground_truth

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    def test_load_rejects_unknown_fields(self, tmp_path):
        directory = save_dataset(make_dataset(1), tmp_path / "ds")
        target = directory / "player_chunks.jsonl"
        target.write_text('{"bogus_field": 1}\n')
        with pytest.raises(ValueError):
            load_dataset(directory)

    def test_load_rejects_bad_json(self, tmp_path):
        directory = save_dataset(make_dataset(1), tmp_path / "ds")
        (directory / "cdn_chunks.jsonl").write_text("not json\n")
        with pytest.raises(ValueError):
            load_dataset(directory)

    def test_empty_dataset_round_trip(self, tmp_path):
        save_dataset(Dataset(), tmp_path / "empty")
        loaded = load_dataset(tmp_path / "empty")
        assert loaded.n_sessions == 0
