"""Fast edge-case tests for paths not covered by the main module suites."""

import numpy as np
import pytest

from helpers import cdn_chunk, make_dataset, player_chunk, tcp_snap
from repro.analysis.stats import empirical_ccdf, empirical_cdf
from repro.api import run
from repro.cdn.cache import CacheStatus, TwoLevelCache
from repro.cdn.mapping import TrafficEngineering
from repro.cdn.pop import build_default_deployment
from repro.client.downloadstack import DownloadStackEffect
from repro.core import netdiag, popularity
from repro.core.proxy_filter import filter_proxies
from repro.simulation.config import SimulationConfig
from repro.telemetry.dataset import Dataset
from repro.workload.catalog import Video
from repro.workload.geo import GeoPoint


class TestCdfEdges:
    def test_ccdf_prob_at_below_min(self):
        ccdf = empirical_ccdf([5.0, 6.0])
        assert ccdf.prob_at(1.0) == 1.0

    def test_cdf_with_duplicates(self):
        cdf = empirical_cdf([2.0, 2.0, 2.0])
        assert cdf.prob_at(2.0) == 1.0
        assert cdf.prob_at(1.9) == 0.0

    def test_value_at_single_sample(self):
        cdf = empirical_cdf([7.0])
        assert cdf.value_at(0.0) == cdf.value_at(1.0) == 7.0


class TestCacheEdges:
    def test_promotion_preserves_disk_copy(self):
        cache = TwoLevelCache(100, 1000)
        cache.admit("a", 10)
        # push "a" out of RAM
        for key in range(20):
            cache.admit(key, 10)
        assert cache.lookup("a", 10) is CacheStatus.HIT_DISK
        # promotion must not remove the disk copy
        assert cache.disk.peek("a")

    def test_object_equal_to_ram_capacity_admitted(self):
        cache = TwoLevelCache(100, 1000)
        cache.admit("big", 100)
        assert cache.lookup("big", 100).is_hit

    def test_gdsize_two_level_workload(self):
        cache = TwoLevelCache(50, 500, policy_name="gdsize")
        for i in range(100):
            key = i % 20
            if not cache.lookup(key, 10).is_hit:
                cache.admit(key, 10)
        assert cache.ram.used_bytes <= 50
        assert cache.disk.used_bytes <= 500


class TestMappingEdges:
    @pytest.fixture(scope="class")
    def te(self):
        deployment = build_default_deployment(total_servers=20)
        engineering = TrafficEngineering(
            deployment=deployment, strategy="popularity-partitioned"
        )
        engineering.configure_catalog(100)
        return engineering

    def test_partition_cutoff_from_catalog(self, te):
        assert te.n_popular_titles == 10

    def test_rank_on_boundary_not_partitioned(self, te):
        client = GeoPoint(lat=40.7, lon=-74.0, city="x", country="US")
        # rank 10 is the first *unpopular* title under a 10-title cutoff
        servers = {
            te.assign(client, 10, 10, f"s{i}").server_id for i in range(10)
        }
        assert len(servers) == 1

    def test_unconfigured_partition_behaves_cache_focused(self):
        deployment = build_default_deployment(total_servers=20)
        te = TrafficEngineering(
            deployment=deployment, strategy="popularity-partitioned"
        )
        client = GeoPoint(lat=40.7, lon=-74.0, city="x", country="US")
        servers = {te.assign(client, 0, 0, f"s{i}").server_id for i in range(10)}
        assert len(servers) == 1  # no cutoff configured -> nothing is "popular"


class TestVideoEdges:
    def test_exact_multiple_duration_has_no_short_chunk(self):
        video = Video(video_id=0, rank=0, duration_ms=12_000.0)
        assert video.n_chunks == 2
        assert video.chunk_duration_ms(1) == 6000.0

    def test_sub_chunk_video(self):
        video = Video(video_id=0, rank=0, duration_ms=2_500.0)
        assert video.n_chunks == 1
        assert video.chunk_duration_ms(0) == 2_500.0


class TestDownloadStackEffect:
    def test_total_is_first_byte_delay(self):
        effect = DownloadStackEffect(
            first_byte_delay_ms=123.0, last_byte_shift_ms=0.0, transient=False
        )
        assert effect.total_ms == 123.0


class TestNetdiagEdges:
    def test_org_cv_custom_threshold(self):
        dataset = make_dataset(3)
        dataset.tcp_snapshots = [
            tcp_snap(chunk=0, t=500.0, srtt_ms=10.0),
            tcp_snap(chunk=1, t=1000.0, srtt_ms=14.0),
            tcp_snap(chunk=2, t=1500.0, srtt_ms=10.0),
        ]
        strict = netdiag.org_cv_table(dataset, min_sessions=1, cv_threshold=0.05)
        lax = netdiag.org_cv_table(dataset, min_sessions=1, cv_threshold=5.0)
        assert strict[0].n_high_cv == 1
        assert lax[0].n_high_cv == 0

    def test_path_cv_requires_min_sessions(self):
        from helpers import cdn_session, player_session

        dataset = make_dataset(2)
        # a second session from the same /24 and PoP
        dataset.player_sessions.append(player_session(session="s2", client_ip="10.0.0.9"))
        dataset.cdn_sessions.append(cdn_session(session="s2", client_ip="10.0.0.9"))
        dataset.player_chunks.append(player_chunk(session="s2", chunk=0))
        dataset.cdn_chunks.append(cdn_chunk(session="s2", chunk=0))
        dataset.tcp_snapshots.append(tcp_snap(session="s2", chunk=0, srtt_ms=90.0))
        assert netdiag.path_cv_values(dataset, min_sessions=3) == []
        assert len(netdiag.path_cv_values(dataset, min_sessions=2)) == 1

    def test_per_chunk_retx_respects_max_id(self):
        dataset = make_dataset(3)
        rows = netdiag.per_chunk_retx_rates(dataset, max_chunk_id=1)
        assert max(cid for cid, _ in rows) <= 1


class TestPopularityEdges:
    def test_custom_rank_points(self):
        dataset = make_dataset(2)
        rows = popularity.rank_tail_miss_percentage(dataset, rank_points=[0])
        assert len(rows) == 1
        assert rows[0][0] == 0

    def test_rank_points_beyond_catalog_skipped(self):
        dataset = make_dataset(2)
        rows = popularity.rank_tail_miss_percentage(dataset, rank_points=[0, 99])
        assert [x for x, _ in rows] == [0]

    def test_empty_dataset(self):
        assert popularity.rank_tail_miss_percentage(Dataset()) == []
        assert popularity.video_ranks(Dataset()) == {}


class TestProxyFilterEdges:
    def test_mega_ip_needs_both_volume_and_impossibility(self):
        # many sessions from one IP, but each watches little: kept
        dataset = Dataset()
        from helpers import cdn_session, player_session

        for i in range(30):
            sid = f"s{i}"
            dataset.player_sessions.append(
                player_session(session=sid, client_ip="203.0.113.9", start_ms=i * 1000.0)
            )
            dataset.cdn_sessions.append(
                cdn_session(session=sid, client_ip="203.0.113.9")
            )
            dataset.player_chunks.append(player_chunk(session=sid, chunk=0))
            dataset.cdn_chunks.append(cdn_chunk(session=sid, chunk=0))
        filtered, report = filter_proxies(dataset)
        assert not report.mega_ips
        assert filtered.n_sessions == 30


class TestSimulationEdges:
    def test_single_session_simulation(self):
        result = run(SimulationConfig(n_sessions=1, seed=99))
        assert result.dataset.n_sessions == 1
        session = result.dataset.sessions()[0]
        assert session.n_chunks >= 1
        assert session.chunks[0].tcp  # snapshots present even for one chunk

    def test_prefetch_depth_zero_is_noop(self):
        base = SimulationConfig(
            n_sessions=100, seed=12, prefetch_after_miss=True, prefetch_depth=0
        )
        with_prefetch = run(base)
        without = run(base.with_overrides(prefetch_after_miss=False))
        a = [c.cache_status for c in with_prefetch.dataset.cdn_chunks]
        b = [c.cache_status for c in without.dataset.cdn_chunks]
        assert a == b

    def test_buffer_abr_sessions_start_low(self):
        result = run(SimulationConfig(n_sessions=60, seed=14, abr_name="buffer"))
        first_bitrates = {
            c.bitrate_kbps
            for c in result.dataset.player_chunks
            if c.chunk_id == 0
        }
        assert first_bitrates == {235.0}
