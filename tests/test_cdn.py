"""Unit tests for the CDN substrate: policies, cache, server, PoPs, mapping."""

import numpy as np
import pytest

from repro.cdn.backend import BackendService
from repro.cdn.cache import CacheLevel, CacheStatus, TwoLevelCache
from repro.cdn.mapping import TrafficEngineering
from repro.cdn.policies import (
    FifoPolicy,
    GdSizePolicy,
    LruPolicy,
    PerfectLfuPolicy,
    make_policy,
)
from repro.cdn.pop import build_default_deployment
from repro.cdn.server import CdnServer, CdnServerConfig
from repro.faults import FaultEvent, FaultInjector, FaultSpec
from repro.obs.registry import MetricsRegistry
from repro.workload.geo import GeoPoint


class TestPolicies:
    def test_lru_evicts_least_recent(self):
        policy = LruPolicy()
        for key in "abc":
            policy.on_insert(key, 1, 1.0)
        policy.on_hit("a")
        assert policy.select_victim() == "b"

    def test_lru_remove(self):
        policy = LruPolicy()
        policy.on_insert("a", 1, 1.0)
        policy.on_remove("a")
        assert len(policy) == 0
        with pytest.raises(LookupError):
            policy.select_victim()

    def test_fifo_ignores_hits(self):
        policy = FifoPolicy()
        for key in "abc":
            policy.on_insert(key, 1, 1.0)
        policy.on_hit("a")
        assert policy.select_victim() == "a"

    def test_gdsize_prefers_evicting_cheap_large(self):
        policy = GdSizePolicy()
        policy.on_insert("large_cheap", 100, 1.0)
        policy.on_insert("small_costly", 1, 100.0)
        assert policy.select_victim() == "large_cheap"

    def test_gdsize_clock_advances(self):
        policy = GdSizePolicy()
        policy.on_insert("a", 10, 1.0)
        victim = policy.select_victim()
        policy.on_remove(victim)
        # after the clock advanced, new same-priority objects outrank old ones
        policy.on_insert("b", 10, 1.0)
        policy.on_insert("c", 10, 1.0)
        assert policy.select_victim() == "b"

    def test_gdsize_hit_refreshes(self):
        policy = GdSizePolicy()
        policy.on_insert("a", 10, 1.0)
        policy.on_insert("b", 10, 1.0)
        # advance the clock by evicting a dummy
        policy.on_insert("dummy", 1000, 0.001)
        policy.on_remove(policy.select_victim())
        policy.on_hit("a")
        assert policy.select_victim() == "b"

    def test_gdsize_size_validation(self):
        with pytest.raises(ValueError):
            GdSizePolicy().on_insert("a", 0, 1.0)

    def test_perfect_lfu_keeps_frequency_across_eviction(self):
        policy = PerfectLfuPolicy()
        for _ in range(5):
            policy.on_insert("hot", 1, 1.0)
            policy.on_remove("hot")
        policy.on_insert("hot", 1, 1.0)  # freq now 6
        policy.on_insert("cold", 1, 1.0)  # freq 1
        assert policy.select_victim() == "cold"

    def test_perfect_lfu_hits_increase_frequency(self):
        policy = PerfectLfuPolicy()
        policy.on_insert("a", 1, 1.0)
        policy.on_insert("b", 1, 1.0)
        policy.on_hit("a")
        assert policy.select_victim() == "b"

    def test_make_policy_names(self):
        assert isinstance(make_policy("lru"), LruPolicy)
        assert isinstance(make_policy("GD-Size"), GdSizePolicy)
        assert isinstance(make_policy("perfect-lfu"), PerfectLfuPolicy)
        assert isinstance(make_policy("fifo"), FifoPolicy)
        with pytest.raises(ValueError):
            make_policy("nope")

    @pytest.mark.parametrize("name", ["lru", "fifo", "gdsize", "perfect-lfu"])
    def test_policy_len_tracks_contents(self, name):
        policy = make_policy(name)
        policy.on_insert("a", 2, 1.0)
        policy.on_insert("b", 2, 1.0)
        assert len(policy) == 2
        policy.on_remove("a")
        assert len(policy) == 1


class TestCacheLevel:
    def test_hit_after_insert(self):
        cache = CacheLevel(25)
        cache.insert("a", 10)
        cache.insert("b", 10)
        assert cache.lookup("a")
        cache.insert("c", 10)  # the hit made "b" the least recent
        assert cache.peek("a") and not cache.peek("b")

    def test_miss_counted(self):
        # a miss is reported by the return value (the server counts it)
        # and admits nothing
        cache = CacheLevel(100)
        assert not cache.lookup("missing")
        assert not cache.peek("missing")
        assert len(cache) == 0 and cache.used_bytes == 0

    def test_eviction_frees_space(self):
        cache = CacheLevel(25)
        cache.insert("a", 10)
        cache.insert("b", 10)
        cache.insert("c", 10)  # evicts "a" (LRU)
        assert not cache.peek("a")
        assert cache.peek("b") and cache.peek("c")
        assert cache.used_bytes == 20
        assert len(cache) == 2

    def test_oversized_object_not_admitted(self):
        cache = CacheLevel(10)
        cache.insert("big", 100)
        assert not cache.peek("big")

    def test_reinsert_is_noop(self):
        cache = CacheLevel(100)
        cache.insert("a", 10)
        cache.insert("a", 10)
        assert cache.used_bytes == 10

    def test_invalidate(self):
        cache = CacheLevel(100)
        cache.insert("a", 10)
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert cache.used_bytes == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheLevel(0)
        with pytest.raises(ValueError):
            CacheLevel(10).insert("a", 0)


class TestTwoLevelCache:
    def test_miss_then_admit_then_ram_hit(self):
        cache = TwoLevelCache(100, 1000)
        assert cache.lookup("a", 10) is CacheStatus.MISS
        cache.admit("a", 10)
        assert cache.lookup("a", 10) is CacheStatus.HIT_RAM

    def test_disk_hit_promotes_to_ram(self):
        cache = TwoLevelCache(20, 1000)
        cache.admit("a", 10)
        cache.admit("b", 10)
        cache.admit("c", 10)  # "a" falls out of RAM but stays on disk
        assert cache.lookup("a", 10) is CacheStatus.HIT_DISK
        assert cache.lookup("a", 10) is CacheStatus.HIT_RAM  # promoted

    def test_disk_capacity_must_dominate(self):
        with pytest.raises(ValueError):
            TwoLevelCache(100, 50)

    def test_contains_no_side_effects(self):
        # RAM holds two objects: the next admit evicts the least recent
        # one, which a contains() check must leave as it was (a lookup
        # makes "a" recent, so "b" goes instead)
        def evicted_after(probe):
            cache = TwoLevelCache(20, 1000)
            cache.admit("a", 10)
            cache.admit("b", 10)
            assert probe(cache)
            cache.admit("c", 10)
            (gone,) = [key for key in "ab" if not cache.ram.peek(key)]
            return gone

        assert evicted_after(lambda cache: cache.contains("a")) == "a"
        assert evicted_after(lambda cache: cache.lookup("a", 10).is_hit) == "b"

    def test_policy_name_plumbs_through(self):
        cache = TwoLevelCache(100, 1000, policy_name="gdsize")
        assert isinstance(cache.ram.policy, GdSizePolicy)
        assert isinstance(cache.disk.policy, GdSizePolicy)


class TestBackend:
    def test_latency_includes_rtt(self, rng):
        backend = BackendService(service_mean_ms=10.0, service_sigma=0.1)
        samples = [backend.first_byte_latency_ms(50.0, rng) for _ in range(100)]
        assert min(samples) > 50.0
        assert 55.0 < np.median(samples) < 70.0

    def test_negative_rtt_rejected(self, rng):
        with pytest.raises(ValueError):
            BackendService().first_byte_latency_ms(-1.0, rng)


class TestDeployment:
    def test_default_has_85_servers(self):
        deployment = build_default_deployment()
        assert deployment.n_servers == 85

    def test_every_pop_has_a_server(self):
        deployment = build_default_deployment()
        assert all(pop.n_servers >= 1 for pop in deployment.pops)

    def test_server_ids_unique(self):
        deployment = build_default_deployment()
        ids = deployment.all_server_ids()
        assert len(set(ids)) == len(ids) == 85

    def test_nearest_pop(self):
        deployment = build_default_deployment()
        near_chicago = GeoPoint(lat=41.9, lon=-87.6, city="x", country="US")
        assert deployment.nearest_pop(near_chicago).pop_id == "pop-chicago"

    def test_pop_of_server(self):
        deployment = build_default_deployment()
        pop = deployment.pops[0]
        assert deployment.pop_of_server(pop.server_ids[0]).pop_id == pop.pop_id
        with pytest.raises(KeyError):
            deployment.pop_of_server("srv-nowhere-99")

    def test_backend_rtt_positive(self):
        deployment = build_default_deployment()
        assert all(pop.backend_rtt_ms > 0 for pop in deployment.pops)

    def test_custom_server_count(self):
        deployment = build_default_deployment(total_servers=20)
        assert deployment.n_servers == 20

    def test_too_few_servers_rejected(self):
        with pytest.raises(ValueError):
            build_default_deployment(total_servers=3)


class TestTrafficEngineering:
    @pytest.fixture(scope="class")
    def deployment(self):
        return build_default_deployment()

    def test_cache_focused_is_sticky_per_video(self, deployment):
        te = TrafficEngineering(deployment=deployment)
        client = GeoPoint(lat=40.7, lon=-74.0, city="x", country="US")
        decisions = {
            te.assign(client, video_id=7, video_rank=7, session_id=f"s{i}").server_id
            for i in range(20)
        }
        assert len(decisions) == 1

    def test_cache_focused_spreads_videos(self, deployment):
        te = TrafficEngineering(deployment=deployment)
        client = GeoPoint(lat=40.7, lon=-74.0, city="x", country="US")
        servers = {
            te.assign(client, video_id=v, video_rank=v, session_id="s").server_id
            for v in range(50)
        }
        assert len(servers) > 1

    def test_nearest_pop_used(self, deployment):
        te = TrafficEngineering(deployment=deployment)
        seattle_client = GeoPoint(lat=47.6, lon=-122.3, city="x", country="US")
        decision = te.assign(seattle_client, 1, 1, "s")
        assert decision.pop.pop_id == "pop-seattle"

    def test_popularity_partitioned_spreads_hot_titles(self, deployment):
        te = TrafficEngineering(deployment=deployment, strategy="popularity-partitioned")
        te.configure_catalog(1000)
        client = GeoPoint(lat=40.7, lon=-74.0, city="x", country="US")
        hot_servers = {
            te.assign(client, video_id=0, video_rank=0, session_id=f"s{i}").server_id
            for i in range(30)
        }
        cold_servers = {
            te.assign(client, video_id=999, video_rank=999, session_id=f"s{i}").server_id
            for i in range(30)
        }
        assert len(hot_servers) > 1  # hot title spread over the PoP
        assert len(cold_servers) == 1  # tail stays cache-focused

    def test_random_strategy_varies_by_session(self, deployment):
        te = TrafficEngineering(deployment=deployment, strategy="random")
        client = GeoPoint(lat=40.7, lon=-74.0, city="x", country="US")
        servers = {
            te.assign(client, 1, 1, session_id=f"s{i}").server_id for i in range(30)
        }
        assert len(servers) > 1

    def test_strategy_validation(self, deployment):
        with pytest.raises(ValueError):
            TrafficEngineering(deployment=deployment, strategy="bogus")
        with pytest.raises(ValueError):
            TrafficEngineering(deployment=deployment, partition_top_fraction=0.0)


class TestCdnServer:
    def make_server(self, metrics=None, faults=None, **config_kwargs):
        config_kwargs.setdefault("ram_capacity_bytes", 10 * 1024**2)
        config_kwargs.setdefault("disk_capacity_bytes", 100 * 1024**2)
        config = CdnServerConfig(**config_kwargs)
        return CdnServer(
            "srv-test-00", backend_rtt_ms=30.0, config=config, seed=1,
            metrics=metrics, faults=faults,
        )

    def test_first_request_misses_and_pays_backend(self):
        server = self.make_server()
        result = server.serve(("v", 0, 1000), 500_000, 0.0)
        assert result.status is CacheStatus.MISS
        assert result.d_be_ms > 30.0
        assert result.retry_timer_hit

    def test_second_request_hits_ram_fast(self):
        server = self.make_server()
        key = ("v", 0, 1000)
        server.serve(key, 500_000, 0.0)
        result = server.serve(key, 500_000, 100.0)
        assert result.status is CacheStatus.HIT_RAM
        assert result.d_be_ms == 0.0
        assert result.d_read_ms < 10.0
        assert not result.retry_timer_hit

    def test_disk_hit_pays_retry_timer(self):
        server = self.make_server(ram_capacity_bytes=1024**2)
        # fill RAM far beyond capacity so early objects fall to disk-only
        for i in range(10):
            server.serve(("v", i, 1000), 500_000, float(i))
        result = server.serve(("v", 0, 1000), 500_000, 100.0)
        assert result.status is CacheStatus.HIT_DISK
        assert result.d_read_ms >= server.config.retry_timer_ms

    def test_latency_ordering_hit_disk_miss(self):
        server = self.make_server(ram_capacity_bytes=1024**2)
        ram_hits, disk_hits, misses = [], [], []
        for i in range(60):
            result = server.serve(("v", i % 20, 1000), 400_000, float(i))
            bucket = {
                CacheStatus.HIT_RAM: ram_hits,
                CacheStatus.HIT_DISK: disk_hits,
                CacheStatus.MISS: misses,
            }[result.status]
            bucket.append(result.total_ms)
        assert misses and disk_hits
        if ram_hits:
            assert np.median(ram_hits) < np.median(disk_hits)
        assert np.median(disk_hits) < np.median(misses)

    def test_d_cdn_decomposition(self):
        server = self.make_server()
        result = server.serve(("v", 0, 1000), 100_000, 0.0)
        assert result.d_cdn_ms == pytest.approx(
            result.d_wait_ms + result.d_open_ms + result.d_read_ms
        )
        assert result.total_ms == pytest.approx(result.d_cdn_ms + result.d_be_ms)

    def test_prefetch_warms_cache(self):
        registry = MetricsRegistry()
        server = self.make_server(metrics=registry)
        assert server.prefetch(("v", 1, 1000), 500_000)
        assert not server.prefetch(("v", 1, 1000), 500_000)  # already cached
        result = server.serve(("v", 1, 1000), 500_000, 0.0)
        assert result.status is not CacheStatus.MISS
        assert registry.counter("cdn.prefetch_fetches_total").value == 1

    def test_stats_counters(self):
        registry = MetricsRegistry()
        server = self.make_server(metrics=registry)
        server.serve(("v", 0, 1000), 100_000, 0.0)
        server.serve(("v", 0, 1000), 100_000, 1.0)
        counters = registry.snapshot()["counters"]
        assert counters["cdn.requests_total"] == 2
        assert counters["cdn.bytes_served_total"] == 200_000
        assert counters["cdn.cache_misses_total"] == 1
        assert counters["cdn.cache_hits_ram_total"] == 1

    def test_registry_counts_what_serve_and_prefetch_return(self):
        registry = MetricsRegistry()
        brownout = FaultEvent(
            "brownout", "cache-brownout", start_ms=45.0, end_ms=55.0,
            servers=("srv-test-00",),
        )
        server = self.make_server(
            metrics=registry, faults=FaultInjector(FaultSpec(events=(brownout,))),
            ram_capacity_bytes=250_000,
        )
        # RAM holds two objects; each key is asked for twice in a row
        requests = [(("v", i // 2 % 4, 1000), 100_000 + i, 10.0 * i) for i in range(12)]
        results = [server.serve(key, size, t) for key, size, t in requests]
        # the request at 50 ms bypasses the cache: a miss on a cached key
        assert results[5].status is CacheStatus.MISS
        assert server.cache.contains(requests[5][0])
        fetched = [
            server.prefetch(("v", j, 1000), 200_000) for j in (2, 6, 7, 6)
        ]
        statuses = [result.status for result in results]
        assert set(statuses) == set(CacheStatus)
        counters = registry.snapshot()["counters"]
        assert counters["cdn.requests_total"] == len(requests)
        assert counters["cdn.bytes_served_total"] == sum(size for _, size, _ in requests)
        assert counters["cdn.cache_hits_ram_total"] == statuses.count(CacheStatus.HIT_RAM)
        assert counters["cdn.cache_hits_disk_total"] == statuses.count(CacheStatus.HIT_DISK)
        assert counters["cdn.cache_misses_total"] == statuses.count(CacheStatus.MISS)
        assert counters["cdn.backend_fetches_total"] == sum(r.d_be_ms > 0 for r in results)
        assert counters["cdn.retry_timer_hits_total"] == sum(r.retry_timer_hit for r in results)
        assert counters["cdn.prefetch_fetches_total"] == sum(fetched) == 2
        assert counters["faults.server_requests_total"] == 1

    def test_load_estimate_rises_with_rate(self):
        server = self.make_server()
        for i in range(50):
            server.serve(("v", i, 1000), 100_000, i * 0.5)  # 2000 req/s
        busy = server.load_estimate
        quiet_server = self.make_server()
        for i in range(50):
            quiet_server.serve(("v", i, 1000), 100_000, i * 1000.0)
        assert busy > quiet_server.load_estimate
        # one request a second keeps the pool near idle
        assert quiet_server.load_estimate < 0.01

    def test_serve_validation(self):
        server = self.make_server()
        with pytest.raises(ValueError):
            server.serve(("v", 0, 1000), 0, 0.0)
        with pytest.raises(ValueError):
            server.prefetch(("v", 0, 1000), 0)
