"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    coefficient_of_variation,
    empirical_ccdf,
    empirical_cdf,
    zipf_weights,
)
from repro.cdn.cache import CacheLevel, TwoLevelCache
from repro.cdn.policies import make_policy
from repro.client.abr import BufferBasedAbr, ChunkObservation, RateBasedAbr
from repro.client.buffer import PlaybackBuffer
from repro.client.rendering import rate_drop_term
from repro.net.prefix import prefix_of
from repro.net.tcp import TcpConnection
from repro.net.path import NetworkPath
from repro.obs.registry import MetricsRegistry
from repro.workload.catalog import Video, chunk_size_bytes
from repro.workload.popularity import PopularityModel

finite_floats = st.floats(
    min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False
)

LADDER = (235, 375, 560, 750, 1050, 1750, 2350, 3000)


class TestCdfProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_cdf_monotone_and_bounded(self, samples):
        cdf = empirical_cdf(samples)
        assert np.all(np.diff(cdf.ps) >= 0)
        assert 0.0 < cdf.ps[0] <= 1.0
        assert cdf.ps[-1] == 1.0

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_cdf_ccdf_complement(self, samples):
        cdf = empirical_cdf(samples)
        ccdf = empirical_ccdf(samples)
        for x in samples:
            assert cdf.prob_at(x) + ccdf.prob_at(x) == 1.0

    @given(st.lists(finite_floats, min_size=1, max_size=100),
           st.floats(min_value=0.0, max_value=1.0))
    def test_inverse_cdf_within_sample_range(self, samples, p):
        cdf = empirical_cdf(samples)
        value = cdf.value_at(p)
        assert min(samples) <= value <= max(samples)

    @given(st.lists(finite_floats, min_size=2, max_size=100))
    def test_cv_nonnegative(self, samples):
        cv = coefficient_of_variation(samples)
        assert np.isnan(cv) or cv >= 0.0


class TestZipfProperties:
    @given(st.integers(min_value=1, max_value=5000),
           st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    def test_weights_normalized_and_sorted(self, n, alpha):
        weights = zipf_weights(n, alpha)
        assert abs(weights.sum() - 1.0) < 1e-9
        assert np.all(np.diff(weights) <= 1e-15)

    @given(st.integers(min_value=2, max_value=2000),
           st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30)
    def test_sampled_ranks_valid(self, n, alpha, seed):
        model = PopularityModel(n_videos=n, alpha=alpha)
        ranks = model.sample_ranks(np.random.default_rng(seed), 100)
        assert ranks.min() >= 0 and ranks.max() < n


class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=30),
                      st.integers(min_value=1, max_value=40)),
            min_size=1,
            max_size=200,
        ),
        st.sampled_from(["lru", "fifo", "gdsize", "perfect-lfu"]),
    )
    @settings(max_examples=50)
    def test_capacity_never_exceeded(self, operations, policy_name):
        cache = CacheLevel(100, make_policy(policy_name))
        for key, size in operations:
            if not cache.lookup(key):
                cache.insert(key, size)
            assert cache.used_bytes <= cache.capacity_bytes
            assert cache.used_bytes >= 0

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=100)
    )
    @settings(max_examples=50)
    def test_two_level_lookup_admit_consistency(self, keys):
        cache = TwoLevelCache(50, 500)
        for key in keys:
            status = cache.lookup(key, 10)
            if status.value == "miss":
                cache.admit(key, 10)
            # after a miss+admit, the object must be resident
            assert cache.contains(key)

    @given(
        st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=80)
    )
    @settings(max_examples=50)
    def test_small_working_set_always_hits_after_admit(self, keys):
        """A working set far below capacity must never be evicted."""
        cache = TwoLevelCache(10_000, 100_000)
        seen = set()
        for key in keys:
            status = cache.lookup(key, 10)
            if key in seen:
                assert status.is_hit
            else:
                cache.admit(key, 10)
                seen.add(key)


class TestBufferProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=100.0, max_value=20_000.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=20_000.0, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=60)
    def test_buffer_conservation(self, chunks):
        """Media in = media played + media buffered + media lost-to-nothing
        (nothing: stalls do not destroy media)."""
        registry = MetricsRegistry()
        buffer = PlaybackBuffer(metrics=registry)
        t = 0.0
        total_media = 0.0
        stalls = 0
        for media_ms, gap_ms in chunks:
            t += gap_ms
            count, stall_ms = buffer.on_chunk_ready(0, media_ms, t)
            total_media += media_ms
            stalls += count
            assert stall_ms >= 0.0 and (stall_ms > 0.0) == (count == 1)
            assert buffer.level_ms >= media_ms - 1e-6  # just-added media present
            assert buffer.level_ms <= total_media + 1e-6
        # every stall returned is counted once
        assert registry.counter("client.rebuffer_events_total").value == stalls
        assert registry.histogram("client.rebuffer_ms").count == stalls

    @given(
        st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False),
    )
    def test_level_at_monotone_decreasing(self, t1, t2):
        assume(t1 <= t2)
        buffer = PlaybackBuffer()
        buffer.on_chunk_ready(0, 6000.0, 0.0)
        assert buffer.level_at(t1) >= buffer.level_at(t2)


class TestAbrProperties:
    @given(st.lists(st.floats(min_value=50.0, max_value=100_000.0, allow_nan=False),
                    min_size=1, max_size=20))
    def test_rate_abr_pick_always_on_ladder(self, throughputs):
        abr = RateBasedAbr(LADDER)
        for tp in throughputs:
            abr.observe(ChunkObservation(1000.0, 0.0, 1000.0, int(tp * 125)))
            assert abr.choose_bitrate(0.0) in LADDER

    @given(st.floats(min_value=0.0, max_value=100_000.0, allow_nan=False))
    def test_buffer_abr_pick_always_on_ladder(self, level):
        abr = BufferBasedAbr(LADDER)
        assert abr.choose_bitrate(level) in LADDER

    @given(st.lists(st.floats(min_value=50.0, max_value=100_000.0, allow_nan=False),
                    min_size=3, max_size=10))
    def test_estimate_never_exceeds_max_sample(self, throughputs):
        """Harmonic mean is bounded by the max sample."""
        abr = RateBasedAbr(LADDER, window=10)
        for tp in throughputs:
            abr.observe(ChunkObservation(1000.0, 0.0, 1000.0, int(tp * 125)))
        estimate = abr.estimate_kbps()
        assert estimate <= max(throughputs) * 1.01


class TestRenderingProperties:
    @given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_rate_drop_term_bounded(self, rate):
        term = rate_drop_term(rate)
        assert 0.0 <= term <= 0.40

    @given(st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
           st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    def test_rate_drop_term_monotone_nonincreasing(self, r1, r2):
        assume(r1 <= r2)
        assert rate_drop_term(r1) >= rate_drop_term(r2)


class TestTcpProperties:
    @given(
        st.integers(min_value=1460, max_value=3_000_000),
        st.floats(min_value=5.0, max_value=500.0, allow_nan=False),
        st.floats(min_value=1_000.0, max_value=100_000.0, allow_nan=False),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_transfer_invariants(self, nbytes, rtt, bw, seed):
        rng = np.random.default_rng(seed)
        path = NetworkPath(
            base_rtt_ms=rtt,
            bottleneck_kbps=bw,
            loss_rate=0.01,
            jitter_sigma=0.1,
            rng=rng,
            episode_gap_mean_ms=1e12,
        )
        conn = TcpConnection(path, rng)
        result = conn.transfer(nbytes, 0.0)
        segments_needed = int(np.ceil(nbytes / conn.mss))
        # every needed segment was sent at least once
        assert result.segments_sent >= segments_needed
        assert result.segments_retx == result.segments_sent - segments_needed
        assert 0.0 <= result.retx_rate < 1.0
        # physics: every round costs at least one round trip, so the
        # transfer cannot finish faster than its own fastest RTT sample.
        # (Comparing against base rtt directly is statistically unsound:
        # the lognormal measurement noise has no lower bound, so a sample
        # can dip below any fixed fraction of the base.)
        assert result.duration_ms >= result.min_rtt_ms
        assert result.duration_ms >= nbytes * 8.0 / bw * 0.8
        # SRTT ended positive and sane
        assert conn.srtt_ms is not None and conn.srtt_ms > 0

    @given(st.lists(st.floats(min_value=1.0, max_value=5000.0, allow_nan=False),
                    min_size=1, max_size=50))
    def test_srtt_stays_within_sample_hull(self, samples):
        rng = np.random.default_rng(0)
        path = NetworkPath(
            base_rtt_ms=50.0, bottleneck_kbps=10_000.0, loss_rate=0.0,
            jitter_sigma=0.1, rng=rng, episode_gap_mean_ms=1e12,
        )
        conn = TcpConnection(path, rng)
        for sample in samples:
            conn.observe_rtt(sample)
        assert min(samples) - 1e-6 <= conn.srtt_ms <= max(samples) + 1e-6


class TestMiscProperties:
    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=255))
    def test_prefix_of_any_ipv4(self, a, b, c, d):
        prefix = prefix_of(f"{a}.{b}.{c}.{d}")
        assert prefix == f"{a}.{b}.{c}.0/24"

    @given(st.floats(min_value=1.0, max_value=10_000.0, allow_nan=False),
           st.floats(min_value=1.0, max_value=60_000.0, allow_nan=False))
    def test_chunk_size_scales(self, bitrate, duration):
        size = chunk_size_bytes(bitrate, duration)
        assert size == int(bitrate * duration / 8.0)

    @given(st.floats(min_value=6000.0, max_value=10_000_000.0, allow_nan=False))
    def test_video_chunks_cover_duration(self, duration_ms):
        video = Video(video_id=0, rank=0, duration_ms=duration_ms)
        total = sum(video.chunk_duration_ms(i) for i in range(video.n_chunks))
        assert total == pytest.approx(duration_ms, abs=1e-6)
