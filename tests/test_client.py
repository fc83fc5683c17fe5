"""Unit tests for the client substrate: ABR, buffer, download stack,
rendering, browsers."""

import numpy as np
import pytest

from repro.client.abr import (
    BufferBasedAbr,
    ChunkObservation,
    HybridAbr,
    RateBasedAbr,
    make_abr,
)
from repro.client.browsers import (
    PLATFORM_PROFILES,
    browser_shares_by_os,
    get_profile,
    sample_platform,
    user_agent_string,
)
from repro.client.buffer import PlaybackBuffer
from repro.client.downloadstack import DownloadStackModel
from repro.client.rendering import GOOD_RATE_THRESHOLD, RenderingModel, rate_drop_term
from repro.obs.registry import MetricsRegistry

LADDER = (235, 375, 560, 750, 1050, 1750, 2350, 3000)


def obs(throughput_kbps: float, bitrate: float = 1000.0) -> ChunkObservation:
    """Build an observation that yields the given player-side throughput."""
    dlb = 1000.0
    chunk_bytes = int(throughput_kbps * dlb / 8.0)
    return ChunkObservation(
        bitrate_kbps=bitrate, dfb_ms=0.0, dlb_ms=dlb, chunk_bytes=chunk_bytes
    )


class TestChunkObservation:
    def test_throughput_formula(self):
        # 1 MB over 1 s ~ 8 Mbps
        observation = ChunkObservation(1000.0, 0.0, 1000.0, 1_000_000)
        assert observation.throughput_kbps == pytest.approx(8000.0)

    def test_zero_duration_throughput(self):
        observation = ChunkObservation(1000.0, 0.0, 0.0, 1000)
        assert observation.throughput_kbps == 0.0


class TestRateBasedAbr:
    def test_startup_mid_ladder(self):
        abr = RateBasedAbr(LADDER)
        assert abr.choose_bitrate(0.0) == LADDER[4]

    def test_startup_rung_clamped(self):
        abr = RateBasedAbr(LADDER, startup_rung=99)
        assert abr.choose_bitrate(0.0) == LADDER[-1]

    def test_tracks_throughput_with_safety(self):
        abr = RateBasedAbr(LADDER, safety=0.8)
        for _ in range(5):
            abr.observe(obs(3000.0))
        # 0.8 * 3000 = 2400 -> pick 2350
        assert abr.choose_bitrate(0.0) == 2350

    def test_low_throughput_floors(self):
        abr = RateBasedAbr(LADDER)
        for _ in range(5):
            abr.observe(obs(100.0))
        assert abr.choose_bitrate(0.0) == LADDER[0]

    def test_harmonic_mean_punishes_dips(self):
        abr = RateBasedAbr(LADDER, window=3, safety=1.0)
        for tp in (10_000.0, 10_000.0, 500.0):
            abr.observe(obs(tp))
        estimate = abr.estimate_kbps()
        assert estimate < 2000.0  # harmonic mean dominated by the dip

    def test_outlier_screening_drops_burst_sample(self):
        plain = RateBasedAbr(LADDER, window=5, safety=1.0)
        screened = RateBasedAbr(LADDER, window=5, safety=1.0, screen_outliers=True)
        samples = [2000.0, 2100.0, 1900.0, 2000.0, 50_000.0]  # DS burst at the end
        for tp in samples:
            plain.observe(obs(tp))
            screened.observe(obs(tp))
        assert screened.estimate_kbps() < plain.estimate_kbps()

    def test_instantaneous_mode_vulnerable_to_bursts(self):
        """A DS burst (tiny D_LB) inflates the instantaneous estimate but
        not the full-window estimate; screening repairs the former."""
        burst = ChunkObservation(1000.0, 3000.0, 30.0, 375_000)  # 100 Mbps inst.
        normal = ChunkObservation(1000.0, 50.0, 1000.0, 375_000)  # 3 Mbps
        vulnerable = RateBasedAbr(LADDER, window=5, safety=1.0, use_instantaneous=True)
        robust = RateBasedAbr(LADDER, window=5, safety=1.0)
        screened = RateBasedAbr(
            LADDER, window=5, safety=1.0, use_instantaneous=True, screen_outliers=True
        )
        for abr in (vulnerable, robust, screened):
            for _ in range(4):
                abr.observe(normal)
            abr.observe(burst)
        # the burst inflates the instantaneous estimate (even the harmonic
        # mean moves up), the screened estimator drops it entirely
        assert vulnerable.estimate_kbps() > 1.15 * robust.estimate_kbps()
        assert screened.estimate_kbps() == pytest.approx(3000.0)

    def test_window_limits_memory(self):
        abr = RateBasedAbr(LADDER, window=2, safety=1.0)
        abr.observe(obs(100.0))
        for _ in range(2):
            abr.observe(obs(5000.0))
        assert abr.estimate_kbps() == pytest.approx(5000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RateBasedAbr(LADDER, window=0)
        with pytest.raises(ValueError):
            RateBasedAbr(LADDER, safety=0.0)
        with pytest.raises(ValueError):
            RateBasedAbr(())
        with pytest.raises(ValueError):
            RateBasedAbr((500, 300))


class TestBufferBasedAbr:
    def test_below_reservoir_lowest(self):
        abr = BufferBasedAbr(LADDER, reservoir_ms=6000.0, cushion_ms=24_000.0)
        assert abr.choose_bitrate(1000.0) == LADDER[0]

    def test_above_cushion_highest(self):
        abr = BufferBasedAbr(LADDER, reservoir_ms=6000.0, cushion_ms=24_000.0)
        assert abr.choose_bitrate(30_000.0) == LADDER[-1]

    def test_monotone_in_buffer(self):
        abr = BufferBasedAbr(LADDER)
        picks = [abr.choose_bitrate(level) for level in range(0, 30_000, 1000)]
        assert picks == sorted(picks)

    def test_validation(self):
        with pytest.raises(ValueError):
            BufferBasedAbr(LADDER, reservoir_ms=10_000.0, cushion_ms=5_000.0)


class TestHybridAbr:
    def test_thin_buffer_caps_rate_pick(self):
        abr = HybridAbr(LADDER, safety=1.0)
        for _ in range(5):
            abr.observe(obs(10_000.0))
        thin = abr.choose_bitrate(1000.0)
        deep = abr.choose_bitrate(30_000.0)
        assert thin < deep
        assert deep == LADDER[-1]

    def test_make_abr_factory(self):
        assert isinstance(make_abr("rate", LADDER), RateBasedAbr)
        assert isinstance(make_abr("buffer", LADDER), BufferBasedAbr)
        assert isinstance(make_abr("hybrid", LADDER), HybridAbr)
        with pytest.raises(ValueError):
            make_abr("bogus", LADDER)


class TestPlaybackBuffer:
    def test_first_chunk_is_startup_not_rebuffer(self):
        registry = MetricsRegistry()
        buffer = PlaybackBuffer(metrics=registry)
        count, ms = buffer.on_chunk_ready(0, 6000.0, 1500.0)
        assert (count, ms) == (0, 0.0)
        assert registry.counter("client.rebuffer_events_total").value == 0
        assert buffer.level_ms == 6000.0
        # playback starts when the first chunk completes
        assert buffer.level_at(2500.0) == pytest.approx(5000.0)

    def test_no_stall_when_chunks_keep_up(self):
        registry = MetricsRegistry()
        buffer = PlaybackBuffer(metrics=registry)
        t = 0.0
        for i in range(5):
            t += 1000.0
            count, ms = buffer.on_chunk_ready(i, 6000.0, t)
            assert count == 0 and ms == 0.0
        assert registry.counter("client.rebuffer_events_total").value == 0
        assert registry.histogram("client.rebuffer_ms").count == 0

    def test_stall_charged_to_late_chunk(self):
        registry = MetricsRegistry()
        buffer = PlaybackBuffer(metrics=registry)
        buffer.on_chunk_ready(0, 6000.0, 0.0)
        count, ms = buffer.on_chunk_ready(1, 6000.0, 10_000.0)  # 4 s dry
        assert count == 1
        assert ms == pytest.approx(4000.0)
        # counted once, as one stall of 4 s (the (2, 5] s bucket)
        assert registry.counter("client.rebuffer_events_total").value == 1
        stalls = registry.histogram("client.rebuffer_ms")
        assert stalls.count == 1
        assert stalls.counts[stalls.edges.index(5000.0)] == 1

    def test_level_drains_in_real_time(self):
        buffer = PlaybackBuffer()
        buffer.on_chunk_ready(0, 6000.0, 0.0)
        assert buffer.level_at(2500.0) == pytest.approx(3500.0)
        assert buffer.level_at(10_000.0) == 0.0

    def test_exact_boundary_no_stall(self):
        buffer = PlaybackBuffer()
        buffer.on_chunk_ready(0, 6000.0, 0.0)
        count, ms = buffer.on_chunk_ready(1, 6000.0, 6000.0)
        assert count == 0 and ms == 0.0

    def test_time_must_not_go_backwards(self):
        buffer = PlaybackBuffer()
        buffer.on_chunk_ready(0, 6000.0, 100.0)
        with pytest.raises(ValueError):
            buffer.on_chunk_ready(1, 6000.0, 50.0)
        with pytest.raises(ValueError):
            buffer.level_at(50.0)

    def test_media_must_be_positive(self):
        with pytest.raises(ValueError):
            PlaybackBuffer().on_chunk_ready(0, 0.0, 0.0)


class TestBrowsers:
    def test_profiles_cover_big_three_os(self):
        oses = {p.os for p in PLATFORM_PROFILES}
        assert oses == {"Windows", "Mac", "Linux"}

    def test_shares_sum_to_one(self):
        assert sum(p.share for p in PLATFORM_PROFILES) == pytest.approx(1.0, abs=0.02)

    def test_paper_os_marginals(self):
        windows = sum(p.share for p in PLATFORM_PROFILES if p.os == "Windows")
        mac = sum(p.share for p in PLATFORM_PROFILES if p.os == "Mac")
        assert 0.84 <= windows <= 0.92  # paper: 88.5%
        assert 0.06 <= mac <= 0.13  # paper: 9.38%

    def test_paper_browser_marginals(self):
        chrome = sum(p.share for p in PLATFORM_PROFILES if p.browser == "Chrome")
        firefox = sum(p.share for p in PLATFORM_PROFILES if p.browser == "Firefox")
        assert 0.38 <= chrome <= 0.48  # paper: 43%
        assert 0.32 <= firefox <= 0.42  # paper: 37%

    def test_table5_orderings_encoded(self):
        assert get_profile("Windows", "Safari").ds_mean_ms > get_profile(
            "Windows", "Firefox"
        ).ds_mean_ms
        assert get_profile("Linux", "Safari").ds_mean_ms > 1000.0
        assert get_profile("Windows", "Chrome").ds_mean_ms < 150.0

    def test_unpopular_browsers_render_worse(self):
        assert get_profile("Windows", "Yandex").render_inefficiency > get_profile(
            "Windows", "Chrome"
        ).render_inefficiency
        assert not get_profile("Windows", "Yandex").popular

    def test_get_profile_unknown(self):
        with pytest.raises(KeyError):
            get_profile("BeOS", "NetPositive")

    def test_sample_platform_distribution(self, rng):
        samples = [sample_platform(rng).os for _ in range(2000)]
        assert 0.80 < np.mean([os == "Windows" for os in samples]) < 0.95

    def test_shares_by_os_normalized(self):
        for pairs in browser_shares_by_os().values():
            assert sum(share for _, share in pairs) == pytest.approx(1.0)

    def test_user_agent_mentions_browser(self):
        profile = get_profile("Windows", "Chrome")
        assert "Chrome" in user_agent_string(profile)
        assert "Windows" in user_agent_string(profile)


class TestDownloadStack:
    def test_first_chunk_costs_more(self, rng):
        model = DownloadStackModel(get_profile("Windows", "Chrome"), rng)
        first = [model.sample(0, 1000.0).first_byte_delay_ms for _ in range(300)]
        later = [model.sample(3, 1000.0).first_byte_delay_ms for _ in range(300)]
        assert np.median(first) > np.median(later) + 100.0

    def test_bad_platform_heavier_tail(self):
        good_rng = np.random.default_rng(1)
        bad_rng = np.random.default_rng(1)
        good = DownloadStackModel(get_profile("Windows", "Chrome"), good_rng)
        bad = DownloadStackModel(get_profile("Windows", "Safari"), bad_rng)
        good_delays = [good.sample(2, 1000.0).first_byte_delay_ms for _ in range(500)]
        bad_delays = [bad.sample(2, 1000.0).first_byte_delay_ms for _ in range(500)]
        assert np.mean(bad_delays) > 2 * np.mean(good_delays)

    def test_transient_shifts_bytes_from_dlb(self, rng):
        model = DownloadStackModel(get_profile("Windows", "Chrome"), rng)
        for _ in range(5000):
            effect = model.sample(2, 2000.0)
            if effect.transient:
                assert effect.first_byte_delay_ms > 300.0
                assert 0.0 < effect.last_byte_shift_ms <= 0.95 * 2000.0
                break
        else:
            pytest.fail("no transient event in 5000 chunks (prob ~0.3%)")

    def test_nontransient_never_shifts_dlb(self, rng):
        model = DownloadStackModel(get_profile("Mac", "Safari"), rng)
        for _ in range(200):
            effect = model.sample(1, 500.0)
            if not effect.transient:
                assert effect.last_byte_shift_ms == 0.0

    def test_validation(self, rng):
        model = DownloadStackModel(get_profile("Windows", "Chrome"), rng)
        with pytest.raises(ValueError):
            model.sample(-1, 100.0)
        with pytest.raises(ValueError):
            model.sample(0, -1.0)


class TestRendering:
    def test_rate_drop_term_shape(self):
        assert rate_drop_term(0.25) > rate_drop_term(0.9) > rate_drop_term(1.2)
        assert rate_drop_term(1.5) == rate_drop_term(4.0)  # flat beyond the knee
        assert rate_drop_term(GOOD_RATE_THRESHOLD) == pytest.approx(0.03)

    def test_rate_drop_term_validation(self):
        with pytest.raises(ValueError):
            rate_drop_term(-0.1)

    def make_model(self, rng, gpu=False, ineff_browser=("Windows", "Chrome"), load=0.0, cores=4):
        return RenderingModel(
            platform=get_profile(*ineff_browser),
            gpu=gpu,
            cpu_cores=cores,
            cpu_background_load=load,
            rng=rng,
        )

    def test_gpu_drops_almost_nothing(self, rng):
        model = self.make_model(rng, gpu=True)
        fractions = [
            model.drop_fraction(2.0, True, 1000.0, 0.0) for _ in range(100)
        ]
        assert max(fractions) < 0.02

    def test_hidden_player_drops_heavily(self, rng):
        model = self.make_model(rng)
        assert model.drop_fraction(2.0, False, 1000.0, 0.0) > 0.5

    def test_slow_rate_drops_more(self, rng):
        model = self.make_model(rng)
        slow = np.mean([model.drop_fraction(0.5, True, 1000.0, 0.0) for _ in range(200)])
        fast = np.mean([model.drop_fraction(2.0, True, 1000.0, 0.0) for _ in range(200)])
        assert slow > 2 * fast

    def test_deep_buffer_hides_slow_rate(self, rng):
        model = self.make_model(rng)
        thin = np.mean([model.drop_fraction(0.5, True, 1000.0, 0.0) for _ in range(200)])
        deep = np.mean(
            [model.drop_fraction(0.5, True, 1000.0, 20_000.0) for _ in range(200)]
        )
        assert deep < thin

    def test_cpu_load_increases_drops(self, rng):
        idle = self.make_model(np.random.default_rng(1), load=0.0, cores=8)
        loaded = self.make_model(np.random.default_rng(1), load=1.0, cores=8)
        idle_drops = np.mean([idle.drop_fraction(3.0, True, 1000.0, 0.0) for _ in range(200)])
        loaded_drops = np.mean(
            [loaded.drop_fraction(3.0, True, 1000.0, 0.0) for _ in range(200)]
        )
        assert loaded_drops > idle_drops + 0.03

    def test_inefficient_browser_drops_more(self):
        chrome = self.make_model(np.random.default_rng(2))
        yandex = self.make_model(
            np.random.default_rng(2), ineff_browser=("Windows", "Yandex")
        )
        chrome_drops = np.mean(
            [chrome.drop_fraction(2.0, True, 1000.0, 0.0) for _ in range(200)]
        )
        yandex_drops = np.mean(
            [yandex.drop_fraction(2.0, True, 1000.0, 0.0) for _ in range(200)]
        )
        assert yandex_drops > 2 * chrome_drops

    def test_render_chunk_frame_accounting(self, rng):
        model = self.make_model(rng)
        result = model.render_chunk(2.0, True, 1000.0, 0.0, 6000.0)
        assert result.total_frames == 180
        assert 0 <= result.dropped_frames <= result.total_frames
        assert result.avg_fps == pytest.approx(
            30.0 * (1 - result.dropped_frames / result.total_frames)
        )

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            RenderingModel(get_profile("Windows", "Chrome"), False, 0, 0.0, rng)
        with pytest.raises(ValueError):
            RenderingModel(get_profile("Windows", "Chrome"), False, 4, 1.5, rng)
        model = self.make_model(rng)
        with pytest.raises(ValueError):
            model.render_chunk(1.0, True, 1000.0, 0.0, 0.0)
