"""Unit tests for the network substrate: prefix utils, path model, TCP."""

import numpy as np
import pytest

from repro.net.path import NetworkPath, build_session_path
from repro.net.prefix import group_by_prefix, is_valid_ipv4, prefix_of
from repro.net.tcp import (
    DEFAULT_MSS,
    MAX_CWND_SEGMENTS,
    RTO_FLOOR_MS,
    SNAPSHOT_INTERVAL_MS,
    TcpConnection,
)
from repro.workload.clients import PopulationConfig, generate_population
from repro.workload.geo import GeoPoint


def make_path(rng, **kwargs):
    defaults = dict(
        base_rtt_ms=60.0,
        bottleneck_kbps=20_000.0,
        loss_rate=0.0,
        jitter_sigma=0.1,
        rng=rng,
        episode_gap_mean_ms=1e12,  # episodes off unless a test wants them
    )
    defaults.update(kwargs)
    return NetworkPath(**defaults)


class TestPrefixUtils:
    def test_prefix_of_basic(self):
        assert prefix_of("10.1.2.3") == "10.1.2.0/24"

    def test_prefix_of_boundary(self):
        assert prefix_of("10.1.2.0") == "10.1.2.0/24"
        assert prefix_of("10.1.2.255") == "10.1.2.0/24"

    def test_prefix_of_invalid(self):
        with pytest.raises(ValueError):
            prefix_of("not-an-ip")

    def test_is_valid_ipv4(self):
        assert is_valid_ipv4("192.168.1.1")
        assert not is_valid_ipv4("999.1.1.1")
        assert not is_valid_ipv4("")

    def test_group_by_prefix(self):
        groups = group_by_prefix([("10.0.0.1", "a"), ("10.0.0.9", "b"), ("10.0.1.1", "c")])
        assert groups["10.0.0.0/24"] == ["a", "b"]
        assert groups["10.0.1.0/24"] == ["c"]


class TestNetworkPath:
    def test_sample_rtt_near_base(self, rng):
        path = make_path(rng)
        samples = [path.sample_rtt(0.0) for _ in range(100)]
        assert 40.0 < np.median(samples) < 80.0

    def test_bdp_formula(self, rng):
        path = make_path(rng, base_rtt_ms=100.0, bottleneck_kbps=8000.0)
        # 8000 kbps * 100 ms = 800 kbit = 100 kB of BDP; with the default
        # 1.5 BDP buffer, 250 kB in flight fit and one byte more overflows
        assert path.sample_round(0.0, 250_000.0)[2] == 0.0
        assert path.sample_round(0.0, 250_001.0)[2] > 0.0

    def test_buffer_scales_with_multiple(self, rng):
        # 20 Mbps * 60 ms = 150 kB of BDP; the buffer adds 1x or 3x that
        p1 = make_path(rng, buffer_bdp_multiple=1.0)
        p2 = make_path(np.random.default_rng(0), buffer_bdp_multiple=3.0)
        assert p1.sample_round(0.0, 300_000.0)[2] == 0.0
        assert p1.sample_round(0.0, 300_001.0)[2] > 0.0
        assert p2.sample_round(0.0, 600_000.0)[2] == 0.0
        assert p2.sample_round(0.0, 600_001.0)[2] > 0.0

    def test_no_loss_when_under_capacity(self, rng):
        path = make_path(rng)
        assert path.sample_round(0.0, 1000.0)[2] == 0.0

    def test_overflow_loss_when_over_capacity(self, rng):
        path = make_path(rng)
        capacity = 2.5 * 150_000.0  # BDP plus the default 1.5 BDP buffer
        assert path.sample_round(0.0, capacity * 2.0)[2] > 0.2

    def test_loss_probability_capped(self, rng):
        path = make_path(rng, loss_rate=0.1)
        assert path.sample_round(0.0, 1e12)[2] <= 0.9

    def test_episode_inflates_rtt_and_cuts_bandwidth(self):
        rng = np.random.default_rng(2)
        path = make_path(
            rng,
            jitter_sigma=1.0,
            episode_gap_mean_ms=1000.0,
            episode_duration_mean_ms=50_000.0,
        )
        t_in_episode = next(
            t for t in range(0, 200_000, 500) if path.congestion_multiplier(t) > 1.5
        )
        rtt_mult, bw_div, valid_until = path.epoch_window(t_in_episode)
        assert rtt_mult > 1.5 and bw_div > 1.0 and valid_until > t_in_episode
        bandwidth = path.sample_round(t_in_episode, 0.0)[1]
        assert bandwidth == path.bottleneck_kbps / bw_div < path.bottleneck_kbps

    def test_episode_state_resets_after_episode(self):
        rng = np.random.default_rng(3)
        path = make_path(
            rng,
            jitter_sigma=1.0,
            episode_gap_mean_ms=10_000.0,
            episode_duration_mean_ms=1_000.0,
        )
        multipliers = [path.congestion_multiplier(t) for t in range(0, 500_000, 250)]
        assert min(multipliers) == 1.0  # quiet periods exist

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            make_path(rng, base_rtt_ms=0.0)
        with pytest.raises(ValueError):
            make_path(rng, bottleneck_kbps=0.0)
        with pytest.raises(ValueError):
            make_path(rng, loss_rate=1.5)


class TestBuildSessionPath:
    @pytest.fixture(scope="class")
    def population(self):
        return generate_population(PopulationConfig(n_prefixes=400, seed=3))

    def test_far_clients_higher_rtt(self, population, rng):
        server = GeoPoint(lat=41.88, lon=-87.63, city="Chicago", country="US")
        intl = [p for p in population.prefixes if p.country not in ("US", "CA")]
        us = [p for p in population.prefixes if p.country == "US" and not p.is_enterprise]
        assert intl and us
        intl_rtts = [
            build_session_path(p, server, 20_000.0, np.random.default_rng(i)).base_rtt_ms
            for i, p in enumerate(intl[:30])
        ]
        us_rtts = [
            build_session_path(p, server, 20_000.0, np.random.default_rng(i)).base_rtt_ms
            for i, p in enumerate(us[:30])
        ]
        assert np.median(intl_rtts) > np.median(us_rtts)

    def test_zero_loss_sessions_exist(self, population):
        server = GeoPoint(lat=41.88, lon=-87.63, city="Chicago", country="US")
        prefix = population.prefixes[0]
        losses = [
            build_session_path(prefix, server, 20_000.0, np.random.default_rng(i)).loss_rate
            for i in range(100)
        ]
        zero_fraction = np.mean([l == 0.0 for l in losses])
        assert 0.35 < zero_fraction < 0.85

    def test_bandwidth_respected(self, population, rng):
        server = GeoPoint(lat=41.88, lon=-87.63, city="Chicago", country="US")
        path = build_session_path(population.prefixes[0], server, 5_000.0, rng)
        assert path.bottleneck_kbps <= 5_000.0


class TestTcpConnection:
    def test_srtt_initialization(self, rng):
        conn = TcpConnection(make_path(rng), rng)
        conn.observe_rtt(100.0)
        assert conn.srtt_ms == 100.0
        assert conn.rttvar_ms == 50.0

    def test_srtt_converges(self, rng):
        conn = TcpConnection(make_path(rng), rng)
        conn.observe_rtt(100.0)
        for _ in range(50):
            conn.observe_rtt(20.0)
        assert conn.srtt_ms == pytest.approx(20.0, rel=0.05)

    def test_per_ack_updates_converge_faster(self, rng):
        slow = TcpConnection(make_path(rng), rng)
        fast = TcpConnection(make_path(np.random.default_rng(0)), rng)
        slow.observe_rtt(100.0)
        fast.observe_rtt(100.0)
        slow.observe_rtt(500.0, n_acks=1)
        fast.observe_rtt(500.0, n_acks=16)
        assert fast.srtt_ms > slow.srtt_ms

    def test_rto_floor(self, rng):
        conn = TcpConnection(make_path(rng), rng)
        conn.observe_rtt(10.0)
        assert conn.rto_ms >= RTO_FLOOR_MS

    def test_rto_before_samples(self, rng):
        conn = TcpConnection(make_path(rng), rng)
        assert conn.rto_ms == 1000.0

    def test_observe_rtt_validation(self, rng):
        conn = TcpConnection(make_path(rng), rng)
        with pytest.raises(ValueError):
            conn.observe_rtt(0.0)
        with pytest.raises(ValueError):
            conn.observe_rtt(10.0, n_acks=0)

    def test_transfer_delivers_all_bytes(self, rng):
        conn = TcpConnection(make_path(rng), rng)
        result = conn.transfer(500_000, 0.0)
        assert result.duration_ms > 0
        assert result.segments_sent >= int(np.ceil(500_000 / DEFAULT_MSS))

    def test_transfer_duration_bounded_by_bottleneck(self, rng):
        # 1 MB over 10 Mbps cannot finish faster than ~800 ms.
        path = make_path(rng, bottleneck_kbps=10_000.0)
        conn = TcpConnection(path, rng)
        result = conn.transfer(1_000_000, 0.0)
        assert result.duration_ms > 700.0

    def test_slow_start_doubles_window(self, rng):
        conn = TcpConnection(make_path(rng), rng, initial_cwnd=10)
        conn.transfer(400_000, 0.0)
        assert conn.cwnd > 10

    def test_paced_growth_slower(self):
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        normal = TcpConnection(make_path(r1), r1)
        paced = TcpConnection(make_path(r2), r2, slow_start_growth=1.3)
        normal_result = normal.transfer(400_000, 0.0)
        paced_result = paced.transfer(400_000, 0.0)
        assert paced_result.rounds >= normal_result.rounds

    def test_rwnd_caps_inflight(self, rng):
        conn = TcpConnection(make_path(rng), rng, max_window_segments=16)
        conn.transfer(2_000_000, 0.0)
        assert conn.cwnd <= MAX_CWND_SEGMENTS
        # throughput cap: 16 segs per ~60 ms round -> long transfer
        result = conn.transfer(1_000_000, 1e6)
        assert result.rounds >= 1_000_000 / (16 * DEFAULT_MSS)

    def test_lossy_path_retransmits(self):
        rng = np.random.default_rng(5)
        path = make_path(rng, loss_rate=0.05)
        conn = TcpConnection(path, rng)
        result = conn.transfer(1_000_000, 0.0)
        assert result.segments_retx > 0
        assert 0.0 < result.retx_rate < 0.5
        assert conn.retx_total == result.segments_retx

    def test_loss_shrinks_window(self):
        rng = np.random.default_rng(6)
        path = make_path(rng, loss_rate=0.0)
        conn = TcpConnection(path, rng)
        conn.transfer(2_000_000, 0.0)
        cwnd_clean = conn.cwnd
        path.loss_rate = 0.2
        conn.transfer(500_000, 1e6)
        assert conn.cwnd < cwnd_clean

    def test_snapshots_on_grid(self, rng):
        path = make_path(rng, base_rtt_ms=200.0, bottleneck_kbps=2_000.0)
        conn = TcpConnection(path, rng)
        result = conn.transfer(1_500_000, 0.0)
        assert result.duration_ms > 1500.0
        assert len(result.samples) >= 2
        assert result.samples[0].t_ms == SNAPSHOT_INTERVAL_MS == 500.0
        gaps = np.diff([s.t_ms for s in result.samples])
        assert np.all(gaps == SNAPSHOT_INTERVAL_MS)

    def test_snapshot_grid_realigns_after_idle(self, rng):
        path = make_path(rng, base_rtt_ms=200.0, bottleneck_kbps=2_000.0)
        conn = TcpConnection(path, rng)
        conn.transfer(1_500_000, 0.0)
        late = conn.transfer(1_500_000, 1_000_000.0)
        assert all(s.t_ms > 1_000_000.0 for s in late.samples)

    def test_state_sample_fields(self, rng):
        conn = TcpConnection(make_path(rng), rng)
        conn.transfer(100_000, 0.0)
        sample = conn.state_sample(123.0)
        assert sample.t_ms == 123.0
        assert sample.mss == DEFAULT_MSS
        assert sample.cwnd_segments >= 1
        assert sample.throughput_kbps > 0

    def test_transfer_validation(self, rng):
        conn = TcpConnection(make_path(rng), rng)
        with pytest.raises(ValueError):
            conn.transfer(0, 0.0)

    def test_constructor_validation(self, rng):
        path = make_path(rng)
        with pytest.raises(ValueError):
            TcpConnection(path, rng, initial_cwnd=0)
        with pytest.raises(ValueError):
            TcpConnection(path, rng, slow_start_growth=1.0)
        with pytest.raises(ValueError):
            TcpConnection(path, rng, max_window_segments=0)

    def test_first_transfer_highest_retx_on_shallow_path(self):
        """Slow-start overshoot concentrates loss in the first transfer."""
        rng = np.random.default_rng(8)
        path = make_path(
            rng, bottleneck_kbps=6_000.0, buffer_bdp_multiple=1.5, loss_rate=0.0
        )
        conn = TcpConnection(path, rng, max_window_segments=4096)
        rates = []
        t = 0.0
        for _ in range(6):
            result = conn.transfer(800_000, t)
            rates.append(result.retx_rate)
            t += result.duration_ms + 6000.0
        assert rates[0] >= max(rates[1:])
