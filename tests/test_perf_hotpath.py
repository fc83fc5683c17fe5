"""Regression pins for the PR-4 hot-path optimizations (docs/PERFORMANCE.md).

Three families of guarantees:

* the closed-form RFC 6298 estimator matches the iterative per-ACK
  reference on recorded ack sequences (exactly for one ACK, to float
  round-off for replayed updates, exactly at the 16-iteration cap);
* on a zero-loss path the calm-window TCP planner is value- and
  RNG-stream-identical to the per-round loop it short-circuits (its law
  on lossy paths is checked in ``test_planner_law.py``);
* ``Dataset.merge_all`` equals one stable sort of the shards' emitted
  records, including tie-breaking by input position.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import make_records, player_chunk, tcp_snap
from repro.net.path import NetworkPath
from repro.net.tcp import TcpConnection
from repro.telemetry.columnar import SPILL_KINDS, sort_key
from repro.telemetry.dataset import Dataset


def iterative_rfc6298(srtt, rttvar, sample_ms, n_acks):
    """The pre-optimization estimator: one EWMA update per ACK, capped."""
    if srtt is None:
        return sample_ms, sample_ms / 2.0
    for _ in range(min(n_acks, 16)):
        rttvar = 0.75 * rttvar + 0.25 * abs(srtt - sample_ms)
        srtt = 0.875 * srtt + 0.125 * sample_ms
    return srtt, rttvar


def make_calm_path(rng, *, loss_rate=0.0, base_rtt_ms=50.0, bottleneck_kbps=100_000.0):
    """A path that stays in the calm regime for the whole test horizon."""
    return NetworkPath(
        base_rtt_ms=base_rtt_ms,
        bottleneck_kbps=bottleneck_kbps,
        loss_rate=loss_rate,
        jitter_sigma=0.1,
        rng=rng,
        episode_gap_mean_ms=1e12,
    )


class TestClosedFormRfc6298:
    def record_ack_sequence(self, seed, length=200):
        """A recorded (sample_ms, n_acks) ack trace like transfer() produces."""
        rng = np.random.default_rng(seed)
        samples = 80.0 * rng.lognormal(0.0, 0.4, size=length)
        acks = rng.integers(1, 40, size=length)
        return [(float(s), int(n)) for s, n in zip(samples, acks)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_iterative_reference_on_recorded_sequences(self, seed):
        conn = TcpConnection(make_calm_path(np.random.default_rng(seed)),
                             np.random.default_rng(seed))
        ref_srtt, ref_rttvar = None, 0.0
        for sample_ms, n_acks in self.record_ack_sequence(seed):
            conn.observe_rtt(sample_ms, n_acks=n_acks)
            ref_srtt, ref_rttvar = iterative_rfc6298(
                ref_srtt, ref_rttvar, sample_ms, n_acks
            )
            # The closed form regroups the same float products, so the
            # trajectories agree to round-off, not bit-for-bit — the
            # documented (docs/PERFORMANCE.md) accuracy contract.
            assert conn.srtt_ms == pytest.approx(ref_srtt, rel=1e-12, abs=1e-9)
            assert conn.rttvar_ms == pytest.approx(ref_rttvar, rel=1e-12, abs=1e-9)

    def test_first_sample_initialization_is_exact(self):
        conn = TcpConnection(make_calm_path(np.random.default_rng(0)),
                             np.random.default_rng(0))
        conn.observe_rtt(100.0, n_acks=7)
        assert conn.srtt_ms == 100.0
        assert conn.rttvar_ms == 50.0

    def test_cap_at_sixteen_iterations(self):
        # n_acks far beyond the cap must give exactly the n_acks=16 state.
        conn_a = TcpConnection(make_calm_path(np.random.default_rng(0)),
                               np.random.default_rng(0))
        conn_b = TcpConnection(make_calm_path(np.random.default_rng(0)),
                               np.random.default_rng(0))
        for conn in (conn_a, conn_b):
            conn.observe_rtt(100.0)
        conn_a.observe_rtt(37.5, n_acks=16)
        conn_b.observe_rtt(37.5, n_acks=5000)
        assert conn_a.srtt_ms == conn_b.srtt_ms
        assert conn_a.rttvar_ms == conn_b.rttvar_ms


class TestCalmWindowPlanner:
    def make_conn(self, seed, *, probe=None, max_window_segments=64,
                  bottleneck_kbps=100_000.0):
        # Small receiver window so every round's in-flight window fits the
        # bottleneck queue (a zero-loss plan stops before a window that
        # would overflow it), large enough to saturate.
        path = make_calm_path(
            np.random.default_rng(seed), bottleneck_kbps=bottleneck_kbps
        )
        path.fault_probe = probe
        return TcpConnection(
            path, np.random.default_rng(seed + 1),
            max_window_segments=max_window_segments,
        )

    def spy_batches(self, monkeypatch):
        """Record the rounds of every planner batch."""
        batch_rounds = []
        original = TcpConnection._advance_calm_rounds

        def spy(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            batch_rounds.append(result[4])
            return result

        monkeypatch.setattr(TcpConnection, "_advance_calm_rounds", spy)
        return batch_rounds

    @pytest.mark.parametrize("max_window_segments, starts_ms", [
        pytest.param(64, (0.0, 20_000.0), id="window-64"),
        # 857 rounds per transfer, which the 256-round cap splits into
        # four batches
        pytest.param(4, (0.0, 60_000.0), id="window-4-capped"),
    ])
    def test_fast_path_equals_general_loop(self, monkeypatch, max_window_segments,
                                           starts_ms):
        batch_rounds = self.spy_batches(monkeypatch)
        fast = self.make_conn(33, max_window_segments=max_window_segments)
        # A probe that never reports a fault disables batching without
        # touching any sampled value or consuming any RNG draw, so the
        # control connection replays the identical general loop.
        control = self.make_conn(
            33, probe=lambda now_ms: None, max_window_segments=max_window_segments
        )

        total_rounds = 0
        for start_ms in starts_ms:
            result_fast = fast.transfer(5_000_000, start_ms)
            result_control = control.transfer(5_000_000, start_ms)
            assert result_fast == result_control
            total_rounds += result_fast.rounds

        # the planner did every round, in batches of at most the cap
        assert sum(batch_rounds) == total_rounds
        assert max(batch_rounds) <= TcpConnection._PLAN_MAX_ROUNDS
        assert result_fast.rounds > 10
        # Full state sync: estimator, window, counters, and both RNG
        # streams line up exactly after the batched rounds.
        for attr in ("srtt_ms", "rttvar_ms", "cwnd", "ssthresh", "retx_total",
                     "_next_snapshot_ms"):
            assert getattr(fast, attr) == getattr(control, attr), attr
        assert fast.path.rng.random() == control.path.rng.random()
        assert fast.rng.random() == control.rng.random()

    def test_fast_path_interleaves_with_overflow_rounds(self, monkeypatch):
        # With an unconstrained receiver window, slow start overshoots the
        # bottleneck queue: those rounds can drop segments and must run in
        # the general loop, with batching resuming once loss halves the
        # window back under capacity. The interleaved trajectory must stay
        # identical to the pure general loop.
        batch_rounds = self.spy_batches(monkeypatch)
        # Narrow bottleneck: the queue holds ~107 segments, so slow start
        # overshoots it within a few rounds.
        fast = self.make_conn(
            71, max_window_segments=100_000, bottleneck_kbps=10_000.0
        )
        control = self.make_conn(
            71, probe=lambda now_ms: None,
            max_window_segments=100_000, bottleneck_kbps=10_000.0,
        )

        for start_ms in (0.0, 120_000.0):
            result_fast = fast.transfer(3_000_000, start_ms)
            result_control = control.transfer(3_000_000, start_ms)
            assert result_fast == result_control

        assert sum(batch_rounds) > 10
        assert fast.retx_total > 0  # overflow loss really happened
        for attr in ("srtt_ms", "rttvar_ms", "cwnd", "ssthresh", "retx_total",
                     "_next_snapshot_ms"):
            assert getattr(fast, attr) == getattr(control, attr), attr
        assert fast.path.rng.random() == control.path.rng.random()
        assert fast.rng.random() == control.rng.random()


class TestKWayMerge:
    """The shard merge: the heapq k-way merge of records it replaced kept
    these same orders."""

    def shard_records(self):
        """Each shard's records, in emission order."""
        shards = []
        for index, session in enumerate(["s3", "s1", "s2"]):
            records = make_records(3)
            for name in ("player_chunks", "cdn_chunks", "tcp_snapshots",
                         "player_sessions", "cdn_sessions"):
                for record in records[name]:
                    assert record.session_id == "s1"
            records["player_chunks"] = [
                player_chunk(session=session, chunk=c, dfb_ms=100.0 + index)
                for c in (2, 0, 1)
            ]
            records["tcp_snapshots"] = [
                tcp_snap(session=session, chunk=0, t=float(t)) for t in (1500, 500)
            ]
            shards.append(records)
        return shards

    def test_merge_all_equals_concat_then_stable_sort(self):
        shards = self.shard_records()
        merged = Dataset.merge_all(Dataset(**records) for records in shards)
        for kind in SPILL_KINDS:
            emitted = [record for records in shards for record in records[kind]]
            assert getattr(merged, kind) == tuple(sorted(emitted, key=sort_key(kind)))

    def test_ties_prefer_earlier_inputs(self):
        # Identical sort keys across shards: the k-way merge must keep
        # input order, exactly like concatenate + stable sort did.
        first = Dataset(player_chunks=[player_chunk(chunk=0, dfb_ms=111.0)])
        second = Dataset(player_chunks=[player_chunk(chunk=0, dfb_ms=222.0)])
        merged = Dataset.merge_all([first, second])
        assert [r.dfb_ms for r in merged.player_chunks] == [111.0, 222.0]
        flipped = Dataset.merge_all([second, first])
        assert [r.dfb_ms for r in flipped.player_chunks] == [222.0, 111.0]
