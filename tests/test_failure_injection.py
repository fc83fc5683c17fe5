"""Failure-injection tests: the analysis must degrade gracefully when the
telemetry is imperfect — lost beacons, missing TCP snapshots, clock skew,
and truncated sessions are everyday events in a production pipeline."""

import numpy as np
import pytest

from helpers import make_dataset, make_records, player_chunk
from repro.core import downstack, netdiag, perfscore, qoe
from repro.core.proxy_filter import filter_proxies
from repro.telemetry.dataset import Dataset


def drop_fraction(records, fraction, seed=0):
    """Drop a random *fraction* of records (simulating beacon loss)."""
    rng = np.random.default_rng(seed)
    keep = rng.random(len(records)) >= fraction
    return [r for r, k in zip(records, keep) if k]


@pytest.fixture(scope="module")
def lossy_dataset(small_result):
    """The small trace with 20% of player beacons and 30% of TCP snapshots lost."""
    base = small_result.dataset
    return Dataset(
        player_chunks=drop_fraction(base.player_chunks, 0.20, seed=1),
        cdn_chunks=list(base.cdn_chunks),
        tcp_snapshots=drop_fraction(base.tcp_snapshots, 0.30, seed=2),
        player_sessions=list(base.player_sessions),
        cdn_sessions=list(base.cdn_sessions),
        ground_truth=list(base.ground_truth),
    )


class TestBeaconLoss:
    def test_join_survives_beacon_loss(self, lossy_dataset):
        joined = lossy_dataset.join_chunks()
        assert joined  # still joins what remains
        # every surviving joined chunk is internally consistent
        assert all(j.player.chunk_id == j.cdn.chunk_id for j in joined)

    def test_sessions_remain_ordered(self, lossy_dataset):
        for session in lossy_dataset.sessions():
            ids = [c.chunk_id for c in session.chunks]
            assert ids == sorted(ids)

    def test_qoe_summary_still_computes(self, lossy_dataset):
        summary = qoe.summarize(lossy_dataset)
        assert summary["n_sessions"] > 0
        assert np.isfinite(summary["median_bitrate_kbps"])

    def test_proxy_filter_still_works(self, lossy_dataset):
        filtered, report = filter_proxies(lossy_dataset)
        assert 0.5 < report.kept_fraction <= 1.0
        assert filtered.n_sessions == report.n_kept_sessions

    def test_retx_analysis_tolerates_missing_snapshots(self, lossy_dataset):
        rows = netdiag.per_chunk_retx_rates(lossy_dataset)
        assert rows
        assert all(0.0 <= rate <= 1.0 for _, rate in rows)

    def test_eq5_returns_none_not_garbage(self, lossy_dataset):
        """Chunks that lost all their TCP snapshots must yield None, never
        a fabricated bound."""
        none_seen = False
        for chunk in lossy_dataset.join_chunks():
            bound = downstack.persistent_ds_bound_ms(chunk)
            if not chunk.tcp:
                assert bound is None
                none_seen = True
            elif bound is not None:
                assert bound >= 0.0
        assert none_seen, "injection produced no snapshot-less chunks"


class TestClockSkew:
    def test_negative_residuals_floored(self):
        """Clock skew can push D_FB below the CDN-recorded latency; the
        rtt0 bound must floor, not go negative."""
        from repro.core.decomposition import rtt0_upper_bound

        records = make_records(1)
        records["player_chunks"][0] = player_chunk(dfb_ms=0.2)  # skewed low
        chunk = Dataset(**records).join_chunks()[0]
        assert rtt0_upper_bound(chunk) == 0.1

    def test_perf_score_with_degenerate_timing(self):
        record = player_chunk(dfb_ms=0.0, dlb_ms=0.0)
        assert perfscore.perf_score(record) == float("inf")
        assert perfscore.latency_share(record) == 0.0


class TestTruncatedSessions:
    def test_single_chunk_sessions_analyzable(self):
        dataset = make_dataset(1)
        sessions = dataset.sessions()
        assert sessions[0].n_chunks == 1
        assert netdiag.split_sessions_by_loss(dataset).without_loss
        assert downstack.detect_transient_outliers(sessions[0]) == []

    def test_empty_dataset_everywhere(self):
        empty = Dataset()
        assert empty.join_chunks() == []
        assert empty.sessions() == []
        assert qoe.summarize(empty) == {"n_sessions": 0}
        assert netdiag.per_chunk_retx_rates(empty) == []
        assert netdiag.org_cv_table(empty) == []
        filtered, report = filter_proxies(empty)
        assert filtered.n_sessions == 0
        assert report.kept_fraction == 0.0
