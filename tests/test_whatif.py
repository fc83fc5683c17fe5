"""Tests for the counterfactual headroom estimators."""

import pytest

from helpers import (
    cdn_chunk,
    cdn_session,
    empty_records,
    make_dataset,
    make_records,
    player_chunk,
    player_session,
    tcp_snap,
)
from repro.core.whatif import (
    all_headrooms,
    no_downloadstack_headroom,
    perfect_caching_headroom,
)
from repro.telemetry.dataset import Dataset


def dataset_with_miss_startup():
    """Two sessions: a RAM-hit start and a miss start 90 ms slower."""
    records = empty_records()
    for sid, status, extra in (("hit", "hit_ram", 0.0), ("miss", "miss", 90.0)):
        records["player_sessions"].append(player_session(session=sid))
        records["cdn_sessions"].append(cdn_session(session=sid))
        records["player_chunks"].append(
            player_chunk(session=sid, chunk=0, dfb_ms=100.0 + extra)
        )
        records["cdn_chunks"].append(
            cdn_chunk(
                session=sid,
                chunk=0,
                cache_status=status,
                d_be_ms=extra,
            )
        )
        records["tcp_snapshots"].append(tcp_snap(session=sid, chunk=0))
    return Dataset(**records)


class TestPerfectCaching:
    def test_headroom_matches_injected_miss_cost(self):
        report = perfect_caching_headroom(dataset_with_miss_startup())
        assert report is not None
        assert report.affected_session_fraction == pytest.approx(0.5)
        # median over two sessions moves by half the 90 ms miss penalty
        assert report.median_improvement_ms == pytest.approx(45.0, abs=1.0)

    def test_no_ram_hits_returns_none(self):
        records = make_records(1)
        records["cdn_chunks"][0] = cdn_chunk(cache_status="miss", d_be_ms=80.0)
        dataset = Dataset(**records)
        assert perfect_caching_headroom(dataset) is None

    def test_all_hits_no_headroom(self):
        report = perfect_caching_headroom(make_dataset(2))
        assert report is not None
        assert report.median_improvement_ms == pytest.approx(0.0, abs=0.5)
        assert report.affected_session_fraction == 0.0


class TestNoDownloadStack:
    def test_headroom_from_eq5_bound(self):
        records = make_records(2)
        # chunk 1 has 900 ms of stack latency above the RTO bound
        records["player_chunks"][1] = player_chunk(chunk=1, dfb_ms=1400.0)
        report = no_downloadstack_headroom(Dataset(**records))
        assert report is not None
        assert report.affected_session_fraction == 1.0
        assert report.median_improvement_ms > 100.0

    def test_clean_dataset_no_headroom(self):
        report = no_downloadstack_headroom(make_dataset(3))
        assert report is not None
        assert report.median_improvement_ms == pytest.approx(0.0, abs=0.5)

    def test_empty_dataset(self):
        assert no_downloadstack_headroom(Dataset()) is None


class TestAllHeadrooms:
    def test_collects_available_reports(self):
        reports = all_headrooms(dataset_with_miss_startup())
        assert "perfect-first-chunk-caching" in reports
        assert "no-download-stack-latency" in reports
        for report in reports.values():
            assert str(report)  # renders

    def test_on_simulated_trace(self, small_dataset):
        reports = all_headrooms(small_dataset)
        caching = reports["perfect-first-chunk-caching"]
        stack = reports["no-download-stack-latency"]
        # caching headroom exists (some sessions start on a miss/disk)
        assert caching.median_improvement_ms >= 0.0
        assert 0.0 < caching.affected_session_fraction < 1.0
        # the DS bound is conservative: headroom is bounded by true DS
        assert 0.0 <= stack.relative_improvement < 0.5
