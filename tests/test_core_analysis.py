"""Tests for the analysis pipeline (repro.core) — unit behaviour on
synthetic records plus ground-truth validation on simulated traces."""

import numpy as np
import pytest

from repro.analysis.experiments import common
from repro.core import (
    decomposition,
    downstack,
    netdiag,
    perfscore,
    persistence,
    popularity,
    qoe,
    rendering_diag,
)
from repro.core.proxy_filter import filter_proxies
from repro.telemetry.dataset import Dataset

from helpers import (
    cdn_chunk,
    cdn_session,
    empty_records,
    make_dataset,
    make_records,
    player_chunk,
    player_session,
    shuffled_spill,
    tcp_snap,
)
from proxy_oracle import filter_proxies_records


class TestProxyFilter:
    def test_keeps_clean_sessions(self):
        dataset = make_dataset(2)
        filtered, report = filter_proxies(dataset)
        assert filtered.n_sessions == 1
        assert report.kept_fraction == 1.0

    def test_removes_ip_mismatch(self):
        records = make_records(1)
        records["cdn_sessions"][0] = cdn_session(client_ip="198.51.100.7")
        dataset = Dataset(**records)
        filtered, report = filter_proxies(dataset)
        assert filtered.n_sessions == 0
        assert "s1" in report.ip_mismatch_sessions

    def test_removes_ua_mismatch(self):
        records = make_records(1)
        records["cdn_sessions"][0] = cdn_session(user_agent="ProxyBot/1.0")
        dataset = Dataset(**records)
        filtered, report = filter_proxies(dataset)
        assert filtered.n_sessions == 0
        assert "s1" in report.ua_mismatch_sessions

    def test_removes_mega_ip(self):
        records = empty_records()
        # 40 sessions from one IP, each watching 1 h inside a ~2 min window
        for i in range(40):
            sid = f"s{i}"
            records["player_sessions"].append(
                player_session(session=sid, client_ip="203.0.113.5")
            )
            records["cdn_sessions"].append(cdn_session(session=sid, client_ip="203.0.113.5"))
            records["player_chunks"].append(
                player_chunk(session=sid, chunk=0, chunk_duration_ms=3_600_000.0)
            )
            records["cdn_chunks"].append(cdn_chunk(session=sid, chunk=0))
        filtered, report = filter_proxies(Dataset(**records))
        assert "203.0.113.5" in report.mega_ips
        assert filtered.n_sessions == 0

    def test_normal_volume_not_flagged(self):
        dataset = make_dataset(3)
        _, report = filter_proxies(dataset)
        assert not report.mega_ips

    def test_validation(self):
        with pytest.raises(ValueError):
            filter_proxies(make_dataset(1), media_budget_factor=0.0)

    def test_detects_simulated_proxies(self, small_result):
        """On a simulated trace, the filter must catch explicit enterprise
        proxies (IP mismatch) and transparent mega-IPs, and keep most
        sessions (paper kept 77%)."""
        _, report = filter_proxies(small_result.dataset)
        assert report.n_removed > 0
        assert 0.7 < report.kept_fraction < 1.0
        assert len(report.ip_mismatch_sessions) > 0


def _assert_filter_matches_oracle(dataset, **kwargs):
    """The columnar filter and the record oracle agree on *dataset*: equal
    reports (whose sets hold ``str``) and equal filtered datasets."""
    filtered, report = filter_proxies(dataset, **kwargs)
    expected_filtered, expected_report = filter_proxies_records(dataset, **kwargs)
    assert report == expected_report
    for ids in (
        report.ip_mismatch_sessions,
        report.ua_mismatch_sessions,
        report.mega_ip_sessions,
        report.mega_ips,
    ):
        assert all(type(value) is str for value in ids)
    assert filtered == expected_filtered
    return report


def _mismatches():
    records = make_records(2)
    for i in (2, 3, 4):
        sid = f"s{i}"
        records["player_sessions"].append(player_session(session=sid))
        records["cdn_sessions"].append(cdn_session(session=sid))
        records["player_chunks"].append(player_chunk(session=sid))
    records["cdn_sessions"][1] = cdn_session(session="s2", client_ip="198.51.100.7")
    records["cdn_sessions"][2] = cdn_session(session="s3", user_agent="ProxyBot/1.0")
    records["cdn_sessions"][3] = cdn_session(
        session="s4", client_ip="198.51.100.8", user_agent="ProxyBot/2.0"
    )
    return records


def _mega_ip():
    # 25 sessions behind one IP, an hour of media each inside a one-minute
    # start spread, next to a clean session on another IP
    records = make_records(2)
    for i in range(25):
        sid = f"m{i:02d}"
        records["player_sessions"].append(
            player_session(session=sid, client_ip="203.0.113.5", start_ms=i * 2_000.0)
        )
        records["cdn_sessions"].append(cdn_session(session=sid, client_ip="203.0.113.5"))
        for chunk in range(3):
            records["player_chunks"].append(
                player_chunk(session=sid, chunk=chunk, chunk_duration_ms=1_200_000.0 + 0.1 * i)
            )
    return records


def _duplicate_rows():
    # the last player row of an id is its beacon; every CDN row counts,
    # toward its IP's session count and media (s2's two rows make three
    # on one IP)
    records = make_records(3)
    records["player_chunks"] = [
        player_chunk(chunk=i, chunk_duration_ms=1_500_000.0) for i in range(3)
    ]
    records["player_sessions"].append(player_session(client_ip="192.0.2.1"))
    records["player_sessions"].append(player_session(session="s2", client_ip="192.0.2.9"))
    records["player_sessions"].append(player_session(session="s2"))
    records["cdn_sessions"].append(cdn_session(session="s2"))
    records["cdn_sessions"].append(cdn_session(session="s2", user_agent="ProxyBot/1.0"))
    records["player_chunks"] += [player_chunk(session="s2", chunk=0)] * 2
    return records


def _cdn_row_without_beacon():
    # CDN sessions whose beacons were lost still count toward their IP:
    # three of them carry all the media of 203.0.113.77
    records = _mega_ip()
    records["player_sessions"].append(player_session(session="b0", client_ip="203.0.113.77"))
    records["cdn_sessions"].append(cdn_session(session="b0", client_ip="203.0.113.77"))
    records["player_chunks"].append(player_chunk(session="b0"))
    for i in range(3):
        sid = f"ghost{i}"
        records["cdn_sessions"].append(cdn_session(session=sid, client_ip="203.0.113.77"))
        records["player_chunks"].append(
            player_chunk(session=sid, chunk_duration_ms=3_600_000.0)
        )
    return records


class TestProxyFilterOracle:
    """``filter_proxies`` reads columns; the record oracle
    (``tests/proxy_oracle.py``) is its specification."""

    @pytest.mark.parametrize(
        "build",
        [_mismatches, _mega_ip, _duplicate_rows, _cdn_row_without_beacon, empty_records],
    )
    @pytest.mark.parametrize(
        "kwargs", [{}, {"media_budget_factor": 50.0}, {"min_sessions_for_mega_ip": 3}]
    )
    def test_crafted_datasets_in_memory_and_spilled(self, build, kwargs, tmp_path):
        dataset = Dataset(**build())
        report = _assert_filter_matches_oracle(dataset, **kwargs)
        spilled = shuffled_spill(dataset, tmp_path / "s", threshold_rows=4)
        assert _assert_filter_matches_oracle(spilled, **kwargs) == report

    def test_crafted_datasets_exercise_every_rule(self):
        mismatches = filter_proxies(Dataset(**_mismatches()))[1]
        assert mismatches.ip_mismatch_sessions == {"s2", "s4"}
        assert mismatches.ua_mismatch_sessions == {"s3", "s4"}
        mega = filter_proxies(Dataset(**_mega_ip()))[1]
        assert mega.mega_ips == {"203.0.113.5"} and len(mega.mega_ip_sessions) == 25
        duplicates = filter_proxies(Dataset(**_duplicate_rows()))[1]
        assert duplicates.ip_mismatch_sessions == {"s1"}
        assert duplicates.ua_mismatch_sessions == {"s2"}
        assert duplicates.n_kept_sessions == 0 and duplicates.n_input_sessions == 4
        assert not duplicates.mega_ips
        rows_count = filter_proxies(Dataset(**_duplicate_rows()), min_sessions_for_mega_ip=3)[1]
        assert rows_count.mega_ips == {"10.0.0.1"}
        ghosts = filter_proxies(Dataset(**_cdn_row_without_beacon()), min_sessions_for_mega_ip=3)[1]
        assert ghosts.mega_ips == {"203.0.113.5", "203.0.113.77"}
        assert {"b0", "ghost0", "ghost1", "ghost2"} <= ghosts.mega_ip_sessions

    def test_media_sums_add_in_canonical_order(self):
        # One IP, 20 sessions: s00 watches 1e16 ms and then sixteen 1 ms
        # chunks, the rest one 1 ms chunk each.  Adding in row order, as
        # the oracle does, every +1.0 rounds away and the IP's sum stays
        # 1e16; any order that adds the small chunks together first (a
        # reversed or pairwise sum, per session or per IP) reaches
        # 1e16 + 16 or more.  A budget of 1e16 + 10 lies between.
        records = empty_records()
        for i in range(20):
            sid = f"s{i:02d}"
            records["player_sessions"].append(player_session(session=sid))
            records["cdn_sessions"].append(cdn_session(session=sid))
            durations = [1e16] + [1.0] * 16 if i == 0 else [1.0]
            for chunk, duration in enumerate(durations):
                records["player_chunks"].append(
                    player_chunk(session=sid, chunk=chunk, chunk_duration_ms=duration)
                )
        factor = (1e16 + 10.0) / 3_600_000.0
        assert 1e16 < factor * 3_600_000.0 < 1e16 + 16.0
        dataset = Dataset(**records)
        report = _assert_filter_matches_oracle(dataset, media_budget_factor=factor)
        assert not report.mega_ips

    @pytest.mark.parametrize("seed", [7, 8])
    def test_tiny_simulations_in_memory_and_spilled(self, seed, tmp_path):
        dataset = common.standard_result("tiny", seed).dataset
        report = _assert_filter_matches_oracle(dataset)
        assert report.n_removed > 0
        spilled = shuffled_spill(dataset, tmp_path / "s", threshold_rows=512, seed=seed)
        assert len(spilled.run_arrays("player_chunks")) > 1
        assert _assert_filter_matches_oracle(spilled) == report

    def test_small_simulation_in_memory_and_spilled(self, small_result, tmp_path):
        # with a tighter budget the volume rule fires on simulated IPs too
        tight = {"media_budget_factor": 0.02, "min_sessions_for_mega_ip": 3}
        spilled = shuffled_spill(small_result.dataset, tmp_path / "s", threshold_rows=4096)
        for kwargs in ({}, tight):
            report = _assert_filter_matches_oracle(small_result.dataset, **kwargs)
            assert report.ip_mismatch_sessions
            assert bool(report.mega_ips) == bool(kwargs)
            assert _assert_filter_matches_oracle(spilled, **kwargs) == report


class TestDecomposition:
    def test_rtt0_upper_bound(self):
        dataset = make_dataset(1)
        chunk = dataset.join_chunks()[0]
        # dfb 100, server total 1.4 -> bound ~98.6
        assert decomposition.rtt0_upper_bound(chunk) == pytest.approx(98.6)

    def test_rtt0_floor_on_clock_skew(self):
        records = make_records(1)
        records["player_chunks"][0] = player_chunk(dfb_ms=0.5)
        dataset = Dataset(**records)
        chunk = dataset.join_chunks()[0]
        assert decomposition.rtt0_upper_bound(chunk) == 0.1

    def test_chunk_baseline_uses_min(self):
        records = make_records(1)
        records["tcp_snapshots"] = [tcp_snap(srtt_ms=40.0)]
        dataset = Dataset(**records)
        chunk = dataset.join_chunks()[0]
        assert decomposition.chunk_baseline_rtt(chunk) == 40.0

    def test_session_min_rtt(self):
        dataset = make_dataset(3)
        assert decomposition.session_min_rtt(dataset.sessions()[0]) <= 60.0

    def test_sigma_none_for_single_sample(self):
        dataset = make_dataset(1)
        assert decomposition.session_srtt_sigma(dataset.sessions()[0]) is None

    def test_rtt0_bound_validates_against_truth(self, small_result):
        """Eq. 1: the estimator must actually bound the true rtt0 from above."""
        violations = 0
        total = 0
        for chunk in small_result.dataset.join_chunks():
            if chunk.truth is None:
                continue
            total += 1
            if decomposition.rtt0_upper_bound(chunk) < chunk.truth.true_rtt0_ms - 1.0:
                violations += 1
        assert total > 100
        assert violations / total < 0.01

    def test_baseline_tracks_true_rtt(self, small_result):
        """The per-chunk baseline should approximate true rtt0 within ~2x
        for the majority of chunks."""
        ratios = []
        for chunk in small_result.dataset.join_chunks():
            if chunk.truth is None or chunk.truth.true_rtt0_ms <= 0:
                continue
            ratios.append(
                decomposition.chunk_baseline_rtt(chunk) / chunk.truth.true_rtt0_ms
            )
        assert 0.5 < np.median(ratios) < 2.0


class TestPerfScore:
    def test_score_formula(self):
        record = player_chunk(dfb_ms=1000.0, dlb_ms=2000.0)
        assert perfscore.perf_score(record) == pytest.approx(2.0)

    def test_shares_sum_to_one(self):
        record = player_chunk(dfb_ms=250.0, dlb_ms=750.0)
        assert perfscore.latency_share(record) + perfscore.throughput_share(
            record
        ) == pytest.approx(1.0)

    def test_split_by_score(self):
        records = make_records(1)
        records["player_chunks"].append(
            player_chunk(chunk=1, dfb_ms=4000.0, dlb_ms=4000.0)
        )
        records["cdn_chunks"].append(cdn_chunk(chunk=1))
        dataset = Dataset(**records)
        good, bad = perfscore.split_by_score(dataset.join_chunks())
        assert len(good) == 1 and len(bad) == 1
        assert bad[0].chunk_id == 1

    def test_zero_duration_chunk(self):
        record = player_chunk(dfb_ms=0.0, dlb_ms=0.0)
        assert perfscore.perf_score(record) == float("inf")


class TestDownstackDetection:
    def test_eq4_needs_min_chunks(self):
        dataset = make_dataset(3)
        assert downstack.detect_transient_outliers(dataset.sessions()[0]) == []

    def test_eq5_bound_zero_for_clean_chunk(self):
        dataset = make_dataset(1)
        chunk = dataset.join_chunks()[0]
        # dfb 100 << RTO ~280 -> bound 0
        assert downstack.persistent_ds_bound_ms(chunk) == 0.0

    def test_eq5_bound_positive_for_stack_latency(self):
        records = make_records(1)
        records["player_chunks"][0] = player_chunk(dfb_ms=900.0)
        dataset = Dataset(**records)
        chunk = dataset.join_chunks()[0]
        bound = downstack.persistent_ds_bound_ms(chunk)
        # 900 - 1.4 - (200 + 60 + 20) = ~618
        assert bound == pytest.approx(618.6, abs=1.0)

    def test_eq5_none_without_tcp(self):
        records = make_records(1)
        records["tcp_snapshots"] = []
        dataset = Dataset(**records)
        chunk = dataset.join_chunks()[0]
        assert downstack.persistent_ds_bound_ms(chunk) is None

    def test_rto_uses_max_snapshot(self):
        records = make_records(1)
        records["tcp_snapshots"] = [
            tcp_snap(t=100.0, srtt_ms=500.0, rttvar_ms=100.0),
            tcp_snap(t=600.0, srtt_ms=50.0, rttvar_ms=5.0),
        ]
        dataset = Dataset(**records)
        chunk = dataset.join_chunks()[0]
        assert downstack.chunk_rto_ms(chunk) == pytest.approx(200 + 500 + 400)

    def test_eq4_detection_against_ground_truth(self, medium_dataset):
        """Eq. 4 should recover a decent share of true transient events in
        sessions long enough to carry the statistics, with low false-positive
        rate."""
        truth = {
            (t.session_id, t.chunk_id)
            for t in medium_dataset.ground_truth
            if t.transient_ds
        }
        flagged = {
            (sid, c.chunk_id)
            for sid, chunks in downstack.detect_transient_outliers_dataset(
                medium_dataset
            ).items()
            for c in chunks
        }
        assert flagged, "detector found nothing"
        precision = len(flagged & truth) / len(flagged)
        assert precision > 0.5

    def test_transient_signature_against_truth(self, medium_dataset):
        truth_transients = []
        truth_normal = []
        for chunk in medium_dataset.join_chunks():
            if chunk.truth is None:
                continue
            flag = downstack.transient_signature(chunk)
            (truth_transients if chunk.truth.transient_ds else truth_normal).append(flag)
        assert np.mean(truth_transients) > 0.6  # recall
        assert np.mean(truth_normal) < 0.05  # false-positive rate

    def test_platform_table_sorted(self, medium_dataset):
        rows = downstack.platform_ds_table(medium_dataset, min_chunks=30)
        means = [r.mean_ds_ms for r in rows]
        assert means == sorted(means, reverse=True)
        assert all(0.0 <= r.nonzero_fraction <= 1.0 for r in rows)


class TestNetdiag:
    def test_session_cv_none_without_samples(self):
        records = make_records(1)
        records["tcp_snapshots"] = []
        dataset = Dataset(**records)
        assert netdiag.session_srtt_cv(dataset.sessions()[0]) is None

    def test_org_cv_table_threshold(self, medium_dataset):
        rows = netdiag.org_cv_table(medium_dataset, min_sessions=30)
        assert all(r.n_sessions >= 30 for r in rows)
        pcts = [r.percentage for r in rows]
        assert pcts == sorted(pcts, reverse=True)

    def test_enterprises_dominate_high_cv(self, medium_dataset):
        rows = netdiag.org_cv_table(medium_dataset, min_sessions=30)
        enterprise = [r.percentage for r in rows if r.org.startswith("Enterprise")]
        residential = [r.percentage for r in rows if not r.org.startswith("Enterprise")]
        assert enterprise and residential
        assert max(enterprise) > max(residential)

    def test_path_cv_values(self, medium_dataset):
        values = netdiag.path_cv_values(medium_dataset, min_sessions=3)
        assert len(values) > 10
        assert all(v >= 0 for v in values)

    def test_loss_split_covers_all_sessions(self, medium_dataset):
        split = netdiag.split_sessions_by_loss(medium_dataset)
        total = len(split.with_loss) + len(split.without_loss)
        assert total == len(medium_dataset.sessions())
        assert split.with_loss and split.without_loss

    def test_per_chunk_retx_first_highest(self, medium_dataset):
        rows = netdiag.per_chunk_retx_rates(medium_dataset)
        rates = dict(rows)
        assert rates[0] == max(rates.values())

    def test_rebuffer_given_loss_rows_shape(self, medium_dataset):
        rows = netdiag.rebuffer_given_loss_by_chunk(medium_dataset, max_chunk_id=8)
        assert all(0.0 <= p <= 1.0 for _, p, _ in rows)
        assert all(cid <= 8 for cid, _, _ in rows)

    def test_rebuffer_vs_retx_bins(self, medium_dataset):
        rows = netdiag.session_rebuffer_vs_retx(medium_dataset)
        assert rows
        with pytest.raises(ValueError):
            netdiag.session_rebuffer_vs_retx(medium_dataset, retx_bin_edges=(1,))


class TestPersistence:
    def test_prefix_min_rtt_groups(self, small_dataset):
        minima = persistence.prefix_min_rtt(small_dataset)
        assert len(minima) > 10
        assert all(v > 0 for v in minima.values())

    def test_session_persistence_conditional_higher(self, medium_dataset):
        report = persistence.session_server_persistence(medium_dataset)
        assert (
            report.mean_miss_ratio_given_one_miss > report.overall_miss_ratio
        )
        assert report.mean_slow_ratio_given_one_slow > report.overall_slow_read_ratio

    def test_tail_latency_prefixes(self, medium_result, medium_dataset):
        pop_locations = {p.pop_id: p.location for p in medium_result.deployment.pops}
        report = persistence.tail_latency_prefixes(medium_dataset, pop_locations)
        assert report.n_persistent > 0
        assert 0.0 <= report.non_us_fraction <= 1.0
        # recurrence frequencies are day-fractions
        assert all(0.0 < f <= 1.0 for f in report.recurrence.values())

    def test_tail_latency_validation(self, medium_dataset):
        with pytest.raises(ValueError):
            persistence.tail_latency_prefixes(
                medium_dataset, {}, top_recurrence_fraction=0.0
            )

    def test_empty_dataset(self):
        report = persistence.session_server_persistence(Dataset())
        assert report.overall_miss_ratio == 0.0


class TestPopularity:
    def test_video_ranks_by_volume(self, medium_dataset):
        ranks = popularity.video_ranks(medium_dataset)
        counts = {}
        for s in medium_dataset.player_sessions:
            counts[s.video_id] = counts.get(s.video_id, 0) + 1
        hottest = max(counts, key=counts.get)
        assert ranks[hottest] == 0

    def test_miss_pct_rises_into_tail(self, medium_dataset):
        rows = popularity.rank_tail_miss_percentage(medium_dataset)
        assert rows[-1][1] > rows[0][1]

    def test_hit_latency_rises_into_tail(self, medium_dataset):
        rows = popularity.rank_tail_hit_latency(medium_dataset)
        assert rows[-1][1] > rows[0][1]

    def test_load_latency_paradox(self, medium_dataset):
        corr = popularity.load_latency_correlation(medium_dataset)
        assert corr is not None
        assert corr < 0.2  # busier servers are NOT slower

    def test_server_rows_sorted_by_load(self, medium_dataset):
        rows = popularity.server_load_vs_latency(medium_dataset)
        loads = [r.n_requests for r in rows]
        assert loads == sorted(loads, reverse=True)

    def test_correlation_none_for_few_servers(self):
        assert popularity.load_latency_correlation(make_dataset(2)) is None


class TestQoe:
    def test_session_qoe_fields(self, small_dataset):
        view = small_dataset.sessions()[0]
        q = qoe.session_qoe(view)
        assert q.n_chunks == view.n_chunks
        assert 0.0 <= q.dropped_frame_pct <= 100.0

    def test_summarize_keys(self, small_dataset):
        summary = qoe.summarize(small_dataset)
        assert summary["n_sessions"] > 0
        assert summary["median_startup_ms"] > 0
        assert 0 <= summary["rebuffer_session_fraction"] <= 1

    def test_summarize_empty(self):
        assert qoe.summarize(Dataset()) == {"n_sessions": 0}

    def test_startup_relations_monotone_inputs(self, medium_dataset):
        stat = qoe.startup_vs_first_chunk_srtt(medium_dataset)
        assert len(stat.centers) >= 3
        assert stat.means[-1] > stat.means[0]


class TestRenderingDiag:
    def test_drops_vs_rate_shape(self, medium_dataset):
        stat = rendering_diag.drops_vs_download_rate(medium_dataset)
        assert len(stat.centers) >= 4
        slow = stat.means[0]
        fast = stat.means[-1]
        assert slow > fast

    def test_hw_rendering_low(self, medium_dataset):
        hw = rendering_diag.hardware_rendering_drop_pct(medium_dataset)
        assert hw is not None and hw < 2.0

    def test_rate_rule_split_sums_to_one(self, medium_dataset):
        split = rendering_diag.rate_rule_validation(medium_dataset)
        total = (
            split.confirming_fraction
            + split.low_rate_good_render
            + split.good_rate_bad_render
        )
        assert total == pytest.approx(1.0)
        assert split.confirming_fraction > 0.5

    def test_browser_table_normalized(self, medium_dataset):
        rows = rendering_diag.browser_rendering_table(medium_dataset)
        windows_share = sum(r.chunk_share_pct for r in rows if r.os == "Windows")
        assert windows_share > 85.0

    def test_first_chunk_split_nonempty(self, medium_dataset):
        first, other = rendering_diag.first_chunk_equivalence_split(
            medium_dataset, srtt_band_ms=(30.0, 100.0)
        )
        assert first and other
        assert np.median(first) > np.median(other)
