"""Tests for the experiment reproductions (one per paper figure/table).

Standalone experiments (fig03, fig13, fig17, fig20) are exercised fully;
dataset experiments run against the shared medium simulation and must pass
all of their shape checks — this is the "does the reproduction reproduce
the paper" gate.
"""

import pytest

from repro.analysis.experiments import (
    DATASET_EXPERIMENTS,
    RESULT_EXPERIMENTS,
    STANDALONE_EXPERIMENTS,
    all_experiments,
    get_experiment,
    run_experiment,
)
from repro.analysis.experiments.base import ExperimentResult


class TestRegistry:
    def test_all_23_experiments_registered(self):
        ids = all_experiments()
        assert len(ids) == 23
        assert set(DATASET_EXPERIMENTS) | set(RESULT_EXPERIMENTS) | set(
            STANDALONE_EXPERIMENTS
        ) == set(ids)

    def test_every_paper_artifact_covered(self):
        ids = set(all_experiments())
        for figure in range(3, 23):
            assert f"fig{figure:02d}" in ids
        for table in (1, 4, 5):
            assert f"table{table:02d}" in ids

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_result_formatting(self):
        result = ExperimentResult(
            experiment_id="x",
            title="t",
            summary={"value": 1.5},
            checks={"ok": True, "bad": False},
        )
        text = result.format_report()
        assert "PASS" in text and "FAIL" in text
        assert not result.all_checks_passed


class TestStandaloneExperiments:
    def test_fig03_skew_and_lengths(self):
        result = run_experiment("fig03", n_videos=5000, n_requests=100_000)
        assert result.all_checks_passed, result.format_report()
        assert 0.5 < result.summary["top10pct_playback_share_observed"] < 0.8

    def test_fig13_loss_position_paradox(self):
        result = run_experiment("fig13")
        assert result.all_checks_passed, result.format_report()
        assert (
            result.summary["case1_session_retx_pct"]
            < result.summary["case2_session_retx_pct"]
        )
        assert result.summary["case1_total_rebuffer_ms"] > 0
        assert result.summary["case2_total_rebuffer_ms"] == 0

    def test_fig17_detector_pinpoints_chunk(self):
        result = run_experiment("fig17")
        assert result.all_checks_passed, result.format_report()
        assert result.summary["flagged_chunk"] == 7.0

    def test_fig17_other_position(self):
        result = run_experiment("fig17", ds_chunk=12)
        assert result.summary["flagged_chunk"] == 12.0

    def test_fig20_controlled_rendering(self):
        result = run_experiment("fig20")
        assert result.all_checks_passed, result.format_report()
        assert result.summary["gpu_drop_pct"] < result.summary["software_idle_drop_pct"]


@pytest.mark.parametrize("experiment_id", sorted(DATASET_EXPERIMENTS))
def test_dataset_experiment_checks_pass(experiment_id, medium_dataset):
    result = run_experiment(experiment_id, medium_dataset)
    assert isinstance(result, ExperimentResult)
    assert result.series, "experiment produced no series data"
    assert result.all_checks_passed, result.format_report()


@pytest.mark.parametrize("experiment_id", sorted(RESULT_EXPERIMENTS))
def test_result_experiment_checks_pass(experiment_id, medium_result):
    result = run_experiment(experiment_id, medium_result)
    assert result.all_checks_passed, result.format_report()


class TestHeadlineNumbers:
    """The paper's named scalar statistics, within tolerance bands."""

    def test_hit_vs_miss_order_of_magnitude(self, medium_dataset):
        result = run_experiment("fig05", medium_dataset)
        # paper: 2 ms vs 80 ms (40x); require the right decades
        assert result.summary["median_hit_total_ms"] < 10.0
        assert result.summary["median_miss_total_ms"] > 40.0
        assert result.summary["hit_miss_ratio"] > 10.0

    def test_retry_timer_share(self, medium_dataset):
        result = run_experiment("fig05", medium_dataset)
        # paper: 35% of chunks pay the open-read-retry timer
        assert 0.15 < result.summary["retry_timer_chunk_fraction"] < 0.60

    def test_first_chunk_ds_gap_near_300ms(self, medium_dataset):
        result = run_experiment("fig18", medium_dataset)
        assert 150.0 < result.summary["median_gap_ms"] < 600.0

    def test_nonzero_ds_fraction_near_paper(self, medium_dataset):
        result = run_experiment("table05", medium_dataset)
        # paper: 17.6% of chunks have non-zero download-stack latency
        assert 0.05 < result.summary["nonzero_ds_chunk_fraction"] < 0.40

    def test_rendering_rule_confirmation_rate(self, medium_dataset):
        result = run_experiment("fig19", medium_dataset)
        # paper: 85.5% confirm, 5.7% low-rate-good, 6.9% good-rate-bad
        assert result.summary["rule_confirming_fraction"] > 0.70

    def test_all_13_findings_supported(self, medium_result):
        result = run_experiment("table01", medium_result)
        assert result.summary["n_supported"] == result.summary["n_findings"] == 13.0
