"""Tests for the adoption extensions: CSV beacons, A/B comparison, scenarios."""

import dataclasses

import numpy as np
import pytest

from helpers import make_dataset, make_records, player_chunk
from repro.api import run
from repro.cli import main as cli_main
from repro.core.comparison import bootstrap_ci, compare_datasets
from repro.sweep import CANNED_SCENARIOS
from repro.telemetry.beacons import export_beacons_csv, import_beacons_csv
from repro.telemetry.dataset import Dataset


class TestBeaconsCsv:
    def test_round_trip(self, tmp_path):
        dataset = make_dataset(3)
        export_beacons_csv(dataset, tmp_path / "beacons")
        loaded = import_beacons_csv(tmp_path / "beacons")
        assert loaded.player_chunks == dataset.player_chunks
        assert loaded.cdn_chunks == dataset.cdn_chunks
        assert loaded.tcp_snapshots == dataset.tcp_snapshots
        assert loaded.player_sessions == dataset.player_sessions
        assert loaded.cdn_sessions == dataset.cdn_sessions

    def test_round_trip_on_simulated_trace(self, small_result, tmp_path):
        export_beacons_csv(small_result.dataset, tmp_path / "b")
        loaded = import_beacons_csv(tmp_path / "b")
        assert loaded.n_sessions == small_result.dataset.n_sessions
        assert loaded.n_chunks == small_result.dataset.n_chunks
        # ground truth never leaves the simulator
        assert loaded.ground_truth == ()
        # booleans survive the text round trip
        originals = {
            (c.session_id, c.chunk_id): c.visible
            for c in small_result.dataset.player_chunks
        }
        for chunk in loaded.player_chunks[:100]:
            assert chunk.visible == originals[(chunk.session_id, chunk.chunk_id)]

    def test_missing_files_yield_empty_lists(self, tmp_path):
        directory = export_beacons_csv(make_dataset(1), tmp_path / "b")
        (directory / "tcp_snapshots.csv").unlink()
        loaded = import_beacons_csv(directory)
        assert loaded.tcp_snapshots == ()
        assert loaded.n_chunks == 1

    def test_unknown_columns_rejected(self, tmp_path):
        directory = export_beacons_csv(make_dataset(1), tmp_path / "b")
        target = directory / "player_chunks.csv"
        content = target.read_text().splitlines()
        content[0] += ",surprise"
        content[1] += ",1"
        target.write_text("\n".join(content) + "\n")
        with pytest.raises(ValueError, match="unknown columns"):
            import_beacons_csv(directory)

    def test_missing_required_column_rejected(self, tmp_path):
        directory = export_beacons_csv(make_dataset(1), tmp_path / "b")
        target = directory / "cdn_chunks.csv"
        lines = target.read_text().splitlines()
        header = lines[0].split(",")
        index = header.index("chunk_bytes")
        stripped = [
            ",".join(col for i, col in enumerate(line.split(",")) if i != index)
            for line in lines
        ]
        target.write_text("\n".join(stripped) + "\n")
        with pytest.raises(ValueError, match="missing required columns"):
            import_beacons_csv(directory)

    def test_bad_value_reports_line(self, tmp_path):
        directory = export_beacons_csv(make_dataset(1), tmp_path / "b")
        target = directory / "tcp_snapshots.csv"
        lines = target.read_text().splitlines()
        lines[1] = lines[1].replace("60.0", "sixty", 1)
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":2:"):
            import_beacons_csv(directory)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            import_beacons_csv(tmp_path / "nope")


class TestBootstrapCi:
    def test_contains_true_mean_for_tight_data(self):
        low, high = bootstrap_ci([10.0] * 50)
        assert low == high == 10.0

    def test_interval_widens_with_variance(self):
        rng = np.random.default_rng(0)
        tight = bootstrap_ci(rng.normal(0, 0.1, 200), seed=1)
        loose = bootstrap_ci(rng.normal(0, 10.0, 200), seed=1)
        assert (loose[1] - loose[0]) > (tight[1] - tight[0])

    def test_median_statistic(self):
        low, high = bootstrap_ci([1, 2, 3, 4, 100], statistic=np.median)
        assert low <= 3 <= high <= 100

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.5)


class TestCompareDatasets:
    def test_identical_datasets_show_no_significant_change(self):
        dataset = make_dataset(3)
        report = compare_datasets(dataset, dataset)
        assert report.deltas
        assert not report.significant_changes
        for delta in report.deltas:
            assert delta.delta == 0.0

    def test_detects_injected_regression(self):
        baseline = make_records(3)
        # candidate: every session rebuffers heavily
        degraded = make_records(3)
        degraded["player_chunks"] = [
            player_chunk(chunk=i, rebuffer_count=1, rebuffer_ms=3000.0)
            for i in range(3)
        ]
        # replicate sessions so the bootstrap has something to resample
        for k in range(1, 30):
            for source, sid in ((baseline, f"b{k}"), (degraded, f"d{k}")):
                base = make_records(3)
                for record_list_name in (
                    "player_chunks",
                    "cdn_chunks",
                    "tcp_snapshots",
                    "player_sessions",
                    "cdn_sessions",
                ):
                    for record in base[record_list_name]:
                        # dataclasses.replace works for slotted records,
                        # which have no per-instance __dict__
                        setattr_record = dataclasses.replace(record, session_id=sid)
                        source[record_list_name].append(setattr_record)
        for chunk_index, record in enumerate(list(degraded["player_chunks"])):
            if record.session_id.startswith("d"):
                degraded["player_chunks"][chunk_index] = dataclasses.replace(
                    record, rebuffer_count=1, rebuffer_ms=3000.0
                )
        report = compare_datasets(
            Dataset(**baseline), Dataset(**degraded), n_resamples=200
        )
        rebuffer = report.by_metric("rebuffer_rate_pct")
        assert rebuffer.delta > 0
        assert rebuffer.significant

    def test_by_metric_unknown(self):
        report = compare_datasets(make_dataset(1), make_dataset(1))
        with pytest.raises(KeyError):
            report.by_metric("nope")

    def test_report_renders(self):
        report = compare_datasets(make_dataset(2), make_dataset(2))
        text = str(report)
        assert "sessions" in text
        assert "startup_ms" in text


def _run_scenario(name, seed):
    """A canned scenario's baseline and incident datasets."""
    result = run(periods=CANNED_SCENARIOS[name].resolve(seed=seed))
    return result.period("baseline"), result.period("incident")


class TestScenarios:
    def test_unknown_scenario(self, capsys):
        assert cli_main(["scenario", "alien-invasion"]) == 2
        assert "choose from" in capsys.readouterr().err

    def test_registry_names(self):
        assert set(CANNED_SCENARIOS) == {"flash-crowd", "cache-flush", "backend-brownout"}

    @pytest.mark.parametrize("name", sorted(CANNED_SCENARIOS))
    def test_scenario_produces_both_periods(self, name):
        baseline, incident = _run_scenario(name, seed=41)
        assert baseline.n_sessions == 800
        assert incident.n_sessions == 800

    def test_cache_flush_hurts_misses(self):
        baseline, incident = _run_scenario("cache-flush", seed=43)

        def miss(dataset):
            return np.mean([c.cache_status == "miss" for c in dataset.cdn_chunks])

        assert miss(incident) > miss(baseline) + 0.1

    def test_backend_brownout_hurts_miss_latency(self):
        baseline, incident = _run_scenario("backend-brownout", seed=47)

        def miss_latency(dataset):
            values = [
                c.total_server_ms
                for c in dataset.cdn_chunks
                if c.cache_status == "miss"
            ]
            return np.median(values) if values else 0.0

        assert miss_latency(incident) > 2.0 * miss_latency(baseline)

    def test_flash_crowd_is_cache_friendly_but_loads_servers(self):
        baseline, incident = _run_scenario("flash-crowd", seed=53)

        def miss(dataset):
            return np.mean([c.cache_status == "miss" for c in dataset.cdn_chunks])

        # a 10-title hot set is trivially cacheable
        assert miss(incident) < miss(baseline)
