"""Seeded fault injection: spec validation, determinism, scoring, facade.

The contract under test (docs/FAULTS.md):

* a :class:`FaultSpec` JSON-round-trips and rejects malformed events;
* the injector is a pure overlay — an empty spec reproduces the
  un-faulted run exactly, and the same seed + spec produce
  record-identical telemetry (and a byte-identical metrics document) for
  any worker count;
* ``score_fault_localization`` grades the localizer against the stamped
  ground truth, with recall >= 0.8 on the canned CDN-degradation spec;
* :func:`repro.api.run` is the one facade over every execution shape.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import run
from repro.cli import main as cli_main
from repro.core.faultscore import (
    EXPECTED_BOTTLENECK,
    parse_fault_labels,
    score_fault_localization,
)
from repro.core.localization import Bottleneck
from repro.faults import FaultEvent, FaultInjector, FaultSpec, merge_labels
from repro.simulation.config import SimulationConfig
from repro.simulation.driver import SimulationResult

REPO_ROOT = Path(__file__).resolve().parent.parent
CDN_SPEC = REPO_ROOT / "examples" / "fault_cdn_degradation.json"
ISP_SPEC = REPO_ROOT / "examples" / "fault_isp_incident.json"
CLIENT_SPEC = REPO_ROOT / "examples" / "fault_client_regression.json"


def _config(**overrides) -> SimulationConfig:
    defaults = dict(
        n_sessions=150,
        warmup_sessions=100,
        seed=11,
        warm_first_chunks=True,
        prefetch_after_miss=True,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _mixed_spec() -> FaultSpec:
    return FaultSpec(
        name="mixed",
        events=(
            FaultEvent("deg", "server-degraded", 0.0, 1e12, 8.0, server_fraction=0.5),
            FaultEvent("lat", "network-latency", 0.0, 1e12, 5.0, orgs=("Comcast",)),
            FaultEvent("rend", "client-render", 0.0, 1e12, 0.5, platforms=("Windows",)),
        ),
    )


class TestFaultSpec:
    def test_json_round_trip(self, tmp_path):
        spec = _mixed_spec()
        path = spec.save(tmp_path / "spec.json")
        loaded = FaultSpec.load(path)
        assert loaded == spec

    def test_canned_specs_load(self):
        for path in (CDN_SPEC, ISP_SPEC, CLIENT_SPEC):
            spec = FaultSpec.load(path)
            assert spec.events, path

    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError, match="unknown fault_class"):
            FaultEvent("x", "disk-on-fire", 0.0, 10.0)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError, match="end_ms"):
            FaultEvent("x", "server-degraded", 10.0, 10.0)

    def test_rejects_bad_loss_magnitude(self):
        with pytest.raises(ValueError, match="network-loss"):
            FaultEvent("x", "network-loss", 0.0, 10.0, magnitude=1.5)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate fault_id"):
            FaultSpec(
                events=(
                    FaultEvent("x", "server-degraded", 0.0, 10.0),
                    FaultEvent("x", "server-overload", 0.0, 10.0, magnitude=5.0),
                )
            )

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FaultSpec.load(tmp_path / "nope.json")

    def test_fraction_targeting_is_deterministic_and_partial(self):
        event = FaultEvent(
            "slice", "server-degraded", 0.0, 10.0, 5.0, server_fraction=0.5
        )
        servers = [f"srv-{i:03d}" for i in range(200)]
        struck = [s for s in servers if event.targets_server(s)]
        assert struck == [s for s in servers if event.targets_server(s)]
        assert 0 < len(struck) < len(servers)


class TestInjector:
    def test_inactive_outside_window(self):
        spec = FaultSpec(
            events=(FaultEvent("d", "server-degraded", 100.0, 200.0, 8.0),)
        )
        injector = FaultInjector(spec)
        assert injector.server_state("srv-000", 50.0) is None
        assert injector.server_state("srv-000", 200.0) is None
        state = injector.server_state("srv-000", 150.0)
        assert state is not None and state.latency_mult == 8.0
        assert state.labels == ("server-degraded:d",)

    def test_layers_do_not_cross(self):
        injector = FaultInjector(_mixed_spec())
        assert injector.server_state("srv-000", 1.0) is None or True  # fraction
        assert injector.path_state("Verizon", "p", 1.0) is None
        assert injector.render_state("Mac OS X", 1.0) is None
        state = injector.path_state("Comcast", "p", 1.0)
        assert state is not None and state.rtt_mult == 5.0

    def test_path_probe_none_when_unreachable(self):
        injector = FaultInjector(_mixed_spec())
        assert injector.path_probe("Verizon", "p") is None
        probe = injector.path_probe("Comcast", "p")
        assert probe is not None and probe(1.0).rtt_mult == 5.0

    def test_merge_labels_sorts_and_dedupes(self):
        assert merge_labels(("b:2", "a:1"), ("b:2",)) == "a:1,b:2"
        assert merge_labels((), ()) == ""
        assert parse_fault_labels("a:1,b:2") == [("a", "1"), ("b", "2")]


class TestConfigValidation:
    def test_bad_mapping_strategy(self):
        with pytest.raises(ValueError, match="mapping_strategy"):
            SimulationConfig(mapping_strategy="teleport")

    def test_bad_abr_name(self):
        with pytest.raises(ValueError, match="abr_name"):
            SimulationConfig(abr_name="psychic")

    def test_bad_shard_by(self):
        # server sharding is the only mode: the knob is gone, not ignored
        with pytest.raises(TypeError, match="shard_by"):
            SimulationConfig(shard_by="session")

    def test_bad_faults_type(self):
        with pytest.raises(TypeError, match="faults"):
            SimulationConfig(faults={"events": []})


class TestFaultDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return run(_config(), faults=_mixed_spec())

    @pytest.fixture(scope="class")
    def sharded(self):
        return run(_config(workers=4), faults=_mixed_spec())

    def test_sharded_records_equal_serial(self, serial, sharded):
        assert sharded.dataset == serial.dataset

    def test_metrics_document_byte_identical(self, serial, sharded):
        doc_a = json.dumps(serial.metrics_document(), sort_keys=True)
        doc_b = json.dumps(sharded.metrics_document(), sort_keys=True)
        assert doc_a == doc_b

    def test_fault_counters_active(self, serial):
        counters = serial.metrics.snapshot()["counters"]
        assert counters["faults.labeled_chunks_total"] > 0
        assert counters["faults.server_requests_total"] > 0
        assert counters["faults.network_chunks_total"] > 0
        assert counters["faults.render_chunks_total"] > 0

    def test_labels_stamped_and_parseable(self, serial):
        labeled = [
            c
            for c in serial.dataset.join_chunks()
            if c.truth is not None and c.truth.fault_labels
        ]
        assert labeled
        for chunk in labeled[:50]:
            for fault_class, fault_id in parse_fault_labels(chunk.truth.fault_labels):
                assert fault_class in EXPECTED_BOTTLENECK
                assert fault_id

    def test_empty_spec_reproduces_unfaulted_run(self):
        plain = run(_config())
        empty = run(_config(), faults=FaultSpec(events=()))
        assert empty.dataset == plain.dataset


class TestFaultScore:
    @pytest.fixture(scope="class")
    def cdn_report(self):
        result = run(_config(n_sessions=200), faults=FaultSpec.load(CDN_SPEC))
        return score_fault_localization(result.dataset)

    def test_cdn_degradation_recall(self, cdn_report):
        score = cdn_report.classes["server-degraded"]
        assert score.labeled > 100
        assert score.recall >= 0.8

    def test_report_counts_consistent(self, cdn_report):
        assert cdn_report.n_chunks >= cdn_report.n_labeled
        assert cdn_report.n_unscored == 0

    def test_confusion_matrix_rows(self, cdn_report):
        assert "server-degraded" in cdn_report.confusion
        total = sum(cdn_report.confusion["server-degraded"].values())
        assert total == cdn_report.classes["server-degraded"].labeled

    def test_format_report_mentions_recall(self, cdn_report):
        text = cdn_report.format_report()
        assert "recall" in text and "server-degraded" in text

    def test_expected_mapping_covers_all_classes(self):
        from repro.faults.spec import FAULT_CLASSES

        assert set(EXPECTED_BOTTLENECK) == set(FAULT_CLASSES)
        for verdicts in EXPECTED_BOTTLENECK.values():
            assert verdicts and all(isinstance(v, Bottleneck) for v in verdicts)

    def test_unlabeled_dataset_scores_clean(self):
        result = run(_config())
        report = score_fault_localization(result.dataset)
        assert report.n_labeled == 0
        assert report.classes == {}


class TestRunFacade:
    def test_rejects_config_and_periods(self):
        from repro.simulation.parallel import PeriodSpec

        with pytest.raises(ValueError, match="not both"):
            run(_config(), periods=[PeriodSpec(config=_config())])

    def test_default_config(self):
        result = run(SimulationConfig(n_sessions=20, warmup_sessions=10, seed=3))
        assert isinstance(result, SimulationResult)
        assert result.dataset.n_sessions == 20
        assert result.simulator is not None
        assert result.config.n_sessions == 20

    def test_faults_accepts_path_and_spec(self):
        by_path = run(_config(n_sessions=40), faults=str(CDN_SPEC))
        by_spec = run(_config(n_sessions=40), faults=FaultSpec.load(CDN_SPEC))
        assert by_path.dataset == by_spec.dataset

    def test_multi_period_dataset_property_raises(self):
        from repro.simulation.parallel import PeriodSpec

        result = run(
            periods=[
                PeriodSpec(config=_config(n_sessions=20), label="a"),
                PeriodSpec(config=_config(n_sessions=20, seed=12), label="b"),
            ]
        )
        with pytest.raises(ValueError, match="period"):
            _ = result.dataset
        assert result.period("a").n_sessions == 20
        with pytest.raises(KeyError):
            result.period("zzz")

    def test_save_writes_dataset_and_manifest(self, tmp_path):
        result = run(_config(n_sessions=30))
        out = result.save(tmp_path / "trace")
        assert (out / "manifest.json").is_file()
        from repro.telemetry.io import load_dataset

        assert load_dataset(out).n_sessions == 30


class TestCli:
    def test_simulate_with_faults_and_faultscore(self, tmp_path, capsys):
        out = tmp_path / "trace"
        code = cli_main(
            [
                "simulate",
                "--sessions", "60",
                "--warmup", "40",
                "--seed", "5",
                "--out", str(out),
                "--faults", str(CDN_SPEC),
            ]
        )
        assert code == 0
        code = cli_main(["faultscore", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "server-degraded" in text
        assert "Confusion matrix" in text

    def test_faultscore_exits_nonzero_without_labels(self, tmp_path, capsys):
        out = tmp_path / "plain"
        assert cli_main(
            [
                "simulate",
                "--sessions", "20",
                "--warmup", "10",
                "--seed", "5",
                "--out", str(out),
            ]
        ) == 0
        assert cli_main(["faultscore", str(out)]) == 1

    def test_scenario_command_unknown_name(self, capsys):
        assert cli_main(["scenario", "no-such-thing"]) == 2
