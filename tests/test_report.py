"""Tests for the Table-1 key-findings report harness."""

import json

import pytest

from repro.analysis.experiments import common
from repro.api import run
from repro.core.proxy_filter import filter_proxies
from repro.core.report import FindingCheck, KeyFindingsReport, evaluate_key_findings


class TestReportContainer:
    def test_counts_and_lookup(self):
        report = KeyFindingsReport(
            checks=[
                FindingCheck("A", "claim a", True, {"x": 1.0}),
                FindingCheck("B", "claim b", False, {"y": 2.0}),
            ]
        )
        assert report.n_passed == 1
        assert not report.all_passed
        assert report.by_id("A").passed
        with pytest.raises(KeyError):
            report.by_id("C")

    def test_string_rendering(self):
        report = KeyFindingsReport(
            checks=[FindingCheck("A", "claim", True, {"x": 1.2345})]
        )
        text = str(report)
        assert "1/1" in text
        assert "[PASS] A" in text


@pytest.fixture(scope="module")
def medium_report(medium_dataset):
    """Table 1 of the medium simulation without geography, evaluated once
    for the tests that read it."""
    return evaluate_key_findings(medium_dataset)


class TestEvaluateOnSimulation:
    def test_thirteen_findings_with_geography(self, medium_result, medium_dataset):
        pop_locations = {p.pop_id: p.location for p in medium_result.deployment.pops}
        report = evaluate_key_findings(medium_dataset, pop_locations)
        assert len(report.checks) == 13
        assert report.all_passed, str(report)

    def test_twelve_findings_without_geography(self, medium_report):
        report = medium_report
        ids = {c.finding_id for c in report.checks}
        assert "NET-1" not in ids
        assert len(report.checks) == 12

    def test_every_check_carries_evidence(self, medium_report):
        report = medium_report
        assert all(check.evidence for check in report.checks)

    def test_finding_ids_match_table1_layout(self, medium_report):
        report = medium_report
        ids = [c.finding_id for c in report.checks]
        assert [i for i in ids if i.startswith("CDN")] == [
            "CDN-1",
            "CDN-2",
            "CDN-3",
            "CDN-4",
        ]
        assert len([i for i in ids if i.startswith("CLI")]) == 5


def _findings(dataset):
    """Each Table-1 check's id, pass bit and evidence, exactly."""
    return [
        (check.finding_id, check.passed, json.dumps(check.evidence, sort_keys=True))
        for check in evaluate_key_findings(dataset).checks
    ]


class TestOneRecordOrder:
    """Record-based analyses read canonical records however a run was
    executed, so serial, sharded and spilled runs report identically."""

    def test_serial_sharded_and_spilled_findings_are_equal(self, tmp_path):
        serial = common.filtered_dataset("tiny")
        sharded = common.filtered_dataset("tiny", workers=2)
        findings = _findings(serial)
        assert _findings(sharded) == findings
        spilled = run(
            common.standard_config("tiny").with_overrides(
                spill_dir=str(tmp_path / "spill"), spill_threshold_rows=1024
            )
        ).dataset
        assert len(spilled.run_arrays("tcp_snapshots")) > 1
        filtered_spill, _ = filter_proxies(spilled)
        assert _findings(filtered_spill) == findings
        assert sharded == serial
        assert filtered_spill == serial
