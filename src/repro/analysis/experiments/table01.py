"""Table 1 — the paper's key-findings summary, verified end to end.

Runs every Table-1 check (see :mod:`repro.core.report`) against the
standard dataset and reports the support status of all thirteen findings.
"""

from __future__ import annotations

from ...core.proxy_filter import filter_proxies
from ...core.report import evaluate_key_findings
from ...simulation.driver import SimulationResult
from .base import ExperimentResult
from .common import pop_locations

EXPERIMENT_ID = "table01"
TITLE = "Table 1: all thirteen key findings"


def run(result: SimulationResult) -> ExperimentResult:
    dataset, _ = filter_proxies(result.dataset)
    report = evaluate_key_findings(dataset, pop_locations(result))
    checks = {check.finding_id: check.passed for check in report.checks}
    evidence = {
        f"{check.finding_id}.{key}": value
        for check in report.checks
        for key, value in check.evidence.items()
    }
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"report_text": str(report)},
        summary={
            "n_findings": float(len(report.checks)),
            "n_supported": float(report.n_passed),
            **evidence,
        },
        checks=checks,
    )
