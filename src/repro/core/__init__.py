"""The paper's analysis pipeline — its primary methodological contribution.

Everything in this package consumes only production-observable telemetry
(the :class:`~repro.telemetry.dataset.Dataset` join); simulator ground
truth is used exclusively by the test suite to validate the estimators.
"""

from . import (
    comparison,
    decomposition,
    downstack,
    faultscore,
    localization,
    netdiag,
    perfscore,
    persistence,
    popularity,
    qoe,
    rendering_diag,
    report,
    whatif,
)
from .comparison import ComparisonReport, compare_datasets
from .faultscore import FaultScoreReport, score_fault_localization
from .localization import Bottleneck, diagnose_dataset, diagnose_session
from .proxy_filter import ProxyFilterReport, filter_proxies
from .report import FindingCheck, KeyFindingsReport, evaluate_key_findings

__all__ = [
    "comparison",
    "compare_datasets",
    "ComparisonReport",
    "decomposition",
    "downstack",
    "faultscore",
    "FaultScoreReport",
    "score_fault_localization",
    "localization",
    "netdiag",
    "perfscore",
    "persistence",
    "popularity",
    "qoe",
    "rendering_diag",
    "report",
    "whatif",
    "filter_proxies",
    "ProxyFilterReport",
    "evaluate_key_findings",
    "KeyFindingsReport",
    "FindingCheck",
    "Bottleneck",
    "diagnose_session",
    "diagnose_dataset",
]
