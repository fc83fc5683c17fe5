"""The paper's analysis pipeline — its primary methodological contribution.

Everything in this package consumes only production-observable telemetry
(the :class:`~repro.telemetry.dataset.Dataset` join); simulator ground
truth is used exclusively by the test suite to validate the estimators.
"""

from .._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".comparison": ("ComparisonReport", "compare_datasets"),
        ".faultscore": ("FaultScoreReport", "score_fault_localization"),
        ".localization": ("Bottleneck", "diagnose_dataset", "diagnose_session"),
        ".proxy_filter": ("ProxyFilterReport", "filter_proxies"),
        ".report": ("FindingCheck", "KeyFindingsReport", "evaluate_key_findings"),
    },
    submodules=(
        "comparison",
        "decomposition",
        "downstack",
        "faultscore",
        "localization",
        "netdiag",
        "perfscore",
        "persistence",
        "popularity",
        "qoe",
        "rendering_diag",
        "report",
        "whatif",
    ),
)
