"""Score localization verdicts against injected fault ground truth.

The localizer (:mod:`repro.core.localization`) reads only production
telemetry; the fault injector (:mod:`repro.faults`) stamps what it
actually did into :class:`~repro.telemetry.records.ChunkGroundTruth.fault_labels`.
This module joins the two per chunk and reports, per fault class:

* **recall** — of the chunks a fault of class X demonstrably touched, how
  many did the localizer attribute to X's expected layer?
* **precision** — of the chunks the localizer attributed to X's expected
  layer, how many were actually touched by a fault mapping there?  (An
  un-faulted run has organic problems too, so precision is measured
  against the *layer*, pooling fault classes that share one.)
* a **confusion matrix** truth-class × predicted-bottleneck, the full
  picture behind both numbers.

This is validation tooling: it needs ground truth and therefore only works
on simulated datasets recorded with ``record_ground_truth=True``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..telemetry.dataset import Dataset
from .localization import Bottleneck

__all__ = [
    "EXPECTED_BOTTLENECK",
    "ClassScore",
    "FaultScoreReport",
    "parse_fault_labels",
    "score_fault_localization",
]

#: fault class → the Bottleneck verdict(s) a correct localizer may emit.
#: The network classes accept both network verdicts: an RTT inflation also
#: collapses TCP throughput (Eq. 3: throughput ∝ 1/SRTT) and loss recovery
#: stretches D_FB as well as D_LB, so the latency/throughput split of a
#: *correctly network-attributed* chunk follows Eq. 2's shares, not the
#: injection mechanism — exactly the paper's Fig. 16 observation that
#: bad-score chunks skew throughput-limited.
EXPECTED_BOTTLENECK: Dict[str, Tuple[Bottleneck, ...]] = {
    "server-degraded": (Bottleneck.SERVER,),
    "server-overload": (Bottleneck.SERVER,),
    "cache-brownout": (Bottleneck.SERVER,),
    "origin-slowdown": (Bottleneck.SERVER,),
    "network-latency": (Bottleneck.NETWORK_LATENCY, Bottleneck.NETWORK_THROUGHPUT),
    "network-loss": (Bottleneck.NETWORK_THROUGHPUT, Bottleneck.NETWORK_LATENCY),
    "client-render": (Bottleneck.CLIENT_RENDERING,),
}


def parse_fault_labels(labels: str) -> List[Tuple[str, str]]:
    """``"class:id,class:id"`` → ``[(class, id), ...]`` (unknowns kept)."""
    result: List[Tuple[str, str]] = []
    for token in labels.split(","):
        token = token.strip()
        if not token:
            continue
        fault_class, _, fault_id = token.partition(":")
        result.append((fault_class, fault_id))
    return result


@dataclass
class ClassScore:
    """Precision/recall of one fault class against its expected layer."""

    fault_class: str
    expected: Tuple[str, ...]  # Bottleneck values counting as correct
    true_positives: int = 0
    false_negatives: int = 0
    false_positives: int = 0

    @property
    def labeled(self) -> int:
        return self.true_positives + self.false_negatives

    @property
    def recall(self) -> float:
        if self.labeled == 0:
            return 0.0
        return self.true_positives / self.labeled

    @property
    def precision(self) -> float:
        predicted = self.true_positives + self.false_positives
        if predicted == 0:
            return 0.0
        return self.true_positives / predicted


@dataclass
class FaultScoreReport:
    """Chunk-level scoring of localization against injected ground truth."""

    n_chunks: int = 0
    #: chunks carrying at least one ground-truth fault label
    n_labeled: int = 0
    #: chunks lacking a ground-truth record entirely (cannot be scored)
    n_unscored: int = 0
    classes: Dict[str, ClassScore] = field(default_factory=dict)
    #: truth category (fault class, or "none") → predicted bottleneck counts
    confusion: Dict[str, Counter] = field(default_factory=dict)

    @property
    def truth_categories(self) -> List[str]:
        return sorted(self.confusion)

    def format_report(self) -> str:
        lines = [
            f"scored {self.n_chunks} chunks "
            f"({self.n_labeled} fault-labeled, {self.n_unscored} without ground truth)",
            "",
            "Per-fault-class precision/recall (vs expected localization verdict):",
            f"  {'class':<18} {'expected':<24} {'labeled':>7} "
            f"{'recall':>7} {'precision':>9}",
        ]
        for name in sorted(self.classes):
            score = self.classes[name]
            expected = "|".join(score.expected)
            lines.append(
                f"  {name:<18} {expected:<24} {score.labeled:>7} "
                f"{score.recall:>7.3f} {score.precision:>9.3f}"
            )
        predicted_values = [b.value for b in Bottleneck]
        lines.append("")
        lines.append("Confusion matrix (rows: injected truth; cols: localizer verdict):")
        corner = "truth \\ verdict"
        header = "  " + f"{corner:<20}" + "".join(
            f"{v:>22}" for v in predicted_values
        )
        lines.append(header)
        for truth in self.truth_categories:
            row = self.confusion[truth]
            lines.append(
                "  "
                + f"{truth:<20}"
                + "".join(f"{row.get(v, 0):>22}" for v in predicted_values)
            )
        return "\n".join(lines)


def score_fault_localization(dataset: Dataset) -> FaultScoreReport:
    """Attribute every chunk, then grade verdicts against ``fault_labels``.

    Attributions are :func:`~repro.core.localization.diagnose_session`'s
    (so transient download-stack flags use within-session statistics,
    exactly as the operator-facing pipeline does), joined with each
    chunk's ground-truth labels.  Computed by the vectorized pass
    (:mod:`~repro.core.columnar_analysis`, docs/PERFORMANCE.md "The read
    path"), bit-identical to the per-session ``FaultScoreAccumulator`` of
    ``tests/streaming_oracle.py``; its state is O(fault classes), so
    spilled datasets score under a flat ceiling and ``repro serve``
    carries it across rounds.  It runs the one cascade pass, memoized on
    *dataset* with the localization and QoE results it also folds, so
    after ``summarize`` or ``diagnose_dataset`` on the same object it
    joins nothing (docs/PERFORMANCE.md "Analyse once").
    """
    from .columnar_analysis import analyze_dataset

    return analyze_dataset(dataset, analyses=("faultscore",))["faultscore"]
