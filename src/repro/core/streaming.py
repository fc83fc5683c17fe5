"""One-pass streaming analyses: accumulate per session, never hold the fleet.

Each headline analysis (:func:`repro.core.qoe.summarize`,
:func:`repro.core.localization.diagnose_dataset`,
:func:`repro.core.faultscore.score_fault_localization`) has a
per-session **accumulator** here: ``update(view)`` folds one joined
:class:`SessionView` in, ``result()`` emits the analysis result.
:func:`consume` drives any number of accumulators down a single
``iter_sessions()`` pass, so peak memory is one session view plus the
accumulators' own state (per-session scalars for the QoE quantiles —
~8 bytes/session — and a handful of counters for the rest).

The public functions do not delegate here: they run the vectorized pass
of :mod:`repro.core.columnar_analysis`.  The accumulators have two other
jobs:

* **test oracle** — they spell the analyses session by session through
  :func:`~repro.core.qoe.session_qoe` and
  :func:`~repro.core.localization.diagnose_session`, and the columnar
  pass must match them bit for bit::

      qoe.summarize(ds) == consume(ds, QoeAccumulator())[0]

* **the live service's fold** — ``repro serve`` diagnoses each round's
  views once and folds them into cumulative accumulators
  (:mod:`repro.serve.service`).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List

import numpy as np

from ..telemetry.dataset import SessionView
from .faultscore import (
    EXPECTED_BOTTLENECK,
    ClassScore,
    FaultScoreReport,
    parse_fault_labels,
)
from .localization import Bottleneck, diagnose_session
from .qoe import session_qoe

__all__ = [
    "QoeAccumulator",
    "LocalizationAccumulator",
    "FaultScoreAccumulator",
    "consume",
]


class QoeAccumulator:
    """Streaming :func:`repro.core.qoe.summarize`.

    Keeps one scalar per session per metric (quantiles need the values),
    never the session views or chunk records themselves.
    """

    def __init__(self) -> None:
        self._startups: List[float] = []
        self._rebuffer_rates: List[float] = []
        self._bitrates: List[float] = []
        self._dropped_pcts: List[float] = []
        self._chunk_counts: List[int] = []

    def update(self, view: SessionView) -> None:
        q = session_qoe(view)
        if q.startup_ms is not None:
            self._startups.append(q.startup_ms)
        self._rebuffer_rates.append(q.rebuffer_rate)
        self._bitrates.append(q.avg_bitrate_kbps)
        self._dropped_pcts.append(q.dropped_frame_pct)
        self._chunk_counts.append(q.n_chunks)

    def result(self) -> Dict[str, float]:
        n = len(self._rebuffer_rates)
        if n == 0:
            return {"n_sessions": 0}
        startups = self._startups
        return {
            "n_sessions": n,
            "median_startup_ms": float(np.median(startups)) if startups else float("nan"),
            "p90_startup_ms": (
                float(np.percentile(startups, 90)) if startups else float("nan")
            ),
            "rebuffer_session_fraction": float(
                np.mean([rate > 0 for rate in self._rebuffer_rates])
            ),
            "mean_rebuffer_rate_pct": float(
                np.mean([100.0 * rate for rate in self._rebuffer_rates])
            ),
            "median_bitrate_kbps": float(np.median(self._bitrates)),
            "mean_dropped_frame_pct": float(np.mean(self._dropped_pcts)),
            "median_session_chunks": float(np.median(self._chunk_counts)),
        }


class LocalizationAccumulator:
    """Streaming :func:`repro.core.localization.diagnose_dataset`.

    State is one counter per bottleneck location — O(1) in the fleet size.
    """

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self._total = 0

    def update(self, view: SessionView, diagnosis=None) -> None:
        """Fold one session; *diagnosis* reuses a precomputed
        :func:`diagnose_session` result (the live service diagnoses each
        view once and shares it across consumers)."""
        if diagnosis is None:
            diagnosis = diagnose_session(view)
        for attribution in diagnosis.attributions:
            self._counts[attribution.bottleneck] += 1
            self._total += 1

    def result(self) -> Dict[str, float]:
        if self._total == 0:
            return {}
        return {
            bottleneck.value: self._counts.get(bottleneck, 0) / self._total
            for bottleneck in Bottleneck
        }


class FaultScoreAccumulator:
    """Streaming :func:`repro.core.faultscore.score_fault_localization`.

    State is the :class:`FaultScoreReport` itself (per-class tallies and
    the confusion matrix) — O(fault classes), not O(sessions).
    """

    def __init__(self) -> None:
        self.report = FaultScoreReport()

    def update(self, view: SessionView, diagnosis=None) -> None:
        report = self.report
        if diagnosis is None:
            diagnosis = diagnose_session(view)
        for chunk, attribution in zip(view.chunks, diagnosis.attributions):
            report.n_chunks += 1
            if chunk.truth is None:
                report.n_unscored += 1
                continue
            predicted = attribution.bottleneck
            labels = parse_fault_labels(chunk.truth.fault_labels)
            truth_classes = sorted({fault_class for fault_class, _ in labels})
            if truth_classes:
                report.n_labeled += 1
            # confusion matrix: one row per truth class the chunk carries
            # (or the "none" row for un-faulted chunks)
            for category in truth_classes or ["none"]:
                report.confusion.setdefault(category, Counter())[predicted.value] += 1
            # the set of verdicts the chunk's faults are expected to surface as
            expected_layers = {
                verdict
                for c in truth_classes
                for verdict in EXPECTED_BOTTLENECK.get(c, ())
            }
            for fault_class in truth_classes:
                expected = EXPECTED_BOTTLENECK.get(fault_class)
                if expected is None:
                    continue
                score = report.classes.setdefault(
                    fault_class,
                    ClassScore(fault_class, tuple(v.value for v in expected)),
                )
                if predicted in expected:
                    score.true_positives += 1
                else:
                    score.false_negatives += 1
            # precision: a verdict naming a layer no active fault maps to is
            # a false positive for every class expecting that layer
            if predicted is not Bottleneck.NONE and predicted not in expected_layers:
                for score in report.classes.values():
                    if predicted.value in score.expected:
                        score.false_positives += 1

    def result(self):
        return self.report


def consume(dataset, *accumulators) -> List[Any]:
    """Drive *accumulators* down one ``iter_sessions()`` pass of *dataset*.

    One pass means one disk scan for a spilled dataset, however many
    analyses ride along.  Returns each accumulator's ``result()`` in
    argument order.
    """
    for view in dataset.iter_sessions():
        for accumulator in accumulators:
            accumulator.update(view)
    return [accumulator.result() for accumulator in accumulators]
