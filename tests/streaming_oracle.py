"""The per-session oracle of the columnar analyses and of the serve fold.

Each headline analysis (:func:`repro.core.qoe.summarize`,
:func:`repro.core.localization.diagnose_dataset`,
:func:`repro.core.faultscore.score_fault_localization`) has a
per-session **accumulator** here: ``update(view)`` folds one joined
:class:`SessionView` in, ``result()`` emits the analysis result.
:func:`consume` drives any number of accumulators down a single
``iter_sessions()`` pass.  They spell the analyses session by session
through :func:`~repro.core.qoe.session_qoe` and
:func:`~repro.core.localization.diagnose_session`, and the vectorized
pass of :mod:`repro.core.columnar_analysis` must match them bit for bit::

    qoe.summarize(ds) == consume(ds, QoeAccumulator())[0]

:func:`fold_view` is the matching spelling of
:meth:`repro.serve.windows.RollingWindows.fold`: it charges one diagnosed
session to the rolling windows, chunk by chunk.  Replaying a service's
rounds through it and through the accumulators must rebuild the
service's ``/windows``, localization and fault-score outputs exactly
(``tests/test_serve.py``).

No runtime code imports this module.  Tests import it by name from the
``tests`` directory; scripts put that directory on ``sys.path`` first.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List

import numpy as np

from repro.core.faultscore import (
    EXPECTED_BOTTLENECK,
    ClassScore,
    FaultScoreReport,
    parse_fault_labels,
)
from repro.core.localization import Bottleneck, diagnose_session
from repro.core.qoe import session_qoe
from repro.serve.windows import RollingWindows
from repro.telemetry.dataset import SessionView

__all__ = [
    "QoeAccumulator",
    "LocalizationAccumulator",
    "FaultScoreAccumulator",
    "consume",
    "fold_view",
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

    def update(self, view: SessionView) -> None:
        for attribution in diagnose_session(view).attributions:
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

    State is the per-class tallies, the confusion matrix and one count of
    spurious verdicts per verdict — O(fault classes), not O(sessions).
    """

    def __init__(self) -> None:
        self.report = FaultScoreReport()
        self._spurious: Counter = Counter()

    def update(self, view: SessionView) -> None:
        report = self.report
        for chunk, attribution in zip(view.chunks, diagnose_session(view).attributions):
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
            # a verdict naming a layer no active fault maps to is spurious
            if predicted is not Bottleneck.NONE and predicted not in expected_layers:
                self._spurious[predicted.value] += 1

    def result(self) -> FaultScoreReport:
        """The report in canonical order: classes and confusion rows
        sorted, verdict columns in :class:`Bottleneck` order.  Precision
        counts every spurious verdict naming a class's layer as one of its
        false positives, wherever it came in the data."""
        report = self.report
        classes = {}
        for name in sorted(report.classes):
            score = report.classes[name]
            classes[name] = ClassScore(
                name,
                score.expected,
                true_positives=score.true_positives,
                false_negatives=score.false_negatives,
                false_positives=sum(self._spurious[value] for value in score.expected),
            )
        confusion = {}
        for category in sorted(report.confusion):
            row = report.confusion[category]
            confusion[category] = Counter(
                {b.value: row[b.value] for b in Bottleneck if b.value in row}
            )
        return FaultScoreReport(
            n_chunks=report.n_chunks,
            n_labeled=report.n_labeled,
            n_unscored=report.n_unscored,
            classes=classes,
            confusion=confusion,
        )


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


_NETWORK_VERDICTS = frozenset({Bottleneck.NETWORK_LATENCY, Bottleneck.NETWORK_THROUGHPUT})


def fold_view(windows: RollingWindows, view: SessionView) -> None:
    """Charge one joined session, diagnosed chunk by chunk, to *windows*."""
    diagnosis = diagnose_session(view)
    session_bucket = windows._bucket(view.player_session.start_ms)
    session_bucket.n_sessions += 1
    join_ms = view.startup_delay_ms
    if join_ms is not None:
        session_bucket.joins.append(join_ms)
    org = view.cdn_session.org
    for chunk, attribution in zip(view.chunks, diagnosis.attributions):
        bucket = windows._bucket(chunk.player.request_sent_ms)
        bucket.n_chunks += 1
        bucket.media_ms += chunk.player.chunk_duration_ms
        bucket.rebuffer_ms += chunk.player.rebuffer_ms
        bucket.rebuffer_events += chunk.player.rebuffer_count
        verdict = attribution.bottleneck
        bucket.bottlenecks[verdict.value] += 1
        server_id = chunk.cdn.server_id
        bucket.server_chunks[server_id] += 1
        if verdict is Bottleneck.SERVER:
            bucket.server_problems[server_id] += 1
        bucket.org_chunks[org] += 1
        if verdict in _NETWORK_VERDICTS:
            bucket.org_network[org] += 1
        if chunk.truth is not None and chunk.truth.fault_labels:
            for label in chunk.truth.fault_labels.split(","):
                if label:
                    bucket.fault_labels[label] += 1
