"""Sweep reporting: one serialization path for cells, scenarios, grids.

Three layers, all deterministic (no wall clock, no process identity — a
sweep report is byte-identical for any ``--workers`` value):

* :func:`outcome_document` — the canonical JSON view of one multi-period
  run: per-period QoE, overall QoE over every period's sessions,
  first-vs-last-period deltas, and a fault-localization scorecard when
  the telemetry carries ground-truth labels.  ``repro scenario --json``
  and every sweep cell share this document shape.
* :func:`aggregate_report` — the grid-level comparison: one headline row
  per cell plus rankings by rebuffer ratio (ascending: best cells first)
  and by fault-localization recall (descending).
* :func:`format_report` — the human-readable table rendered from the
  aggregate document (``report.txt`` / CLI stdout).

Schema contract (documented in docs/SCENARIOS.md): outcome documents
carry ``schema = "repro.sweep.outcome/1"``, aggregate reports
``schema = "repro.sweep.report/1"``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis import plotting
from ..core import qoe
from ..core.faultscore import FaultScoreReport
from ..telemetry.dataset import Dataset

__all__ = [
    "OUTCOME_SCHEMA",
    "REPORT_SCHEMA",
    "outcome_document",
    "faultscore_summary",
    "aggregate_report",
    "format_report",
    "write_report",
    "load_cell_documents",
]

OUTCOME_SCHEMA = "repro.sweep.outcome/1"
REPORT_SCHEMA = "repro.sweep.report/1"

#: QoE keys promoted from the overall summary into a cell's headline row
_HEADLINE_QOE = (
    "mean_rebuffer_rate_pct",
    "rebuffer_session_fraction",
    "median_startup_ms",
    "p90_startup_ms",
    "median_bitrate_kbps",
)


def _round_floats(value: Any, digits: int = 6) -> Any:
    """Round every float in a JSON tree (stable, compact serialization)."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        return round(value, digits)
    if isinstance(value, dict):
        return {key: _round_floats(entry, digits) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(entry, digits) for entry in value]
    return value


def faultscore_summary(report: FaultScoreReport) -> Optional[Dict[str, Any]]:
    """A localization-vs-ground-truth report as a plain JSON dict.

    Returns None when the telemetry carried no fault labels (nothing to
    score) — an un-faulted sweep cell simply has no ``faultscore`` block.
    """
    if report.n_labeled == 0:
        return None
    pooled_tp = sum(score.true_positives for score in report.classes.values())
    pooled_fn = sum(score.false_negatives for score in report.classes.values())
    pooled_fp = sum(score.false_positives for score in report.classes.values())
    return {
        "n_chunks": report.n_chunks,
        "n_labeled": report.n_labeled,
        "recall": pooled_tp / (pooled_tp + pooled_fn) if pooled_tp + pooled_fn else 0.0,
        "precision": (
            pooled_tp / (pooled_tp + pooled_fp) if pooled_tp + pooled_fp else 0.0
        ),
        "classes": {
            name: {
                "labeled": score.labeled,
                "recall": score.recall,
                "precision": score.precision,
            }
            for name, score in sorted(report.classes.items())
        },
    }


def outcome_document(
    name: str,
    labels: Sequence[str],
    datasets: Sequence[Dataset],
    coordinates: Sequence[Tuple[str, str]] = (),
) -> Dict[str, Any]:
    """The canonical JSON view of one (possibly multi-period) run.

    *labels*/*datasets* are the per-period telemetry in period order (a
    single-period run is one entry).  ``overall`` and ``faultscore`` are
    every period's sessions: one analysis state per analysis folds each
    period's joined blocks in turn, and the counts are sums.  Periods may
    reuse session ids, so no session is joined across periods.
    ``deltas`` (multi-period only) is last-period QoE minus first-period
    QoE, the incident-vs-baseline damage vector.
    """
    if len(labels) != len(datasets):
        raise ValueError("labels and datasets must align")
    if not datasets:
        raise ValueError("outcome needs at least one period")
    periods = []
    for label, dataset in zip(labels, datasets):
        periods.append(
            {
                "label": label or "measure",
                "n_sessions": dataset.n_sessions,
                "n_chunks": dataset.n_chunks,
                "qoe": qoe.summarize(dataset),
            }
        )
    # imported here, like the core analyses do, so `import repro` does not
    # load the columnar pass
    from ..core.columnar_analysis import analyze_datasets

    overall = analyze_datasets(datasets, ("qoe", "faultscore"))
    document: Dict[str, Any] = {
        "schema": OUTCOME_SCHEMA,
        "name": name,
        "periods": periods,
        "overall": {
            "n_sessions": sum(period["n_sessions"] for period in periods),
            "n_chunks": sum(period["n_chunks"] for period in periods),
            "qoe": overall["qoe"],
        },
    }
    if coordinates:
        document["coordinates"] = {axis: value for axis, value in coordinates}
    if len(periods) > 1:
        first, last = periods[0]["qoe"], periods[-1]["qoe"]
        document["deltas"] = {
            key: last[key] - first[key]
            for key in first
            if key in last and isinstance(first[key], (int, float))
        }
    score = faultscore_summary(overall["faultscore"])
    if score is not None:
        document["faultscore"] = score
    return _round_floats(document)


# -- grid aggregation --------------------------------------------------------


def _headline(document: Dict[str, Any]) -> Dict[str, Any]:
    """The one-row summary of a cell document used for ranking."""
    overall = document.get("overall", {})
    summary = overall.get("qoe", {})
    row: Dict[str, Any] = {
        "n_sessions": overall.get("n_sessions"),
        "n_chunks": overall.get("n_chunks"),
    }
    for key in _HEADLINE_QOE:
        row[key] = summary.get(key)
    score = document.get("faultscore")
    row["fault_recall"] = score["recall"] if score else None
    row["fault_precision"] = score["precision"] if score else None
    row["fault_labeled_chunks"] = score["n_labeled"] if score else 0
    return row


def aggregate_report(
    sweep_name: str,
    cell_documents: Dict[str, Dict[str, Any]],
    failed: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Pivot per-cell outcome documents into one comparison document.

    *cell_documents* maps cell name → :func:`outcome_document`; *failed*
    maps cell name → error string for cells that did not produce telemetry.
    Rankings include only succeeded cells; ``by_fault_recall`` only cells
    that had labeled chunks to score.
    """
    failed = dict(failed or {})
    cells = {
        name: {
            "coordinates": document.get("coordinates", {}),
            **_headline(document),
        }
        for name, document in sorted(cell_documents.items())
    }

    def rebuffer_key(name: str):
        value = cells[name]["mean_rebuffer_rate_pct"]
        return (value is None, value if value is not None else 0.0, name)

    by_rebuffer = sorted(cells, key=rebuffer_key)
    scored = [name for name in cells if cells[name]["fault_recall"] is not None]
    by_fault_recall = sorted(
        scored, key=lambda name: (-cells[name]["fault_recall"], name)
    )
    return _round_floats(
        {
            "schema": REPORT_SCHEMA,
            "sweep": sweep_name,
            "n_cells": len(cells) + len(failed),
            "n_failed": len(failed),
            "sweeps": {
                "cells_total": len(cells) + len(failed),
                "cells_failed_total": len(failed),
            },
            "cells": cells,
            "failed": dict(sorted(failed.items())),
            "ranking": {
                "by_rebuffer": by_rebuffer,
                "by_fault_recall": by_fault_recall,
            },
        }
    )


def format_report(report: Dict[str, Any]) -> str:
    """Render the aggregate document as an aligned text comparison table."""
    cells = report.get("cells", {})
    rows: List[Tuple[str, ...]] = []
    for rank, name in enumerate(report["ranking"]["by_rebuffer"], start=1):
        row = cells[name]

        def fmt(value, pattern="{:.3g}"):
            return "—" if value is None else pattern.format(value)

        rows.append(
            (
                str(rank),
                name,
                fmt(row["mean_rebuffer_rate_pct"]),
                fmt(row["median_startup_ms"], "{:.0f}"),
                fmt(row["p90_startup_ms"], "{:.0f}"),
                fmt(row["median_bitrate_kbps"], "{:.0f}"),
                fmt(row["fault_recall"]),
                fmt(row["fault_precision"]),
            )
        )
    lines = [
        plotting.format_table(
            [
                "#", "cell", "rebuf%", "med_startup_ms", "p90_startup_ms",
                "med_kbps", "f.recall", "f.precision",
            ],
            rows,
            title=(
                f"Sweep {report['sweep']!r}: {report['n_cells']} cells "
                f"({report['n_failed']} failed), best rebuffer ratio first"
            ),
        )
    ]
    recall_ranking = report["ranking"]["by_fault_recall"]
    if recall_ranking:
        lines.append("")
        lines.append("Fault-localization recall ranking (best first):")
        for rank, name in enumerate(recall_ranking, start=1):
            row = cells[name]
            lines.append(
                f"  {rank}. {name}  recall={row['fault_recall']:.3f} "
                f"precision={row['fault_precision']:.3f} "
                f"({row['fault_labeled_chunks']} labeled chunks)"
            )
    if report.get("failed"):
        lines.append("")
        lines.append("Failed cells:")
        for name, error in report["failed"].items():
            lines.append(f"  {name}: {error}")
    return "\n".join(lines)


# -- persistence -------------------------------------------------------------


def _dump(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report(report: Dict[str, Any], directory: Union[str, Path]) -> Path:
    """Write ``report.json`` + ``report.txt`` into *directory*."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "report.json").write_text(_dump(report), encoding="utf-8")
    (directory / "report.txt").write_text(
        format_report(report) + "\n", encoding="utf-8"
    )
    return directory / "report.json"


def load_cell_documents(
    directory: Union[str, Path],
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, str]]:
    """Re-read per-cell outcome documents from a sweep output directory.

    Returns (documents, failures) keyed by cell name — the inputs
    :func:`aggregate_report` needs, so ``repro sweep report`` can
    re-aggregate without re-running anything.
    """
    directory = Path(directory)
    cells_dir = directory / "cells"
    if not cells_dir.is_dir():
        raise FileNotFoundError(
            f"{cells_dir} does not exist — not a sweep output directory?"
        )
    documents: Dict[str, Dict[str, Any]] = {}
    failures: Dict[str, str] = {}
    for cell_dir in sorted(cells_dir.iterdir()):
        if not cell_dir.is_dir():
            continue
        error_path = cell_dir / "error.txt"
        if error_path.is_file():
            failures[cell_dir.name] = error_path.read_text(encoding="utf-8").strip()
            continue
        outcome_path = cell_dir / "cell.json"
        if not outcome_path.is_file():
            failures[cell_dir.name] = "missing cell.json"
            continue
        payload = json.loads(outcome_path.read_text(encoding="utf-8"))
        schema = payload.get("schema")
        if schema != OUTCOME_SCHEMA:
            raise ValueError(
                f"{outcome_path}: unsupported outcome schema {schema!r} "
                f"(expected {OUTCOME_SCHEMA!r})"
            )
        documents[cell_dir.name] = payload
    return documents, failures
