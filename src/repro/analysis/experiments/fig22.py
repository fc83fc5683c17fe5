"""Fig. 22 — the unpopular-browser rendering penalty.

Mean dropped-frame percentage of Yandex/Vivaldi/Opera/Safari-on-Windows
(and similar) against the average of everything else, restricted to
chunks with a good download rate (>= 1.5 s/s) and a visible player —
so what remains is pure rendering-path inefficiency.
"""

from __future__ import annotations

import numpy as np

from ...core.rendering_diag import unpopular_browser_drops
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig22"
TITLE = "Fig. 22: dropped % of unpopular browsers vs the rest"


def run(dataset: Dataset, min_chunks: int = 30) -> ExperimentResult:
    rows, rest_mean = unpopular_browser_drops(dataset, min_chunks=min_chunks)
    worst = rows[0] if rows else (None, float("nan"))
    mean_unpopular = float(np.mean([r[1] for r in rows])) if rows else float("nan")
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"unpopular_rows": rows, "rest_mean_drop_pct": rest_mean},
        summary={
            "n_unpopular_browsers": float(len(rows)),
            "worst_browser_drop_pct": worst[1],
            "mean_unpopular_drop_pct": mean_unpopular,
            "rest_drop_pct": rest_mean,
        },
        checks={
            "unpopular_browsers_measured": len(rows) >= 2,
            "unpopular_worse_than_rest": bool(rows) and mean_unpopular > rest_mean,
            "penalty_is_large": bool(rows) and mean_unpopular > 1.5 * max(rest_mean, 1e-9),
        },
    )
