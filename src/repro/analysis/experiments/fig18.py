"""Fig. 18 — first-chunk D_FB vs other chunks in equivalent conditions.

The paper's equivalence filter (no loss, CWND > IW, similar SRTT, low
server latency, cache hit) isolates the download stack's first-chunk
setup cost: event-listener registration and data-path initialization add
~300 ms to the first chunk's median D_FB.
"""

from __future__ import annotations

import numpy as np

from ...core.rendering_diag import first_chunk_equivalence_split
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig18"
TITLE = "Fig. 18: D_FB of first vs other chunks, equivalent conditions"


def run(
    dataset: Dataset,
    srtt_band_ms=(40.0, 90.0),
) -> ExperimentResult:
    first, other = first_chunk_equivalence_split(dataset, srtt_band_ms=srtt_band_ms)
    median_first = float(np.median(first)) if first else float("nan")
    median_other = float(np.median(other)) if other else float("nan")
    gap = median_first - median_other
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"first_dfb_ms": first[:5000], "other_dfb_ms": other[:5000]},
        summary={
            "n_first": float(len(first)),
            "n_other": float(len(other)),
            "median_first_dfb_ms": median_first,
            "median_other_dfb_ms": median_other,
            "median_gap_ms": gap,
        },
        checks={
            "enough_samples": len(first) >= 20 and len(other) >= 100,
            "first_chunk_slower": gap > 0,
            # paper: "the median D_FB is 300ms higher than other chunks"
            "gap_hundreds_of_ms": 100.0 <= gap <= 1000.0,
        },
    )
