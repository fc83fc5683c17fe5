"""Table 5 — OS/browser combinations with the worst download stacks.

Mean positive Eq. 5 download-stack bound per platform.  The paper's
ordering: Safari off-Mac (Linux/Windows) around 1 s, then Firefox on
Windows / "other" browsers on Windows / Firefox on Mac around 280 ms,
with mainstream Chrome/IE/Safari-on-Mac far lower.  Also reproduces the
headline "17.6% of all chunks experience a non-zero download stack
latency".
"""

from __future__ import annotations

import numpy as np

from ...core.downstack import persistent_ds_bound_ms, platform_ds_table
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "table05"
TITLE = "Table 5: platforms by persistent download-stack latency"


def run(dataset: Dataset, min_chunks: int = 30) -> ExperimentResult:
    rows = platform_ds_table(dataset, min_chunks=min_chunks)
    table = [
        (r.os, r.browser, round(r.mean_ds_ms, 1), r.n_chunks, round(r.nonzero_fraction, 3))
        for r in rows
    ]
    by_key = {(r.os, r.browser): r.mean_ds_ms for r in rows}
    burden = {(r.os, r.browser): r.expected_ds_ms for r in rows}

    bounds = [persistent_ds_bound_ms(c) for c in dataset.join_chunks()]
    bounds = [b for b in bounds if b is not None]
    nonzero_fraction = float(np.mean([b > 0 for b in bounds])) if bounds else 0.0

    safari_windows = by_key.get(("Windows", "Safari"))
    firefox_windows = by_key.get(("Windows", "Firefox"))
    chrome_windows = by_key.get(("Windows", "Chrome"))

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"platform_rows": table},
        summary={
            "n_platforms": float(len(rows)),
            "worst_platform_mean_ds_ms": rows[0].mean_ds_ms if rows else float("nan"),
            "nonzero_ds_chunk_fraction": nonzero_fraction,
            "safari_windows_ds_ms": safari_windows if safari_windows else float("nan"),
            "firefox_windows_ds_ms": firefox_windows if firefox_windows else float("nan"),
            "chrome_windows_ds_ms": chrome_windows if chrome_windows else float("nan"),
        },
        checks={
            "nonzero_ds_fraction_in_band": 0.05 <= nonzero_fraction <= 0.45,
            "safari_off_mac_worst": safari_windows is not None
            and firefox_windows is not None
            and safari_windows > firefox_windows,
            # per-chunk burden comparison is robust to a tiny, outlier-
            # dominated non-zero tail on the healthy platform
            "firefox_worse_than_chrome": burden.get(("Windows", "Firefox"), 0.0)
            > burden.get(("Windows", "Chrome"), float("inf")),
        },
    )
