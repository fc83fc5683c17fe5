"""Fig. 21 — browser popularity and rendering quality per platform.

Per-OS browser chunk shares (normalized within Windows and Mac) side by
side with each browser's mean dropped-frame percentage.  The paper's
ordering: browsers with internal Flash (Chrome) or native HLS (Safari on
Mac) outperform; Firefox (Flash as a separate process) trails; the
"Other" bucket is worst.
"""

from __future__ import annotations

import numpy as np

from ...core.rendering_diag import browser_rendering_table
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig21"
TITLE = "Fig. 21: browser share and dropped frames, Windows vs Mac"


def run(dataset: Dataset, min_chunks: int = 50) -> ExperimentResult:
    rows = browser_rendering_table(dataset, min_chunks=min_chunks)
    table = [
        (r.os, r.browser, round(r.chunk_share_pct, 2), round(r.mean_dropped_pct, 2))
        for r in rows
    ]
    drops = {(r.os, r.browser): r.mean_dropped_pct for r in rows}
    shares = {(r.os, r.browser): r.chunk_share_pct for r in rows}

    chrome_win = drops.get(("Windows", "Chrome"))
    firefox_win = drops.get(("Windows", "Firefox"))
    safari_mac = drops.get(("Mac", "Safari"))
    firefox_mac = drops.get(("Mac", "Firefox"))

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"rows_os_browser_share_drops": table},
        summary={
            "chrome_windows_drop_pct": chrome_win if chrome_win else float("nan"),
            "firefox_windows_drop_pct": firefox_win if firefox_win else float("nan"),
            "safari_mac_drop_pct": safari_mac if safari_mac else float("nan"),
            "chrome_windows_share_pct": shares.get(("Windows", "Chrome"), float("nan")),
        },
        checks={
            "both_platforms_present": any(os == "Windows" for os, *_ in table)
            and any(os == "Mac" for os, *_ in table),
            "chrome_beats_firefox_on_windows": chrome_win is not None
            and firefox_win is not None
            and chrome_win < firefox_win,
            "safari_beats_firefox_on_mac": safari_mac is not None
            and firefox_mac is not None
            and safari_mac < firefox_mac,
            "shares_normalized": abs(
                sum(share for os, _, share, _ in table if os == "Windows") - 100.0
            )
            < 15.0,
        },
    )
