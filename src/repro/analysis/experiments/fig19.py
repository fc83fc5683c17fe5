"""Fig. 19 — dropped frames vs chunk download rate.

Mean/median dropped-frame percentage binned by download rate (seconds of
video per second of wall time), with hardware-rendered chunks reported
separately (the figure's first bar).  The paper's shape: steep drops below
1 s/s, a knee at ~1.5 s/s, and a flat floor beyond — plus the 85.5% /
5.7% / 6.9% rule-validation split.
"""

from __future__ import annotations

import numpy as np

from ...core.rendering_diag import (
    drops_vs_download_rate,
    hardware_rendering_drop_pct,
    rate_rule_validation,
)
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig19"
TITLE = "Fig. 19: dropped frames vs chunk download rate"


def run(dataset: Dataset) -> ExperimentResult:
    binned = drops_vs_download_rate(dataset)
    rows = binned.rows()
    hw_drop = hardware_rendering_drop_pct(dataset)
    split = rate_rule_validation(dataset)

    below_1 = [mean for center, mean, *_ in rows if center < 1.0]
    knee = [mean for center, mean, *_ in rows if 1.0 <= center < 1.5]
    beyond = [mean for center, mean, *_ in rows if center >= 1.5]
    floor = float(np.mean(beyond)) if beyond else float("nan")

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={
            "rows_center_mean_median_q25_q75_n": rows,
            "hw_rendering_drop_pct": hw_drop,
        },
        summary={
            "drop_pct_below_1": float(np.mean(below_1)) if below_1 else float("nan"),
            "drop_pct_beyond_1_5": floor,
            "hw_drop_pct": hw_drop if hw_drop is not None else float("nan"),
            "rule_confirming_fraction": split.confirming_fraction,
            "low_rate_good_render_fraction": split.low_rate_good_render,
            "good_rate_bad_render_fraction": split.good_rate_bad_render,
        },
        checks={
            "drops_fall_until_1_5": bool(below_1)
            and bool(beyond)
            and min(below_1) > 1.5 * max(floor, 1e-9),
            "flat_beyond_1_5": len(beyond) >= 2
            and (max(beyond) - min(beyond)) < 0.5 * max(beyond),
            "hw_rendering_near_zero": hw_drop is not None and hw_drop < 2.0,
            # paper: 85.5% of chunks confirm the 1.5 s/s hypothesis
            "rule_mostly_confirmed": split.confirming_fraction > 0.7,
        },
    )
