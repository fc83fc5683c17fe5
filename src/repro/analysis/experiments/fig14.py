"""Fig. 14 — rebuffering probability per chunk position, and given loss.

P(rebuffering at chunk = X) and P(rebuffering at chunk = X | loss at
chunk = X).  Loss anywhere raises rebuffering odds, but early losses —
when the buffer is thin — raise them the most.
"""

from __future__ import annotations

import numpy as np

from ...core.netdiag import rebuffer_given_loss_by_chunk
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig14"
TITLE = "Fig. 14: P(rebuffer at chunk X) and P(rebuffer | loss at X)"


def run(dataset: Dataset, max_chunk_id: int = 12) -> ExperimentResult:
    rows = rebuffer_given_loss_by_chunk(dataset, max_chunk_id=max_chunk_id)
    # Position 0 is startup (cannot rebuffer by definition); analyze 1+.
    unconditional = {cid: p for cid, p, _ in rows if cid >= 1}
    conditional = {cid: p for cid, _, p in rows if p is not None and cid >= 1}

    early_cond = [p for cid, p in conditional.items() if cid <= 2]
    late_cond = [p for cid, p in conditional.items() if cid >= 5]
    lift_pairs = [
        (conditional[cid], unconditional[cid])
        for cid in conditional
        if cid in unconditional and unconditional[cid] > 0
    ]
    mean_lift = (
        float(np.mean([c / u for c, u in lift_pairs])) if lift_pairs else float("nan")
    )

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"rows_chunkid_p_pgivenloss": rows},
        summary={
            "p_rebuffer_early_given_loss": max(early_cond) if early_cond else float("nan"),
            "p_rebuffer_late_given_loss": float(np.mean(late_cond))
            if late_cond
            else float("nan"),
            "mean_conditional_lift": mean_lift,
        },
        checks={
            "loss_raises_rebuffer_odds": mean_lift > 1.2,
            "early_loss_worst": bool(early_cond)
            and bool(late_cond)
            and max(early_cond) > float(np.mean(late_cond)),
        },
    )
