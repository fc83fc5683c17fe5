#!/usr/bin/env python
"""ABR shootout: rate-based vs buffer-based vs hybrid on the same workload.

The paper's findings feed ABR design (start bitrate, outlier screening,
buffer depth); this example compares the three classic families the
related work describes on identical simulated conditions.

Run:  python examples/abr_shootout.py
"""

import numpy as np

from repro import SimulationConfig, run


def evaluate(abr_name: str, screen: bool = False):
    result = run(
        SimulationConfig(
            n_sessions=1200,
            warmup_sessions=2400,
            seed=17,
            abr_name=abr_name,
            abr_screen_outliers=screen,
        )
    )
    sessions = result.dataset.sessions()
    startups = [s.startup_delay_ms for s in sessions if s.startup_delay_ms]
    return {
        "median_bitrate_kbps": float(np.median([s.avg_bitrate_kbps for s in sessions])),
        "rebuffer_session_pct": 100.0 * float(
            np.mean([s.rebuffer_rate > 0 for s in sessions])
        ),
        "median_startup_ms": float(np.median(startups)),
        "mean_rebuffer_rate_pct": 100.0 * float(
            np.mean([s.rebuffer_rate for s in sessions])
        ),
    }


def main() -> None:
    contenders = [
        ("rate", False),
        ("rate", True),  # with the paper's §4.3 outlier screening
        ("buffer", False),
        ("hybrid", False),
    ]
    print("abr            | bitrate kbps | startup ms | rebuf sessions % | rebuf rate %")
    for abr_name, screen in contenders:
        label = abr_name + ("+screen" if screen else "")
        print(f"running {label}...", end="", flush=True)
        metrics = evaluate(abr_name, screen)
        print(
            f"\r{label:<14} | {metrics['median_bitrate_kbps']:10.0f} | "
            f"{metrics['median_startup_ms']:8.0f} | "
            f"{metrics['rebuffer_session_pct']:14.2f} | "
            f"{metrics['mean_rebuffer_rate_pct']:10.3f}"
        )
    print(
        "\nReading: rate-based chases throughput (quality), buffer-based "
        "protects continuity (stalls), hybrid balances; screening removes "
        "download-stack bursts from the estimate."
    )


if __name__ == "__main__":
    main()
