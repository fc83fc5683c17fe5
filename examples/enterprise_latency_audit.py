#!/usr/bin/env python
"""Network-side audit: who suffers persistent latency problems, and why.

Reproduces the paper's §4.2 operator workflow on a simulated trace:

1. per-session srtt_min / CV(SRTT) extraction from tcp_info snapshots;
2. the Table-4 ranking — which organizations have wildly variable paths;
3. the Fig. 9 tail analysis — persistent high-latency /24 prefixes,
   split into far-away international clients vs nearby enterprises
   (the ones extra PoPs would NOT fix).

Run:  python examples/enterprise_latency_audit.py
"""

import numpy as np

from repro import SimulationConfig, run
from repro.core import filter_proxies, netdiag, persistence
from repro.core.decomposition import session_min_rtt


def main() -> None:
    print("Simulating 6000 sessions...")
    result = run(SimulationConfig(n_sessions=6000, warmup_sessions=6000, seed=31))
    dataset, _ = filter_proxies(result.dataset)
    sessions = dataset.sessions()

    baselines = [m for m in (session_min_rtt(s) for s in sessions) if m is not None]
    print(
        f"\nBaseline latency across {len(baselines)} sessions: "
        f"median {np.median(baselines):.0f} ms, p90 {np.percentile(baselines, 90):.0f} ms, "
        f"share above 100 ms: {np.mean([b > 100 for b in baselines]):.3f}"
    )

    print("\nTable-4 ranking — sessions with CV(SRTT) > 1 per organization:")
    print("  org            | sessions | % high-CV")
    for row in netdiag.org_cv_table(dataset, min_sessions=30)[:8]:
        print(f"  {row.org:<14} | {row.n_sessions:6d} | {row.percentage:6.2f}")

    print("\nFig. 9 tail analysis — persistent tail-latency prefixes:")
    pop_locations = {p.pop_id: p.location for p in result.deployment.pops}
    tail = persistence.tail_latency_prefixes(dataset, pop_locations)
    print(f"  persistent prefixes: {tail.n_persistent}")
    print(f"  outside the US: {100 * tail.non_us_fraction:.0f}% (distance-limited)")
    if tail.us_distances_km:
        close = np.mean([d <= 200 for d in tail.us_distances_km])
        print(
            f"  US prefixes within 200 km of their PoP: {100 * close:.0f}% — "
            f"of those, {100 * tail.us_enterprise_close_fraction:.0f}% are "
            f"enterprises (provisioning more servers would not help them)"
        )


if __name__ == "__main__":
    main()
