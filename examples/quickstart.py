#!/usr/bin/env python
"""Quickstart: simulate a collection period and run the paper's pipeline.

Simulates a small production-like trace (clients -> CDN -> telemetry),
applies the §3 proxy filter, prints headline QoE, and evaluates all
thirteen Table-1 findings end to end.

Run:  python examples/quickstart.py [n_sessions]
"""

import sys

from repro import SimulationConfig, run
from repro.core import evaluate_key_findings, filter_proxies, qoe


def main() -> None:
    n_sessions = int(sys.argv[1]) if len(sys.argv) > 1 else 2000

    print(f"Simulating {n_sessions} sessions (plus cache warmup)...")
    result = run(
        SimulationConfig(n_sessions=n_sessions, warmup_sessions=2 * n_sessions, seed=7)
    )
    print(
        f"  telemetry: {result.dataset.n_sessions} sessions, "
        f"{result.dataset.n_chunks} chunks, "
        f"{len(result.dataset.tcp_snapshots)} tcp_info snapshots"
    )

    print("\nApplying the proxy filter (paper §3)...")
    dataset, report = filter_proxies(result.dataset)
    print(
        f"  kept {report.n_kept_sessions}/{report.n_input_sessions} sessions "
        f"({100 * report.kept_fraction:.1f}%); removal reasons: "
        f"{report.removal_reasons()}"
    )

    print("\nHeadline QoE:")
    for key, value in qoe.summarize(dataset).items():
        print(f"  {key} = {value:.4g}")

    print("\nTable-1 key findings:")
    pop_locations = {p.pop_id: p.location for p in result.deployment.pops}
    findings = evaluate_key_findings(dataset, pop_locations)
    print(findings)
    if not findings.all_passed and n_sessions < 6000:
        print(
            "\nNote: population-scale findings (NET-2's per-org session "
            "minimums, CLI-5's weak confound) need volume — run with 6000+ "
            "sessions to reproduce all 13, as the test suite does."
        )


if __name__ == "__main__":
    main()
