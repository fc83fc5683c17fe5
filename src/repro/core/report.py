"""Key-findings report — programmatic checks of the paper's Table 1.

Every row of Table 1 becomes a named, machine-checkable
:class:`FindingCheck` evaluated on a dataset: the claim, the relevant
measured quantities, and whether the dataset's shape supports the claim.
This is the harness behind the ``table01`` experiment and the final
"does the reproduction reproduce?" gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..telemetry.dataset import Dataset
from ..workload.geo import GeoPoint
from . import downstack, netdiag, perfscore, persistence, popularity, rendering_diag

__all__ = ["FindingCheck", "KeyFindingsReport", "evaluate_key_findings"]


@dataclass
class FindingCheck:
    """One Table-1 row: claim, measured evidence, verdict."""

    finding_id: str
    claim: str
    passed: bool
    evidence: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        details = ", ".join(f"{k}={v:.4g}" for k, v in self.evidence.items())
        return f"[{status}] {self.finding_id}: {self.claim} ({details})"


@dataclass
class KeyFindingsReport:
    """All Table-1 checks for a dataset."""

    checks: List[FindingCheck]

    @property
    def n_passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def by_id(self, finding_id: str) -> FindingCheck:
        for check in self.checks:
            if check.finding_id == finding_id:
                return check
        raise KeyError(finding_id)

    def __str__(self) -> str:
        lines = [f"Key findings: {self.n_passed}/{len(self.checks)} supported"]
        lines.extend(str(check) for check in self.checks)
        return "\n".join(lines)


def _median(values: List[float]) -> float:
    return float(np.median(values)) if values else float("nan")


def evaluate_key_findings(
    dataset: Dataset,
    pop_locations: Optional[Mapping[str, GeoPoint]] = None,
) -> KeyFindingsReport:
    """Evaluate every Table-1 finding on *dataset*.

    *pop_locations* enables the geography part of NET-1; without it the
    check degrades to the latency-tail-exists test.
    """
    chunks = dataset.join_chunks()
    checks: List[FindingCheck] = []

    # ---- CDN-1: asynchronous disk reads increase server-side delay -------
    ram_reads = [c.cdn.d_read_ms for c in chunks if c.cdn.cache_status == "hit_ram"]
    disk_reads = [c.cdn.d_read_ms for c in chunks if c.cdn.cache_status == "hit_disk"]
    gap = _median(disk_reads) - _median(ram_reads)
    checks.append(
        FindingCheck(
            "CDN-1",
            "Asynchronous disk-read (retry timer) separates D_read into two modes",
            passed=bool(disk_reads) and gap >= 8.0,
            evidence={"median_ram_read_ms": _median(ram_reads),
                      "median_disk_read_ms": _median(disk_reads)},
        )
    )

    # ---- CDN-2: cache misses increase CDN latency by order of magnitude --
    hit_totals = [c.cdn.total_server_ms for c in chunks if c.cdn.is_hit]
    miss_totals = [c.cdn.total_server_ms for c in chunks if not c.cdn.is_hit]
    ratio = _median(miss_totals) / _median(hit_totals) if hit_totals else float("nan")
    checks.append(
        FindingCheck(
            "CDN-2",
            "Cache misses increase server latency by an order of magnitude",
            passed=bool(miss_totals) and ratio >= 10.0,
            evidence={"median_hit_ms": _median(hit_totals),
                      "median_miss_ms": _median(miss_totals),
                      "ratio": ratio},
        )
    )

    # ---- CDN-3: persistent cache-miss / slow reads for unpopular videos --
    persistence_report = persistence.session_server_persistence(dataset)
    miss_rows = popularity.rank_tail_miss_percentage(dataset)
    miss_trend = miss_rows[-1][1] - miss_rows[0][1] if len(miss_rows) >= 2 else 0.0
    checks.append(
        FindingCheck(
            "CDN-3",
            "Unpopular videos suffer persistent misses and slow reads",
            passed=(
                persistence_report.mean_miss_ratio_given_one_miss
                > 2.0 * max(persistence_report.overall_miss_ratio, 1e-9)
                and miss_trend > 0
            ),
            evidence={
                "mean_miss_ratio_given_miss": persistence_report.mean_miss_ratio_given_one_miss,
                "overall_miss_ratio": persistence_report.overall_miss_ratio,
                "tail_minus_head_miss_pct": miss_trend,
            },
        )
    )

    # ---- CDN-4: load does not predict latency (paradox) -------------------
    correlation = popularity.load_latency_correlation(dataset)
    checks.append(
        FindingCheck(
            "CDN-4",
            "Higher server latency even on lightly loaded machines "
            "(load-performance paradox: busier servers are not slower)",
            passed=correlation is not None and correlation <= 0.1,
            evidence={"load_latency_corr": correlation if correlation is not None else float("nan")},
        )
    )

    # ---- NET-1: persistent delay from distance or enterprise paths --------
    if pop_locations is not None:
        tail = persistence.tail_latency_prefixes(dataset, pop_locations)
        enterprise_or_far = tail.non_us_fraction + tail.us_enterprise_close_fraction
        checks.append(
            FindingCheck(
                "NET-1",
                "Persistent high latency comes from distance or enterprise paths",
                passed=tail.n_persistent > 0 and enterprise_or_far > 0.5,
                evidence={
                    "n_persistent_prefixes": float(tail.n_persistent),
                    "non_us_fraction": tail.non_us_fraction,
                    "us_close_enterprise_fraction": tail.us_enterprise_close_fraction,
                },
            )
        )

    # ---- NET-2: enterprises have higher latency variation -----------------
    org_rows = netdiag.org_cv_table(dataset, min_sessions=30)
    enterprise_pct = [r.percentage for r in org_rows if r.org.startswith("Enterprise")]
    residential_pct = [r.percentage for r in org_rows if not r.org.startswith("Enterprise")]
    checks.append(
        FindingCheck(
            "NET-2",
            "Enterprise networks have far more high-CV(SRTT) sessions than residential",
            passed=(
                bool(enterprise_pct)
                and bool(residential_pct)
                and max(enterprise_pct) > 5.0 * max(max(residential_pct), 0.5)
            ),
            evidence={
                "max_enterprise_pct": max(enterprise_pct) if enterprise_pct else float("nan"),
                "max_residential_pct": max(residential_pct) if residential_pct else float("nan"),
            },
        )
    )

    # ---- NET-3: earlier losses hurt QoE more ------------------------------
    rows = netdiag.rebuffer_given_loss_by_chunk(dataset, max_chunk_id=10)
    early = [p for cid, _, p in rows if p is not None and 1 <= cid <= 2]
    late = [p for cid, _, p in rows if p is not None and cid >= 4]
    checks.append(
        FindingCheck(
            "NET-3",
            "Losses early in a session raise rebuffering odds more than late losses",
            passed=bool(early) and bool(late) and max(early) > float(np.mean(late)),
            evidence={
                "p_rebuf_given_early_loss": max(early) if early else float("nan"),
                "p_rebuf_given_late_loss": float(np.mean(late)) if late else float("nan"),
            },
        )
    )

    # ---- NET-4: throughput limits more chunks than latency ---------------
    good, bad = perfscore.split_by_score(chunks)
    bad_shares = [perfscore.throughput_share(c.player) for c in bad]
    checks.append(
        FindingCheck(
            "NET-4",
            "Bad-performance chunks are throughput-limited, not latency-limited",
            passed=bool(bad_shares) and float(np.median(bad_shares)) > 0.5,
            evidence={
                "n_bad_chunks": float(len(bad)),
                "median_throughput_share_bad": float(np.median(bad_shares))
                if bad_shares
                else float("nan"),
            },
        )
    )

    # ---- CLI-1: download-stack buffering exists and is detectable ---------
    outliers = downstack.detect_transient_outliers_dataset(dataset)
    n_flagged = sum(len(v) for v in outliers.values())
    checks.append(
        FindingCheck(
            "CLI-1",
            "Client download-stack buffering causes detectable outlier chunks",
            passed=n_flagged > 0,
            evidence={
                "n_flagged_chunks": float(n_flagged),
                "n_sessions_affected": float(len(outliers)),
            },
        )
    )

    # ---- CLI-2: first chunk has higher download-stack latency -------------
    first, other = rendering_diag.first_chunk_equivalence_split(
        dataset, srtt_band_ms=(40.0, 80.0)
    )
    checks.append(
        FindingCheck(
            "CLI-2",
            "First chunks have higher D_FB than later chunks in equivalent conditions",
            passed=bool(first) and bool(other) and _median(first) > _median(other),
            evidence={
                "median_first_dfb_ms": _median(first),
                "median_other_dfb_ms": _median(other),
            },
        )
    )

    # ---- CLI-3: less popular browsers drop more frames ---------------------
    unpopular_rows, rest_mean = rendering_diag.unpopular_browser_drops(dataset)
    checks.append(
        FindingCheck(
            "CLI-3",
            "Unpopular browsers drop more frames than the mainstream ones",
            passed=bool(unpopular_rows)
            and float(np.mean([r[1] for r in unpopular_rows])) > rest_mean,
            evidence={
                "mean_unpopular_drop_pct": float(np.mean([r[1] for r in unpopular_rows]))
                if unpopular_rows
                else float("nan"),
                "rest_drop_pct": rest_mean,
            },
        )
    )

    # ---- CLI-4: 1.5 s/s download rate needed for clean rendering -----------
    binned = rendering_diag.drops_vs_download_rate(dataset)
    slow = [m for c, m in zip(binned.centers, binned.means) if c < 1.0]
    fast = [m for c, m in zip(binned.centers, binned.means) if c >= 1.5]
    checks.append(
        FindingCheck(
            "CLI-4",
            "Avoiding dropped frames needs >= 1.5 s/s download rate; beyond it is flat",
            passed=bool(slow) and bool(fast) and min(slow) > 1.5 * max(np.mean(fast), 1e-9),
            evidence={
                "mean_drop_pct_below_1": float(np.mean(slow)) if slow else float("nan"),
                "mean_drop_pct_above_1_5": float(np.mean(fast)) if fast else float("nan"),
            },
        )
    )

    # ---- CLI-5: lower bitrates show more dropped frames --------------------
    low_bitrate = [
        100.0 * c.player.dropped_fraction
        for c in chunks
        if c.player.visible and not c.player.hw_rendered and c.player.bitrate_kbps <= 1000
    ]
    high_bitrate = [
        100.0 * c.player.dropped_fraction
        for c in chunks
        if c.player.visible and not c.player.hw_rendered and c.player.bitrate_kbps > 1000
    ]
    checks.append(
        FindingCheck(
            "CLI-5",
            "Chunks at lower bitrates have more dropped frames (confounded by "
            "network quality, §4.4-2)",
            passed=bool(low_bitrate)
            and bool(high_bitrate)
            and float(np.mean(low_bitrate)) > float(np.mean(high_bitrate)),
            evidence={
                "mean_drop_pct_low_bitrate": float(np.mean(low_bitrate))
                if low_bitrate
                else float("nan"),
                "mean_drop_pct_high_bitrate": float(np.mean(high_bitrate))
                if high_bitrate
                else float("nan"),
            },
        )
    )

    return KeyFindingsReport(checks=checks)
