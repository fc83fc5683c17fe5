"""Proxy filtering — the paper's §3 data-preprocessing step.

"A possible pitfall in our analysis is the existence of enterprise or ISP
HTTP proxies, since the CDN server's TCP connection would terminate at the
proxy ... We filter sessions using a proxy when: (i) we see different
client IP addresses or user agents between HTTP requests and client-side
beacons, or (ii) the client IP address appears in a very large number of
sessions (e.g., more minutes of video per day than there are minutes in a
day).  After filtering proxies, our dataset consists of 77% of sessions."

Rule (ii) is stated in absolute wall-clock terms; for arbitrary collection
windows we generalize it to *physical impossibility*: one client IP cannot
watch more media time than the collection window contains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

import numpy as np

from ..telemetry.columnar import merge_runs, release_rows, session_runs
from ..telemetry.dataset import Dataset

__all__ = ["ProxyFilterReport", "filter_proxies"]


@dataclass
class ProxyFilterReport:
    """What the filter removed and why."""

    n_input_sessions: int
    n_kept_sessions: int
    ip_mismatch_sessions: Set[str] = field(default_factory=set)
    ua_mismatch_sessions: Set[str] = field(default_factory=set)
    mega_ip_sessions: Set[str] = field(default_factory=set)
    mega_ips: Set[str] = field(default_factory=set)

    @property
    def n_removed(self) -> int:
        return self.n_input_sessions - self.n_kept_sessions

    @property
    def kept_fraction(self) -> float:
        if self.n_input_sessions == 0:
            return 0.0
        return self.n_kept_sessions / self.n_input_sessions

    def removal_reasons(self) -> Dict[str, int]:
        """Counts per rule (a session can match several)."""
        return {
            "ip_mismatch": len(self.ip_mismatch_sessions),
            "ua_mismatch": len(self.ua_mismatch_sessions),
            "mega_ip": len(self.mega_ip_sessions),
        }


def _strings(values: np.ndarray) -> Set[str]:
    """The distinct UTF-8 strings of a bytes column."""
    return {value.decode("utf-8") for value in values.tolist()}


def filter_proxies(
    dataset: Dataset,
    media_budget_factor: float = 1.0,
    min_sessions_for_mega_ip: int = 20,
) -> Tuple[Dataset, ProxyFilterReport]:
    """Remove proxy sessions; returns (filtered dataset, report).

    *media_budget_factor* scales the physical watch-time budget of one IP
    (1.0 = exactly the collection window, the paper's "more minutes of
    video per day than there are minutes in a day" generalized).
    *min_sessions_for_mega_ip* guards the volume rule against tiny datasets.

    The rules run on the columns of *dataset* (a :class:`Dataset` or a
    spill), not on record objects.  Where a session id repeats, the last
    player row is its beacon, and every CDN row counts; float sums add in
    canonical row order.
    """
    if media_budget_factor <= 0:
        raise ValueError("media_budget_factor must be positive")
    report = ProxyFilterReport(n_input_sessions=dataset.n_sessions, n_kept_sessions=0)
    # each kind's rows in canonical order, the order its records iterate in
    ps = merge_runs("player_sessions", dataset.run_arrays("player_sessions"))
    cs = merge_runs("cdn_sessions", dataset.run_arrays("cdn_sessions"))
    cdn_ids = cs["session_id"]

    # Rule (i): IP / user-agent mismatch between CDN logs and beacons.
    # A session's beacon is its last player row.
    ids = ps["session_id"]
    last = np.ones(len(ids), dtype=bool)
    last[:-1] = ids[1:] != ids[:-1]
    beacon_ids = ids[last]
    if len(beacon_ids):
        beacon = np.minimum(np.searchsorted(beacon_ids, cdn_ids), len(beacon_ids) - 1)
        has_beacon = beacon_ids[beacon] == cdn_ids
        ip_mismatch = has_beacon & (ps["client_ip"][last][beacon] != cs["client_ip"])
        ua_mismatch = has_beacon & (ps["user_agent"][last][beacon] != cs["user_agent"])
    else:
        ip_mismatch = ua_mismatch = np.zeros(len(cdn_ids), dtype=bool)
    report.ip_mismatch_sessions = _strings(cdn_ids[ip_mismatch])
    report.ua_mismatch_sessions = _strings(cdn_ids[ua_mismatch])
    removed = ip_mismatch | ua_mismatch

    # Rule (ii): one CDN-visible IP watching more media than time allows.
    # The collection window is the session-start spread, plus one hour of
    # slack so the last sessions' own watch time does not make legitimate
    # tail clients look impossible.
    starts = ps["start_ms"]
    window_ms = float(starts.max() - starts.min()) + 3_600_000.0 if len(starts) else 0.0
    if window_ms > 0:
        # media watched per CDN session: its player chunks' durations,
        # added in canonical order (bincount adds each bin's weights in
        # array order)
        sids = np.unique(cdn_ids)
        chunks = merge_runs("player_chunks", dataset.run_arrays("player_chunks"))
        lengths, found, member = session_runs(chunks["session_id"], sids)
        code = np.repeat(found, lengths)
        watched = np.repeat(member, lengths)
        media_by_session = np.bincount(
            code[watched],
            weights=chunks["chunk_duration_ms"][watched],
            minlength=len(sids),
        )
        media = media_by_session[np.searchsorted(sids, cdn_ids)]
        # per IP, every CDN row's session counts and adds its media, in
        # canonical row order
        ips, ip_code = np.unique(cs["client_ip"], return_inverse=True)
        too_many = np.bincount(ip_code, minlength=len(ips)) >= min_sessions_for_mega_ip
        media_by_ip = np.bincount(ip_code, weights=media, minlength=len(ips))
        mega = too_many & (media_by_ip > media_budget_factor * window_ms)
        mega_rows = mega[ip_code]
        report.mega_ips = _strings(ips[mega])
        report.mega_ip_sessions = _strings(cdn_ids[mega_rows])
        removed |= mega_rows

    # Every player row whose session is removed goes.
    lengths, _, member = session_runs(ids, np.unique(cdn_ids[removed]))
    kept = ids[~np.repeat(member, lengths)]
    report.n_kept_sessions = len(kept)
    # the three kinds are read: drop a spill's mapped pages of them
    for kind in ("player_sessions", "cdn_sessions", "player_chunks"):
        for run in dataset.run_arrays(kind):
            release_rows(run)
    filtered = dataset.filter_sessions(_strings(kept))
    return filtered, report
