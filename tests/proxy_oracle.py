"""The record-level oracle of :func:`repro.core.proxy_filter.filter_proxies`.

:func:`filter_proxies_records` spells the paper's §3 proxy filter one
record object at a time: a dict of beacons by session id (the last
player row of an id wins), the CDN session records in canonical order,
and per-session and per-IP media sums added record by record.  The
columnar filter must return an equal report and an equal filtered
dataset (``tests/test_core_analysis.py``).

No runtime code imports this module.  Tests import it by name from the
``tests`` directory.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.proxy_filter import ProxyFilterReport
from repro.telemetry.dataset import Dataset

__all__ = ["filter_proxies_records"]


def _collection_window_ms(dataset) -> float:
    """Length of the collection window, from session-start spread, plus
    one hour of slack."""
    starts = [s.start_ms for s in dataset.player_sessions]
    if not starts:
        return 0.0
    return (max(starts) - min(starts)) + 3_600_000.0


def filter_proxies_records(
    dataset,
    media_budget_factor: float = 1.0,
    min_sessions_for_mega_ip: int = 20,
) -> Tuple[Dataset, ProxyFilterReport]:
    """Remove proxy sessions, reading record objects; returns (filtered
    dataset, report)."""
    if media_budget_factor <= 0:
        raise ValueError("media_budget_factor must be positive")

    player_sessions = {s.session_id: s for s in dataset.player_sessions}
    report = ProxyFilterReport(n_input_sessions=dataset.n_sessions, n_kept_sessions=0)

    # Rule (i): IP / user-agent mismatch between CDN logs and beacons.
    for cdn_session in dataset.cdn_sessions:
        beacon = player_sessions.get(cdn_session.session_id)
        if beacon is None:
            continue
        if beacon.client_ip != cdn_session.client_ip:
            report.ip_mismatch_sessions.add(cdn_session.session_id)
        if beacon.user_agent != cdn_session.user_agent:
            report.ua_mismatch_sessions.add(cdn_session.session_id)

    # Rule (ii): one CDN-visible IP watching more media than time allows.
    window_ms = _collection_window_ms(dataset)
    media_by_session: Dict[str, float] = {}
    for chunk in dataset.player_chunks:
        media_by_session[chunk.session_id] = (
            media_by_session.get(chunk.session_id, 0.0) + chunk.chunk_duration_ms
        )
    sessions_by_ip: Dict[str, List[str]] = {}
    media_by_ip: Dict[str, float] = {}
    for cdn_session in dataset.cdn_sessions:
        sessions_by_ip.setdefault(cdn_session.client_ip, []).append(cdn_session.session_id)
        media_by_ip[cdn_session.client_ip] = media_by_ip.get(
            cdn_session.client_ip, 0.0
        ) + media_by_session.get(cdn_session.session_id, 0.0)
    if window_ms > 0:
        for ip, media_ms in media_by_ip.items():
            too_many = len(sessions_by_ip[ip]) >= min_sessions_for_mega_ip
            impossible = media_ms > media_budget_factor * window_ms
            if too_many and impossible:
                report.mega_ips.add(ip)
                report.mega_ip_sessions.update(sessions_by_ip[ip])

    removed = (
        report.ip_mismatch_sessions
        | report.ua_mismatch_sessions
        | report.mega_ip_sessions
    )
    kept_ids = [s.session_id for s in dataset.player_sessions if s.session_id not in removed]
    filtered = dataset.filter_sessions(kept_ids)
    report.n_kept_sessions = len(kept_ids)
    return filtered, report
