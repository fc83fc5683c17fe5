"""Playback buffer with rebuffering accounting.

§2.1, playout phase: "As a chunk is downloaded, it is added to the playback
buffer.  If the playback buffer does not contain enough data, the player
pauses and waits for sufficient data; in case of an already playing video,
this causes a rebuffering event."

The buffer operates on the chunk-arrival timeline: the player appends media
as chunks complete and the model tracks where the playhead would be in real
time, charging any stall to the chunk that was being waited for (that is
how the paper attributes ``bufcount``/``bufdur`` per chunk).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..obs.registry import MetricsRegistry

__all__ = ["PlaybackBuffer"]


@dataclass
class PlaybackBuffer:
    """Chunk-granularity playback buffer model.

    The player calls :meth:`on_chunk_ready` for every chunk in order.
    Playback starts when the first chunk is complete (startup); afterwards
    the buffer drains at 1 media-ms per wall-ms.  If a chunk arrives after
    the buffer ran dry, the dry interval is one rebuffer event charged to
    that chunk: :meth:`on_chunk_ready` returns it, and ``client.rebuffer_*``
    counts it (in a private registry when ``metrics`` is None).
    """

    #: media time buffered ahead of the playhead, in ms
    level_ms: float = 0.0
    started: bool = False
    metrics: Optional[MetricsRegistry] = field(
        default=None, repr=False, compare=False
    )
    _last_update_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.metrics is None:
            self.metrics = MetricsRegistry()
        self._m_rebuffers = self.metrics.counter("client.rebuffer_events_total")
        self._m_rebuffer_ms = self.metrics.histogram("client.rebuffer_ms")

    def on_chunk_ready(self, chunk_index: int, media_ms: float, now_ms: float) -> Tuple[int, float]:
        """Append *media_ms* of content completing at *now_ms*.

        Returns ``(rebuffer_count, rebuffer_ms)`` charged to this chunk —
        zero for the first chunk, whose waiting time is startup delay, not
        rebuffering (the paper keeps the two metrics separate).
        """
        if media_ms <= 0:
            raise ValueError("media_ms must be positive")
        if self._last_update_ms is not None and now_ms < self._last_update_ms:
            raise ValueError("chunks must arrive in nondecreasing time order")

        rebuffer_count = 0
        rebuffer_ms = 0.0
        if not self.started:
            self.started = True
        else:
            previous = self._last_update_ms if self._last_update_ms is not None else now_ms
            elapsed = now_ms - previous
            if elapsed >= self.level_ms:
                # The buffer ran dry before this chunk arrived.
                stall = elapsed - self.level_ms
                if stall > 0:
                    rebuffer_count = 1
                    rebuffer_ms = stall
                    self._m_rebuffers.inc()
                    self._m_rebuffer_ms.observe(stall)
                self.level_ms = 0.0
            else:
                self.level_ms -= elapsed
        self.level_ms += media_ms
        self._last_update_ms = now_ms
        return rebuffer_count, rebuffer_ms

    def level_at(self, now_ms: float) -> float:
        """Buffered media remaining at wall time *now_ms* (>= last chunk)."""
        if self._last_update_ms is None:
            return 0.0
        if now_ms < self._last_update_ms:
            raise ValueError("cannot query the past")
        if not self.started:
            return self.level_ms
        return max(0.0, self.level_ms - (now_ms - self._last_update_ms))
