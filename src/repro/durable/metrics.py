"""Checkpoint/recovery counters, surfaced through ``GLOBAL_METRICS``.

One process-wide :class:`DurableMetrics` instance counts everything
the durable layer does — sweep chunks journaled and resumed, points
resumed, service journal entries replayed — and registers itself as
the ``"durable"`` provider of :data:`repro.obs.GLOBAL_METRICS` the
first time any counter moves, so ``repro-mcast ... --stats`` and the
service's stats endpoint see recovery activity next to cache and
service metrics.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["DURABLE_METRICS", "DurableMetrics"]

_COUNTERS = (
    "chunks_journaled",
    "chunks_resumed",
    "points_resumed",
    "journal_entries_recovered",
)


class DurableMetrics:
    """Thread-safe counters for checkpoint and recovery events."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {name: 0 for name in _COUNTERS}

    def inc(self, name: str, by: int = 1) -> None:
        """Add ``by`` to counter ``name`` (a :data:`_COUNTERS` member)."""
        if name not in self._counts:
            raise KeyError(f"unknown durable counter {name!r}")
        with self._lock:
            self._counts[name] += by
        self._ensure_registered()

    def snapshot(self) -> Dict[str, int]:
        """Current counter values as a plain dict."""
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        """Zero every counter (test isolation)."""
        with self._lock:
            for name in self._counts:
                self._counts[name] = 0

    def _ensure_registered(self) -> None:
        # Registered on every increment, not once: GLOBAL_METRICS.reset()
        # (the test-isolation hook) drops runtime providers, and the next
        # counter movement must re-announce us.  The import is lazy
        # because obs pulls in this package's atomic writer; importing
        # obs at module top would be circular.
        from ..obs.metrics import GLOBAL_METRICS

        GLOBAL_METRICS.register("durable", self.snapshot)


#: The process-wide durable-layer counters.
DURABLE_METRICS = DurableMetrics()
