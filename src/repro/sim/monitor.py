"""Time-series statistics for simulations.

:class:`LevelMonitor` tracks a piecewise-constant integer level over
time (e.g. NI buffer occupancy) and reports its maximum and
time-weighted average.  This is how the FCFS-vs-FPFS buffer claim
(paper §3.3.2) is measured rather than merely asserted.  Packet-level
event records are :class:`repro.obs.Tracer` spans, emitted by the NI
engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment


@dataclass
class LevelMonitor:
    """Tracks an integer level over simulated time.

    Call :meth:`change` whenever the level moves; the monitor integrates
    level × time between changes.  ``finalize`` closes the last interval.
    The averaging window starts at the monitor's *creation* time — a
    monitor created mid-simulation averages over ``[start, end]``, not
    ``[0, end]``.
    """

    env: "Environment"
    level: int = 0
    peak: int = 0
    _area: float = 0.0
    _last_change: float = field(default=0.0)
    _started_at: float = field(default=0.0)
    _finalized_at: Optional[float] = None

    def __post_init__(self) -> None:
        self._last_change = self.env.now
        self._started_at = self.env.now

    def change(self, delta: int) -> None:
        """Adjust the level by ``delta`` at the current time."""
        now = self.env.now
        self._area += self.level * (now - self._last_change)
        self._last_change = now
        self.level += delta
        if self.level < 0:
            raise ValueError(f"level went negative ({self.level}) at t={now}")
        if self.level > self.peak:
            self.peak = self.level

    def backdate(self, start: float) -> None:
        """Open the averaging window at ``start``, before the monitor existed.

        For a monitor created late on a level that was 0 all along (an
        NI built mid-run): its average then covers the same window as
        those of its peers created at ``start``.
        """
        if self.level or self._area:
            raise ValueError("only a monitor whose level has not moved can be backdated")
        self._started_at = self._last_change = start

    def finalize(self) -> None:
        """Close the integration window at the current time."""
        now = self.env.now
        self._area += self.level * (now - self._last_change)
        self._last_change = now
        self._finalized_at = now

    @property
    def time_average(self) -> float:
        """Time-weighted mean level over [creation, last change/finalize]."""
        end = self._finalized_at if self._finalized_at is not None else self._last_change
        window = end - self._started_at
        return self._area / window if window > 0 else 0.0
