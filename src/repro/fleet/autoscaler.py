"""Hysteresis autoscaling policy for the fleet worker pool.

Pure decision logic, deliberately separated from the process machinery
in :class:`repro.fleet.Fleet` so it can be unit-tested tick by tick.
Each tick the fleet hands :meth:`Autoscaler.observe` one aggregated
:class:`TickSnapshot`; the policy answers ``"up"``, ``"down"`` or
``None``.

Both directions require *consecutive* evidence (``up_after`` pressured
ticks, ``down_after`` idle ticks) and every action is followed by
``cooldown_ticks`` of enforced inaction — one queue burst grows the
pool once, not once per tick, and a momentary lull never drains a
worker that is about to be needed again.

The two directions read different signals on purpose:

* **up** looks at *instantaneous pressure* — mean in-flight requests
  per worker and the fleet p95 — because backlog and tail latency are
  what an under-provisioned pool shows.  The backlog is ``inflight``
  (admitted, not finished), not ``queue_depth``: by the time a tick's
  stats probe is answered, the batcher has already grouped a burst into
  batches, so the burst shows up as in-flight work while the ungrouped
  queue reads near zero;
* **down** looks at *work rate* — completions since the previous tick
  (a counter delta, because cumulative histograms never fall) plus a
  shallow queue — because an over-provisioned pool shows idleness, not
  low latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = ["Autoscaler", "TickSnapshot"]


@dataclass(frozen=True)
class TickSnapshot:
    """One tick's aggregated fleet observation."""

    n_workers: int
    queue_depth: int        # fleet-wide queued requests
    inflight: int           # fleet-wide queued + executing
    p95_ms: float           # fleet p95 latency (max over workers)
    completed_delta: int    # completions since the previous tick


class Autoscaler:
    """Tick-driven scale-up/-down policy with hysteresis.

    Parameters come from :class:`repro.fleet.config.FleetConfig`
    (``queue_high``, ``queue_low``, ``p95_high_ms``, ``up_after``,
    ``down_after``, ``cooldown_ticks``, ``min_workers``,
    ``max_workers``).
    """

    def __init__(self, config) -> None:
        self.config = config
        self._up_streak = 0
        self._down_streak = 0
        self._cooldown = 0
        #: decision log for ``Fleet.stats()`` / the analyze report.
        self.history: List[dict] = []

    def observe(self, snap: TickSnapshot) -> Optional[str]:
        """Consume one tick; return ``"up"``, ``"down"`` or ``None``.

        The caller is responsible for actually growing/draining the
        pool; this object only decides.
        """
        cfg = self.config
        decision: Optional[str] = None
        pressured = (
            snap.inflight >= cfg.queue_high * max(1, snap.n_workers)
            or snap.p95_ms >= cfg.p95_high_ms)
        idle = (snap.completed_delta <= 0
                and snap.queue_depth <= cfg.queue_low
                and snap.inflight <= cfg.queue_low)
        if self._cooldown > 0:
            self._cooldown -= 1
            # Streaks freeze during cooldown: evidence gathered while
            # the last action is still settling is not trustworthy.
            self._up_streak = 0
            self._down_streak = 0
        else:
            self._up_streak = self._up_streak + 1 if pressured else 0
            self._down_streak = self._down_streak + 1 if idle else 0
            if (self._up_streak >= cfg.up_after
                    and snap.n_workers < cfg.max_workers):
                decision = "up"
            elif (self._down_streak >= cfg.down_after
                    and snap.n_workers > cfg.min_workers):
                decision = "down"
            if decision is not None:
                self._up_streak = 0
                self._down_streak = 0
                self._cooldown = cfg.cooldown_ticks
        self.history.append({
            "tick": len(self.history),
            "n_workers": snap.n_workers,
            "queue_depth": snap.queue_depth,
            "inflight": snap.inflight,
            "p95_ms": round(float(snap.p95_ms), 3),
            "completed_delta": snap.completed_delta,
            "pressured": pressured,
            "idle": idle,
            "decision": decision,
        })
        return decision

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Autoscaler(up_streak={self._up_streak}, "
                f"down_streak={self._down_streak}, "
                f"cooldown={self._cooldown})")
