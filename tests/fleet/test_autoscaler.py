"""Autoscaler policy: hysteresis streaks, cooldown freezes and the
pool-size bounds, tick by deterministic tick."""

from repro.fleet.autoscaler import Autoscaler, TickSnapshot
from repro.fleet.config import FleetConfig


def _cfg(**kw):
    base = dict(n_workers=1, min_workers=1, max_workers=4,
                queue_high=8, queue_low=1, p95_high_ms=250.0,
                up_after=2, down_after=3, cooldown_ticks=2)
    base.update(kw)
    return FleetConfig(**base)


def _pressured(n_workers=1):
    # queue at exactly queue_high * n_workers counts as pressure.
    return TickSnapshot(n_workers=n_workers, queue_depth=8 * n_workers,
                        inflight=8 * n_workers, p95_ms=0.0,
                        completed_delta=5)


def _idle(n_workers=2):
    return TickSnapshot(n_workers=n_workers, queue_depth=0, inflight=0,
                        p95_ms=1.0, completed_delta=0)


def _busy(n_workers=1):
    return TickSnapshot(n_workers=n_workers, queue_depth=2, inflight=3,
                        p95_ms=10.0, completed_delta=7)


class TestScaleUp:
    def test_requires_consecutive_pressured_ticks(self):
        scaler = Autoscaler(_cfg(up_after=2))
        assert scaler.observe(_pressured()) is None
        assert scaler.observe(_pressured()) == "up"

    def test_streak_resets_on_a_calm_tick(self):
        scaler = Autoscaler(_cfg(up_after=2))
        assert scaler.observe(_pressured()) is None
        assert scaler.observe(_busy()) is None
        assert scaler.observe(_pressured()) is None  # streak restarted

    def test_p95_alone_is_pressure(self):
        scaler = Autoscaler(_cfg(up_after=1, p95_high_ms=100.0))
        snap = TickSnapshot(n_workers=1, queue_depth=0, inflight=1,
                            p95_ms=150.0, completed_delta=3)
        assert scaler.observe(snap) == "up"

    def test_inflight_backlog_is_pressure_with_an_empty_queue(self):
        # A burst the batcher already grouped leaves queue_depth near 0;
        # the backlog shows up as in-flight work.
        scaler = Autoscaler(_cfg(up_after=1, n_workers=2))
        snap = TickSnapshot(n_workers=2, queue_depth=0, inflight=8 * 2,
                            p95_ms=0.0, completed_delta=5)
        assert scaler.observe(snap) == "up"
        assert scaler.history[-1]["pressured"] is True

    def test_never_exceeds_max_workers(self):
        scaler = Autoscaler(_cfg(up_after=1, cooldown_ticks=0,
                                 max_workers=2))
        assert scaler.observe(_pressured(n_workers=2)) is None


class TestScaleDown:
    def test_requires_consecutive_idle_ticks(self):
        scaler = Autoscaler(_cfg(n_workers=2, down_after=3))
        assert scaler.observe(_idle()) is None
        assert scaler.observe(_idle()) is None
        assert scaler.observe(_idle()) == "down"

    def test_completions_block_idleness(self):
        scaler = Autoscaler(_cfg(n_workers=2, down_after=1))
        snap = TickSnapshot(n_workers=2, queue_depth=0, inflight=0,
                            p95_ms=1.0, completed_delta=4)
        assert scaler.observe(snap) is None

    def test_never_drops_below_min_workers(self):
        scaler = Autoscaler(_cfg(down_after=1, cooldown_ticks=0))
        for _ in range(5):
            assert scaler.observe(_idle(n_workers=1)) is None


class TestCooldown:
    def test_cooldown_freezes_both_streaks(self):
        scaler = Autoscaler(_cfg(up_after=2, cooldown_ticks=2))
        scaler.observe(_pressured())
        assert scaler.observe(_pressured()) == "up"
        # Two cooldown ticks: pressure keeps arriving but nothing fires
        # and no streak accumulates behind the scenes.
        assert scaler.observe(_pressured(n_workers=2)) is None
        assert scaler.observe(_pressured(n_workers=2)) is None
        # Fresh evidence is required after the cooldown expires.
        assert scaler.observe(_pressured(n_workers=2)) is None
        assert scaler.observe(_pressured(n_workers=2)) == "up"


class TestHistory:
    def test_every_tick_is_logged_with_an_index(self):
        scaler = Autoscaler(_cfg(up_after=2))
        scaler.observe(_busy())
        scaler.observe(_pressured())
        scaler.observe(_pressured())
        assert [h["tick"] for h in scaler.history] == [0, 1, 2]
        assert [h["decision"] for h in scaler.history] == [None, None, "up"]
        assert scaler.history[1]["pressured"] is True
        assert scaler.history[0]["idle"] is False
