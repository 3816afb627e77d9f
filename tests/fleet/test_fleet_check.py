"""``run_fleet_check``'s report accounting, driven through an
in-process stand-in for the fleet so the run is deterministic (no
forks, no autoscaler timing)."""

import pytest

import repro.fleet.loadgen as fleet_loadgen
from repro.serve.server import Server


class InProcessFleet:
    """The slice of :class:`repro.fleet.Fleet` the check uses, served
    by one in-process :class:`Server`: the burst tick grows, the next
    one drains, and no incident bundle or trace is produced."""

    n_workers = 1
    fleet_incidents = ["no-such-bundle"]

    def __init__(self, config, ds_config=None):
        self.server = Server(config.serve, ds_config=ds_config)
        self.ticks = iter(["up", "down"])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.server.close()

    def prime(self, ops, values):
        self.server.prime(ops, values)

    def worker_stats(self):
        return {"w0": self.server.stats()}

    def submit_chain(self, ops, values, deadline_ms=None):
        return self.server.submit_chain(ops, values,
                                        deadline_ms=deadline_ms)

    def autoscale_tick(self):
        return next(self.ticks, None)

    def record_profile(self, **fields):
        pass

    def set_fault(self, mode):
        pass

    def dump_trace(self, path=None):
        return {}

    def stats(self):
        return {"ring": {"skew": 1.0, "keys": 40},
                "autoscale": {"ups": 1, "downs": 1},
                "rollup": {"flight": {"incidents": []}}}


def test_fleet_check_reports_the_timed_window_only(monkeypatch):
    # The burst and chaos phases submit acceptance probes after the
    # healthy phase's timed window; counting them against that window's
    # wall time inflated the reported throughput.
    monkeypatch.setattr(fleet_loadgen, "Fleet", InProcessFleet)
    report = fleet_loadgen.run_fleet_check(clients=2, requests_per_client=3)
    assert report.requests == report.completed == 6
    assert report.wrong == report.failed == 0
    assert report.throughput_rps == pytest.approx(
        report.completed / report.wall_s)
