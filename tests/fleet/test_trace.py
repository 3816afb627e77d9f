"""Distributed-tracing integration over a real (small) fleet: trace
context rides the shm transport, router and workers stamp one process
clock, and the merged Chrome trace joins both sides of every request.

Kept to 2 workers and a handful of requests — the heavyweight tracing
acceptance is phase 5 of ``python -m repro fleet --check``.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from repro.errors import ServeError
from repro.fleet import Fleet, FleetConfig
from repro.obs import analyze as obs_analyze
from repro.obs.export import validate_chrome_trace
from repro.serve.config import ServeConfig
from repro.serve.loadgen import make_shape
from repro.stream.pool import fork_unavailable_reason

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        fork_unavailable_reason() is not None,
        reason=f"fork start method unavailable: {fork_unavailable_reason()}"),
]


@pytest.fixture
def fleet():
    f = Fleet(FleetConfig(
        n_workers=2, min_workers=1, max_workers=3,
        tick_interval_s=0.0, trace="full",
        serve=ServeConfig(max_wait_ms=1.0))).start()
    try:
        yield f
    finally:
        f.close()


def _drive(fleet, n_requests=6, seed=11):
    specs = [make_shape(name, 128 + 32 * k, seed=seed)
             for k, name in enumerate(("chain", "compact", "unique"))]
    futures = [fleet.submit_chain(list(spec.ops), spec.array)
               for k in range(n_requests)
               for spec in (specs[k % len(specs)],)]
    for fut, k in zip(futures, range(n_requests)):
        res = fut.result(timeout=60.0)
        assert np.array_equal(res.output,
                              specs[k % len(specs)].expected)
    return futures


class TestFleetTracing:
    def test_merged_trace_joins_router_and_worker_spans(self, fleet,
                                                        tmp_path):
        _drive(fleet)
        out = tmp_path / "fleet-trace.json"
        doc = fleet.dump_trace(path=out)
        validate_chrome_trace(doc)

        spans = [ev for ev in doc["traceEvents"] if ev.get("ph") == "X"]
        by_pid = {}
        for ev in spans:
            by_pid.setdefault(ev["pid"], []).append(ev)
        assert 0 in by_pid and len(by_pid) == 3  # router + 2 workers

        # Every router serve.request root must be continued by a
        # worker-side span carrying the same trace id (the context
        # crossed the fork through the transport meta dict).
        roots = [ev for ev in by_pid[0] if ev["name"] == "serve.request"]
        assert len(roots) == 6
        worker_tids = {ev["args"].get("trace_id")
                       for pid, evs in by_pid.items() if pid != 0
                       for ev in evs}
        for root in roots:
            assert root["args"]["trace_id"] in worker_tids

        # The worker side parents its serve.request under the router's
        # root span id, and kernel-level spans made it across too.
        worker_roots = [ev for pid, evs in by_pid.items() if pid != 0
                        for ev in evs if ev["name"] == "serve.request"]
        root_ids = {ev["args"]["span_id"] for ev in roots}
        assert worker_roots
        for ev in worker_roots:
            assert ev["args"]["parent_span_id"] in root_ids
        worker_cats = {ev["cat"] for pid, evs in by_pid.items()
                       if pid != 0 for ev in evs}
        assert not worker_cats.isdisjoint({"kernel", "pipeline",
                                           "launch", "phase"})

    def test_analyze_decomposes_cross_process_critical_path(
            self, fleet, tmp_path):
        _drive(fleet)
        out = tmp_path / "fleet-trace.json"
        fleet.dump_trace(path=out)
        report = obs_analyze.analyze(str(out))
        requests = report["fleet_requests"]
        assert len(requests) == 6
        joined = [r for r in requests if r["worker_detail"]]
        assert joined
        for req in joined:
            if not req["complete"]:
                continue
            # route + transport + worker + response tile the wall.
            assert req["sum_ratio"] == pytest.approx(1.0, abs=0.02)
        assert obs_analyze.check_report(report) == []

    def test_drain_archives_spans_no_loss(self, fleet, tmp_path):
        futures = _drive(fleet)
        victim = futures[0].worker_id
        drained = fleet.drain(victim)
        assert drained["worker_id"] == victim
        doc = fleet.dump_trace(path=tmp_path / "after-drain.json")
        names = {ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev.get("ph") == "M"
                 and ev["name"] == "process_name"}
        # The drained worker's lane survives through the archived ring.
        assert f"worker {victim}" in names
        spans = [ev for ev in doc["traceEvents"] if ev.get("ph") == "X"]
        assert any(ev["name"] == "serve.execute" for ev in spans)

    def test_stats_expose_trace_block(self, fleet):
        _drive(fleet, n_requests=3)
        trace = fleet.stats()["trace"]
        assert trace["mode"] == "full"
        assert trace["router_spans"] >= 3
        assert trace["fleet_incidents"] == []


class TestOneClock:
    def test_worker_events_follow_their_spans_in_a_fleet_bundle(
            self, tmp_path):
        """A worker's events and spans share the router's clock: in a
        fleet-wide incident bundle, each worker ``serve.request_done``
        event comes at or after the end of the worker ``serve.request``
        span it closes."""
        cfg = FleetConfig(
            n_workers=1, min_workers=1, max_workers=1, tick_interval_s=0.0,
            trace="spans", incident_dir=str(tmp_path),
            serve=ServeConfig(max_wait_ms=1.0, breaker_threshold=2,
                              incident_cooldown_ms=0.0))
        spec = make_shape("compact", 128, seed=5)
        with Fleet(cfg) as fleet:
            for _ in range(3):
                fleet.submit_chain(list(spec.ops),
                                   spec.array).result(timeout=60.0)
            fleet.set_fault("always")
            for _ in range(4):  # trips the worker's breaker
                with contextlib.suppress(ServeError):
                    fleet.submit_chain(list(spec.ops),
                                       spec.array).result(timeout=60.0)
            fleet.set_fault(None)
            deadline = time.monotonic() + 10.0
            while not fleet.fleet_incidents and time.monotonic() < deadline:
                time.sleep(0.05)
            bundles = fleet.fleet_incidents
        assert bundles, "no fleet-wide incident bundle was written"
        doc = json.loads((bundles[0] / "trace.json").read_text())
        manifest = json.loads((bundles[0] / "manifest.json").read_text())
        (worker_pid,) = [ev["pid"] for ev in doc["traceEvents"]
                         if ev["name"] == "process_name"
                         and ev["args"]["name"] == "worker w0"]
        span_end = {ev["args"]["request_id"]: round(ev["ts"] + ev["dur"], 3)
                    for ev in doc["traceEvents"]
                    if ev.get("ph") == "X" and ev["pid"] == worker_pid
                    and ev["name"] == "serve.request"}
        done = [ev for ev in manifest["events"]
                if ev.get("worker") == "w0"
                and ev["event"] == "serve.request_done"
                and ev["request_id"] in span_end]
        assert done
        for ev in done:
            assert ev["ts_us"] >= span_end[ev["request_id"]], ev
