"""Serve-layer instrumentation: spans and metrics under ``repro.obs``,
plus the always-on flight recorder and its incident triggers.

With a tracer active, every request must leave a ``serve.request`` span
(with queued/batch_window/execute/finalize children) on its own track,
and the ``serve.*`` metrics must land on the tracer's registry so one
export carries the whole story.  Without a tracer, the flight recorder
still rings lifecycle events and dumps incident bundles that name the
failing request, op chain and phase.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.config import DSConfig
from repro.errors import LaunchError
from repro.serve import ServeConfig, Server


@pytest.fixture
def data(rng):
    return rng.integers(0, 4, 200).astype(np.float64)


def test_request_spans_and_metrics_under_tracing(data):
    with obs.tracing("spans") as tracer:
        with Server(ServeConfig(max_wait_ms=1.0, num_workers=1)) as srv:
            srv.submit("compact", data, 0.0).result(timeout=30)
            srv.submit_chain([("compact", 0.0), "unique"], data) \
               .result(timeout=30)
        assert srv.metrics is tracer.metrics

    spans = [(track, sp) for track, sp, _ in tracer.iter_spans()
             if track.startswith("serve:req")]
    roots = [sp for _, sp in spans if sp.name == "serve.request"]
    assert len(roots) == 2
    for root in roots:
        names = {c.name for c in root.children}
        assert {"serve.queued", "serve.batch_window",
                "serve.execute", "serve.finalize"} <= names
        assert root.args["state"] == "done"
        assert root.args["request_id"] == root.args["id"]
        assert root.end_us >= root.start_us
        # lifecycle children tile the request without overlap
        kids = sorted(root.children, key=lambda c: c.start_us)
        for a, b in zip(kids, kids[1:]):
            assert a.end_us <= b.start_us + 1e-6

    chain_root = next(sp for sp in roots
                      if sp.args["ops"] == "ds_stream_compact+ds_unique")
    assert chain_root.args["degraded"] is False

    counters = {c.name: c.value for c in tracer.metrics
                if c.name.startswith("serve.") and c.kind == "counter"}
    assert counters["serve.admitted"] == 2
    assert counters["serve.completed"] == 2


def test_flight_ring_keeps_both_vectorized_requests(rng):
    # A vectorized launch records its launch span and two host phases
    # whatever its grid, so two 64k-element chain requests, one after
    # the other, leave both request spans in a 256-entry ring.
    data = rng.integers(0, 4, 1 << 16).astype(np.float32)
    with obs.tracing("spans"):
        with Server(ServeConfig(flight_capacity=256),
                    ds_config=DSConfig(backend="vectorized")) as srv:
            for _ in range(2):
                srv.submit_chain([("compact", 0.0), "unique"], data) \
                   .result(timeout=60)
            spans = srv.flight.span_dicts()
    assert sum(sp["name"] == "serve.request" for sp in spans) == 2


def test_no_tracer_no_spans(data):
    # Without obs.tracing the server keeps private metrics and never
    # touches a tracer — the hot path must not require one.
    with Server(ServeConfig(max_wait_ms=1.0, num_workers=1)) as srv:
        srv.submit("compact", data, 0.0).result(timeout=30)
    assert srv.metrics.get("serve.completed").value == 1
    assert obs.active() is None


def test_launch_spans_carry_request_ids(data):
    # End-to-end correlation: the batch's request ids must be threaded
    # through the annotation scope into the launch spans it produced.
    with obs.tracing("spans") as tracer:
        with Server(ServeConfig(max_wait_ms=1.0, num_workers=1)) as srv:
            fut = srv.submit("compact", data, 0.0)
            fut.result(timeout=30)
    launches = [sp for _, sp, _ in tracer.iter_spans()
                if sp.cat == "launch"]
    annotated = [sp for sp in launches if "request_ids" in sp.args]
    assert annotated, "no launch span carried request_ids"
    assert fut.request_id in annotated[0].args["request_ids"]
    assert annotated[0].args["batch_ops"] == "ds_stream_compact"


class TestFlightRecorder:
    def test_ring_records_lifecycle_without_tracer(self, data):
        with Server(ServeConfig(max_wait_ms=1.0, num_workers=1)) as srv:
            srv.submit("compact", data, 0.0).result(timeout=30)
            events = [e["event"] for e in srv.flight.events()]
        assert "serve.admit" in events
        assert "serve.dispatch" in events
        assert "serve.request_done" in events
        assert obs.active() is None

    def test_flight_capacity_zero_disables_recorder(self, data):
        cfg = ServeConfig(max_wait_ms=1.0, num_workers=1,
                          flight_capacity=0)
        with Server(cfg) as srv:
            srv.submit("compact", data, 0.0).result(timeout=30)
            assert srv.flight is None
            assert srv.stats()["flight"] is None

    def test_fault_storm_dumps_one_bundle_naming_the_failure(
            self, data, tmp_path):
        def chaos(batch):
            raise LaunchError("injected by test")

        cfg = ServeConfig(max_wait_ms=1.0, num_workers=1, max_retries=1,
                          breaker_threshold=2,
                          incident_dir=str(tmp_path / "incidents"),
                          incident_cooldown_ms=60_000.0)
        with Server(cfg, fault_hook=chaos) as srv:
            futs = [srv.submit("compact", data, 0.0) for _ in range(3)]
            for fut in futs:
                fut.result(timeout=30)  # degradation still serves them
            dumps = list(srv.flight.dumps)
        assert dumps, "no incident bundle was written"
        manifest = json.loads((dumps[0] / "manifest.json").read_text())
        assert manifest["trigger"] in ("breaker_open", "launch_error")
        ctx = manifest["context"]
        assert ctx["phase"] == "execute"
        assert ctx["ops"] == "ds_stream_compact"
        assert futs[0].request_id in ctx["request_ids"]
        assert manifest["serve_config"]["max_retries"] == 1
        failed = [e for e in manifest["events"]
                  if e["event"] == "serve.fast_path_failed"]
        assert failed and "injected by test" in failed[0]["error"]

    def test_deadline_trigger_names_queue_phase(self, data, tmp_path):
        cfg = ServeConfig(max_wait_ms=1.0, num_workers=1,
                          incident_dir=str(tmp_path))
        srv = Server(cfg, autostart=False)
        fut = srv.submit("compact", data, 0.0, deadline_ms=0.001)
        import time
        time.sleep(0.01)  # expire while staged (server not started)
        srv.start()
        with pytest.raises(Exception):
            fut.result(timeout=30)
        srv.close(drain=True)
        assert srv.flight.dumps
        manifest = json.loads(
            (srv.flight.dumps[0] / "manifest.json").read_text())
        assert manifest["trigger"] == "deadline"
        assert manifest["context"]["phase"] == "queue"
        assert manifest["context"]["request_ids"] == [fut.request_id]

    def test_slo_breach_trigger(self, data, tmp_path):
        cfg = ServeConfig(max_wait_ms=1.0, num_workers=1,
                          slo_ms=0.0001, incident_dir=str(tmp_path))
        with Server(cfg) as srv:
            srv.submit("compact", data, 0.0).result(timeout=30)
        # read after close(): the dump happens in _finalize, which may
        # still be running when the future resolves
        assert srv.metrics.get("serve.slo_breaches").value >= 1
        dumps = list(srv.flight.dumps)
        manifest = json.loads((dumps[0] / "manifest.json").read_text())
        assert manifest["trigger"] == "slo_breach"
        assert manifest["context"]["phase"] == "finalize"

    def test_no_incident_dir_records_but_never_dumps(self, data):
        def chaos(batch):
            raise LaunchError("injected by test")

        cfg = ServeConfig(max_wait_ms=1.0, num_workers=1, max_retries=0,
                          breaker_threshold=1)  # incident_dir=None
        with Server(cfg, fault_hook=chaos) as srv:
            srv.submit("compact", data, 0.0).result(timeout=30)
            events = [e["event"] for e in srv.flight.events()]
            assert "serve.incident_trigger" in events
            assert srv.flight.dumps == []


class TestStats:
    def test_stats_snapshot_shape(self, data):
        with Server(ServeConfig(max_wait_ms=1.0, num_workers=1)) as srv:
            for _ in range(4):
                srv.submit("compact", data, 0.0).result(timeout=30)
            stats = srv.stats()
        lat = stats["serve.latency_ms"]
        assert lat["count"] == 4
        assert lat["p50"] <= lat["p95"] <= lat["p99"]
        assert stats["inflight"] == 0 and stats["queue_depth"] == 0
        assert 0.0 <= stats["plan_cache.hit_rate"] <= 1.0
        assert stats["flight"]["capacity"] == 4096
        assert stats["flight"]["n_events"] > 0


class TestEventLog:
    def test_event_log_file_threads_request_ids(self, data, tmp_path):
        log_path = tmp_path / "serve.log.jsonl"
        cfg = ServeConfig(max_wait_ms=1.0, num_workers=1,
                          event_log=str(log_path))
        with Server(cfg) as srv:
            fut = srv.submit("compact", data, 0.0)
            fut.result(timeout=30)
        records = [json.loads(line)
                   for line in log_path.read_text().splitlines()]
        events = {r["event"] for r in records}
        assert {"serve.admit", "serve.dispatch",
                "serve.request_done", "launch.done"} <= events
        # one grep by request_id follows the request across layers
        mine = [r for r in records
                if r.get("request_id") == fut.request_id
                or fut.request_id in (r.get("request_ids") or [])]
        kinds = {r["event"] for r in mine}
        assert {"serve.admit", "serve.dispatch", "launch.done",
                "serve.request_done"} <= kinds

    def test_two_servers_keep_their_own_logs(self, data, tmp_path):
        # Each server's recorder owns its file: a second server in the
        # same process must not take over (or close) the first's log.
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        servers = [Server(ServeConfig(max_wait_ms=1.0, num_workers=1,
                                      event_log=str(path)))
                   for path in paths]
        try:
            futs = [srv.submit("compact", data, 0.0) for srv in servers]
            for fut in futs:
                fut.result(timeout=30)
        finally:
            for srv in servers:
                srv.close()
        for srv, path, fut in zip(servers, paths, futs):
            records = [json.loads(line)
                       for line in path.read_text().splitlines()]
            admitted = [r["request_id"] for r in records
                        if r["event"] == "serve.admit"]
            assert admitted == [fut.request_id]
            # the file mirrors that server's ring, line for event
            assert sorted(r["event"] for r in records) == sorted(
                e["event"] for e in srv.flight.events())
            for r in records:
                assert {"ts", "ts_us", "event"} <= set(r)

    def test_launch_done_reaches_the_incident_bundle(self, data, tmp_path):
        # launch.done is recorded before the batch's requests finalize,
        # so the SLO-breach bundle of a request holds its own launches.
        cfg = ServeConfig(max_wait_ms=1.0, num_workers=1, slo_ms=0.0001,
                          incident_dir=str(tmp_path))
        with Server(cfg) as srv:
            fut = srv.submit_chain([("compact", 0.0), "unique"], data)
            result = fut.result(timeout=30)
        manifest = json.loads(
            (srv.flight.dumps[0] / "manifest.json").read_text())
        assert manifest["trigger"] == "slo_breach"
        launches = [e for e in manifest["events"]
                    if e["event"] == "launch.done"]
        assert len(launches) == result.num_launches > 0
        for ev in launches:
            assert ev["request_ids"] == [fut.request_id]
            assert ev["batch_ops"] == "ds_stream_compact+ds_unique"
            assert ev["grid_size"] > 0 and ev["wg_size"] > 0
            assert ev["bytes_moved"] > 0 and ev["kernel"]
