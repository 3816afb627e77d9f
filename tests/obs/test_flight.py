"""Flight recorder: bounded ring, span-sink feed, incident bundles."""

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.obs.export import validate_chrome_trace
from repro.obs.flight import FlightRecorder, TRIGGERS
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, tracing


class FakeClock:
    def __init__(self):
        self.ns = 0

    def __call__(self):
        return self.ns

    def tick(self, us: float):
        self.ns += int(us * 1000)


class TestRing:
    def test_event_ring_is_bounded(self):
        fr = FlightRecorder(capacity=4)
        for i in range(10):
            fr.record_event("serve.admit", request_id=i)
        events = fr.events()
        assert len(events) == 4
        assert [e["request_id"] for e in events] == [6, 7, 8, 9]

    def test_events_carry_timestamp_and_name(self):
        fr = FlightRecorder(capacity=8)
        fr.record_event("serve.dispatch", batch_size=3)
        (ev,) = fr.events()
        assert ev["event"] == "serve.dispatch"
        assert ev["batch_size"] == 3
        assert ev["ts_us"] >= 0.0

    def test_event_log_mirrors_every_event_as_jsonl(self, tmp_path):
        path = tmp_path / "logs" / "events.jsonl"
        fr = FlightRecorder(capacity=2, event_log=path)
        for i in range(5):
            fr.record_event("serve.admit", request_id=np.int64(i),
                            wait_ms=float("nan"))
        fr.close()
        fr.record_event("serve.admit", request_id=99)  # ring only now
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        # the ring is bounded, the file keeps every event
        assert [r["request_id"] for r in records] == [0, 1, 2, 3, 4]
        assert len(fr.events()) == 2
        for r in records:
            assert r["event"] == "serve.admit" and r["wait_ms"] is None
            assert r["ts"] > 0 and r["ts_us"] >= 0.0

    def test_event_log_lines_stay_whole_under_threads(self, tmp_path):
        path = tmp_path / "events.jsonl"
        fr = FlightRecorder(capacity=16, event_log=path)

        def emit(worker):
            for i in range(200):
                fr.record_event("tick", worker=worker, i=i)

        threads = [threading.Thread(target=emit, args=(w,))
                   for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        fr.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 800
        assert sorted((r["worker"], r["i"]) for r in map(json.loads, lines)) \
            == [(w, i) for w in range(4) for i in range(200)]

    def test_span_ring_is_bounded(self):
        fr = FlightRecorder(capacity=3)
        clock = FakeClock()
        t = Tracer("spans", clock=clock)
        with fr:
            for i in range(7):
                sp = t.span(f"s{i}", track="host")
                clock.tick(1)
                sp.finish()
        assert [sp.name for sp in fr.spans()] == ["s4", "s5", "s6"]

    def test_sink_installed_only_between_install_uninstall(self):
        fr = FlightRecorder(capacity=8)
        clock = FakeClock()
        t = Tracer("spans", clock=clock)
        t.span("before", track="host").finish()
        fr.install()
        t.span("during", track="host").finish()
        fr.uninstall()
        t.span("after", track="host").finish()
        assert [sp.name for sp in fr.spans()] == ["during"]


class TestOneClock:
    def test_event_between_two_spans_lands_between_them(self, tmp_path):
        # The tracer and the recorder are built 50 ms apart, yet both
        # stamp the one process clock.
        with tracing("spans") as t:
            time.sleep(0.05)
            fr = FlightRecorder(capacity=8, incident_dir=tmp_path).install()
            try:
                with t.span("before"):
                    pass
                fr.record_event("between")
                with t.span("after"):
                    pass
            finally:
                fr.close()
        (before,), (after,) = t.find_spans("before"), t.find_spans("after")
        (event,) = fr.events()
        assert before.end_us <= event["ts_us"] <= after.start_us

        bundle = fr.dump("manual")
        spans = {ev["name"]: ev for ev in json.loads(
            (bundle / "trace.json").read_text())["traceEvents"]
            if ev.get("ph") == "X"}
        (event,) = json.loads(
            (bundle / "manifest.json").read_text())["events"]
        before, after = spans["before"], spans["after"]
        assert round(before["ts"] + before["dur"], 3) <= event["ts_us"] \
            <= after["ts"]


class TestDump:
    def _filled(self):
        fr = FlightRecorder(capacity=16)
        clock = FakeClock()
        t = Tracer("spans", clock=clock)
        with fr:
            sp = t.span("launch[k]", cat="launch", track="host")
            wg = t.span("load", cat="phase", track="wg:0")
            clock.tick(5)
            wg.finish()
            sp.finish()
        fr.record_event("serve.request_failed", request_id=3,
                        ops="ds_stream_compact", phase="execute",
                        error="LaunchError: boom")
        return fr

    def test_bundle_layout_and_trace_validates(self, tmp_path):
        fr = self._filled()
        fr.incident_dir = tmp_path / "incidents"
        bundle = fr.dump("launch_error", reason="retries exhausted")
        assert bundle.parent == tmp_path / "incidents"
        assert "launch_error" in bundle.name
        doc = json.loads((bundle / "trace.json").read_text())
        validate_chrome_trace(doc)
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"launch[k]", "load"} <= names

    def test_manifest_names_trigger_context_and_configs(self, tmp_path):
        from repro.config import DSConfig
        from repro.serve.config import ServeConfig

        fr = self._filled()
        fr.incident_dir = tmp_path
        reg = MetricsRegistry()
        reg.counter("serve.admitted").inc(4)
        bundle = fr.dump(
            "breaker_open", reason="3 consecutive failures",
            metrics=reg, ds_config=DSConfig(),
            serve_config=ServeConfig(slo_ms=5.0),
            context={"request_ids": [3], "ops": "ds_stream_compact",
                     "phase": "execute"})
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["kind"] == "repro-incident-bundle"
        assert manifest["trigger"] == "breaker_open"
        assert manifest["context"]["request_ids"] == [3]
        assert manifest["context"]["phase"] == "execute"
        assert manifest["serve_config"]["slo_ms"] == 5.0
        assert manifest["ds_config"] is not None
        assert any(m["name"] == "serve.admitted" and m["value"] == 4
                   for m in manifest["metrics"])
        failed = [e for e in manifest["events"]
                  if e["event"] == "serve.request_failed"]
        assert failed and failed[0]["request_id"] == 3

    def test_fleet_wide_bundle_adds_a_lane_per_worker(self, tmp_path):
        fr = FlightRecorder(capacity=8, incident_dir=tmp_path)
        fr.add({"name": "serve.request", "cat": "serve",
                "track": "serve:req1", "ts_us": 0.0, "dur_us": 10.0,
                "args": {}, "span_id": "r1"})
        executed = {"name": "serve.execute", "cat": "serve",
                    "track": "serve:req1", "ts_us": 1.0, "dur_us": 2.0,
                    "args": {}, "span_id": "w1"}
        bundle = fr.dump(
            "breaker_open", reason="2 consecutive failures",
            workers={"w0": {"spans": [executed],
                            "events": [{"event": "serve.admit",
                                        "ts_us": 1.0}]},
                     "w1": {"spans": []}},
            scope="fleet", source_worker="w0")
        doc = json.loads((bundle / "trace.json").read_text())
        validate_chrome_trace(doc)
        lanes = {ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev["name"] == "process_name"}
        assert lanes == {"router", "worker w0", "worker w1"}
        (ev,) = [ev for ev in doc["traceEvents"]
                 if ev["name"] == "serve.execute"]
        assert ev["ts"] == 1.0  # one clock: copied unshifted
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["kind"] == "repro-incident-bundle"
        assert (manifest["scope"], manifest["source_worker"]) == \
            ("fleet", "w0")
        assert manifest["n_spans"] == 2
        assert manifest["events"] == [
            {"event": "serve.admit", "ts_us": 1.0, "worker": "w0"}]

    def test_maybe_dump_rate_limits_per_trigger(self, tmp_path):
        fr = FlightRecorder(capacity=4, incident_dir=tmp_path,
                            cooldown_ms=60_000.0)
        fr.record_event("serve.request_expired", request_id=0)
        first = fr.maybe_dump("deadline")
        assert first is not None
        assert fr.maybe_dump("deadline") is None  # same trigger: cooled
        assert fr.maybe_dump("breaker_open") is not None  # distinct
        assert len(fr.dumps) == 2

    def test_dump_counts_and_sequence_numbers(self, tmp_path):
        fr = FlightRecorder(capacity=4, incident_dir=tmp_path)
        a = fr.dump("manual")
        b = fr.dump("manual")
        assert a != b
        assert fr.dumps == [a, b]

    def test_trigger_taxonomy_is_stable(self):
        # docs and the serve layer both key on these literals
        assert set(TRIGGERS) == {"breaker_open", "deadline",
                                 "launch_error", "slo_breach", "manual"}

    def test_numpy_fields_dump_as_plain_numbers(self, tmp_path):
        fr = FlightRecorder(capacity=8, incident_dir=tmp_path)
        fr.record_event("serve.dispatch", batch_size=np.int64(3),
                        wait_ms=np.float32(0.5),
                        request_ids=[np.int64(1), np.int64(2)])
        bundle = fr.dump("manual")
        (ev,) = json.loads((bundle / "manifest.json").read_text())["events"]
        assert ev["batch_size"] == 3 and type(ev["batch_size"]) is int
        assert ev["wait_ms"] == 0.5 and type(ev["wait_ms"]) is float
        assert ev["request_ids"] == [1, 2]

    def test_empty_ring_still_dumps_valid_bundle(self, tmp_path):
        fr = FlightRecorder(capacity=4, incident_dir=tmp_path)
        bundle = fr.dump("manual")
        validate_chrome_trace(
            json.loads((bundle / "trace.json").read_text()))
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["n_spans"] == 0 and manifest["n_events"] == 0


class TestConfigSnapshot:
    def test_non_dataclass_object_falls_back(self, tmp_path):
        class Odd:
            __slots__ = ()

        fr = FlightRecorder(capacity=2, incident_dir=tmp_path)
        bundle = fr.dump("manual", ds_config=Odd())
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert "repr" in manifest["ds_config"]
