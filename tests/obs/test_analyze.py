"""Trace analyzer: decomposition arithmetic, spin attribution, the host
phases of vectorized launches, serve lifecycle stages, incident bundles
and the CLI."""

import json
import re

import numpy as np
import pytest

from repro import obs
from repro.obs.analyze import (
    analyze,
    analyze_tracer,
    check_report,
    load_trace,
    main,
    render_text,
)
from repro.obs.distrib import merge_fleet_trace
from repro.obs.export import export_chrome_trace, export_jsonl
from repro.obs.flight import FlightRecorder
from repro.obs.tracer import Tracer
from repro.primitives import ds_stream_compact
from repro.tune.objective import spin_idle_share


class FakeClock:
    def __init__(self):
        self.ns = 0

    def __call__(self):
        return self.ns

    def tick(self, us: float):
        self.ns += int(us * 1000)


def synthetic_launch_tracer():
    """One launch, one work-group, hand-placed phases so every number
    in the decomposition is known exactly:

    load 10us | sync 5us (spin 4us, waits on wg 0) | store 5us -> wall 20us
    """
    clock = FakeClock()
    t = Tracer("full", clock=clock)
    launch = t.span("ds_regular[k]", cat="launch",
                    args={"backend": "simulated"})
    ld = t.span("load", cat="phase", track="wg:0")
    clock.tick(10)
    ld.finish()
    sy = t.span("sync", cat="phase", track="wg:0", args={"wg_id": 1})
    sw = t.span("sync_wait", cat="sched", track="wg:0",
                args={"waits_on": 0})
    clock.tick(4)
    sw.finish()
    clock.tick(1)
    sy.finish()
    st = t.span("store", cat="phase", track="wg:0")
    clock.tick(5)
    st.finish()
    launch.finish()
    return t


class TestLaunchDecomposition:
    @pytest.fixture
    def report(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome_trace(synthetic_launch_tracer(), path)
        return analyze(str(path))

    def test_exact_phase_attribution(self, report):
        (launch,) = report["processes"][0]["launches"]
        assert launch["wall_us"] == pytest.approx(20.0)
        (wg,) = launch["workgroups"]
        assert wg["load_us"] == pytest.approx(10.0)
        assert wg["spin_us"] == pytest.approx(4.0)
        assert wg["store_us"] == pytest.approx(5.0)
        assert wg["idle_us"] == pytest.approx(0.0)

    def test_decomposition_sums_to_wall(self, report):
        (launch,) = report["processes"][0]["launches"]
        (wg,) = launch["workgroups"]
        assert wg["sum_ratio"] == pytest.approx(1.0, abs=0.01)
        assert check_report(report) == []

    def test_spin_attribution_names_predecessor(self, report):
        (launch,) = report["processes"][0]["launches"]
        top = launch["top_spinner"]
        assert top["wg_id"] == 1 and top["waits_on"] == 0
        assert top["spin_us"] == pytest.approx(4.0)
        assert top["spin_share"] == pytest.approx(4.0 / 20.0)
        assert [list(edge) for edge in launch["sync_chain"]] == [[1, 0]]

    def test_check_flags_spin_exceeding_wall(self, report):
        (launch,) = report["processes"][0]["launches"]
        launch["workgroups"][0]["spin_us"] = launch["wall_us"] * 2
        assert any("spin" in p for p in check_report(report))

    def test_check_flags_bad_sum(self, report):
        report["processes"][0]["launches"][0]["workgroups"][0][
            "sum_ratio"] = 1.5
        assert check_report(report)


class TestRealTraceBothBackends:
    @pytest.mark.parametrize("backend", ["simulated", "vectorized"])
    def test_compact_decomposition_within_one_percent(
            self, backend, tmp_path, rng):
        from repro.config import DSConfig
        x = rng.integers(0, 3, 512).astype(np.float64)
        with obs.tracing("full") as tracer:
            ds_stream_compact(x, 0.0, config=DSConfig(backend=backend))
        path = tmp_path / "trace.json"
        export_chrome_trace(tracer, path)
        report = analyze(str(path))
        launches = report["processes"][0]["launches"]
        assert launches, "no launch spans in the trace"
        assert check_report(report) == []
        for launch in launches:
            host = launch["host_phases"]
            if backend == "vectorized":
                assert not launch["workgroups"]
                assert set(host) == {"movement", "accounting", "other"}
                assert host["movement"] > 0 and host["accounting"] > 0
                assert sum(host.values()) == pytest.approx(
                    launch["wall_us"], rel=0.01)
            else:
                assert launch["workgroups"] and host is None
            for wg in launch["workgroups"]:
                assert wg["sum_ratio"] == pytest.approx(1.0, abs=0.01)


def traced_vectorized_compact(n, **config):
    from repro.config import DSConfig
    x = np.random.default_rng(5).integers(0, 3, n).astype(np.float32)
    with obs.tracing("spans") as tracer:
        ds_stream_compact(x, 0.0, config=DSConfig(backend="vectorized",
                                                  **config))
    return tracer


class TestHostPhases:
    """A vectorized launch is reported by the host phases it recorded."""

    def test_text_report_prints_one_host_line(self):
        text = render_text(analyze_tracer(traced_vectorized_compact(4096)))
        (host_line,) = [line.strip() for line in text.splitlines()
                        if line.strip().startswith("host:")]
        assert re.fullmatch(r"host: movement +[\d.]+% \| "
                            r"accounting +[\d.]+% \| other +[\d.]+%",
                            host_line)
        assert "aggregate" not in text and "work-groups" not in text

    def test_check_flags_host_phases_exceeding_wall(self):
        report = analyze_tracer(traced_vectorized_compact(4096))
        assert check_report(report) == []
        (launch,) = report["processes"][0]["launches"]
        launch["host_phases"]["accounting"] = launch["wall_us"]
        assert any("host phases" in p for p in check_report(report))

    @pytest.mark.parametrize("wg_size", [64, 1024])
    def test_tuner_tie_break_reads_no_spin_or_idle(self, wg_size):
        tracer = traced_vectorized_compact(1 << 16, wg_size=wg_size,
                                           coarsening=1)
        assert spin_idle_share(analyze_tracer(tracer)) == 0.0


class TestServeLifecycle:
    def test_request_stages_in_order(self, tmp_path):
        clock = FakeClock()
        t = Tracer("spans", clock=clock)
        clock.tick(100)
        root = t.add_span("serve.request", track="serve:req7", cat="serve",
                          start_us=0.0, end_us=90.0,
                          args={"request_id": 7, "state": "done",
                                "ops": "ds_stream_compact"})
        t.add_span("serve.queued", track="serve:req7", cat="serve",
                   start_us=0.0, end_us=10.0, parent=root)
        t.add_span("serve.batch_window", track="serve:req7", cat="serve",
                   start_us=10.0, end_us=30.0, parent=root)
        t.add_span("serve.execute", track="serve:req7", cat="serve",
                   start_us=30.0, end_us=85.0, parent=root)
        t.add_span("serve.finalize", track="serve:req7", cat="serve",
                   start_us=85.0, end_us=90.0, parent=root)
        path = tmp_path / "serve.json"
        export_chrome_trace(t, path)
        report = analyze(str(path))
        (req,) = report["processes"][0]["requests"]
        assert req["request_id"] == 7 and req["state"] == "done"
        assert req["wall_us"] == pytest.approx(90.0)
        assert list(req["stages"]) == ["queued", "batch_window",
                                       "execute", "finalize"]
        assert req["stages"]["execute"] == pytest.approx(55.0)


class TestSources:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_jsonl(synthetic_launch_tracer(), path)
        loaded = load_trace(path)
        assert loaded["kind"] == "jsonl"
        report = analyze(loaded)
        assert check_report(report) == []
        (launch,) = report["processes"][0]["launches"]
        assert launch["workgroups"][0]["spin_us"] == pytest.approx(4.0)

    def test_incident_bundle_reports_failures(self, tmp_path):
        fr = FlightRecorder(capacity=8, incident_dir=tmp_path)
        t = Tracer("spans", clock=FakeClock())
        with fr:
            sp = t.span("launch[k]", cat="launch", track="host")
            sp.finish()
        fr.record_event("serve.request_failed", request_id=11,
                        ops="ds_unique", phase="execute",
                        error="LaunchError: boom")
        bundle = fr.dump("launch_error", reason="retries exhausted")
        report = analyze(str(bundle))
        assert report["kind"] == "bundle"
        assert report["incident"]["trigger"] == "launch_error"
        (failure,) = report["incident"]["failures"]
        assert failure["request_id"] == 11
        assert failure["phase"] == "execute"

    def test_traced_worker_bundle_lists_no_fleet_requests(self, tmp_path):
        # A traced fleet worker's serve.request carries the router's
        # trace id; its one-lane bundle still holds no routed request.
        fr = FlightRecorder(capacity=8, incident_dir=tmp_path)
        fr.add({"name": "serve.request", "cat": "serve",
                "track": "serve:req1", "ts_us": 0.0, "dur_us": 5.0,
                "args": {"trace_id": "t1", "request_id": 1},
                "span_id": "s1"})
        fr.add({"name": "serve.execute", "cat": "serve",
                "track": "serve:req1", "ts_us": 1.0, "dur_us": 3.0,
                "args": {}, "span_id": "s2"})
        report = analyze(str(fr.dump("manual")))
        assert report["fleet_requests"] == []
        (req,) = report["processes"][0]["requests"]
        assert req["stages"] == {"execute": 3.0}

    def test_missing_path_is_an_error(self, tmp_path):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            load_trace(tmp_path / "nope.json")


def _fleet_request(worker_root_us):
    """One merged fleet request: router segments tile [0, 1000] with
    ``serve.worker`` at [200, 800]; the worker's own root spans
    ``worker_root_us``."""
    def span(name, ts, end, sid, **args):
        return {"name": name, "cat": "serve", "track": "serve:req1",
                "ts_us": ts, "dur_us": end - ts, "args": args,
                "span_id": sid}
    router = [span("serve.request", 0.0, 1000.0, "r1", trace_id="t1",
                   request_id=1, worker="w0"),
              span("serve.route", 0.0, 100.0, "r2", trace_id="t1"),
              span("serve.transport", 100.0, 200.0, "r3", trace_id="t1"),
              span("serve.worker", 200.0, 800.0, "r4", trace_id="t1"),
              span("serve.response", 800.0, 1000.0, "r5", trace_id="t1")]
    lo, hi = worker_root_us
    worker = [span("serve.request", lo, hi, "w1", trace_id="t1",
                   parent_span_id="r1", request_id=7)]
    return merge_fleet_trace(router, {"w0": worker})


class TestFleetClockGate:
    @pytest.mark.parametrize("root_us, overhang", [
        ((250.0, 750.0), 0.0),
        # A worker on another epoch draws its spans shifted; here its
        # root ends 50us after the router's serve.worker segment.
        ((250.0, 850.0), 50.0),
    ])
    def test_worker_root_outside_its_segment_is_flagged(
            self, tmp_path, root_us, overhang):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(_fleet_request(root_us)))
        report = analyze(str(path))
        (req,) = report["fleet_requests"]
        assert req["worker_overhang_us"] == pytest.approx(overhang)
        problems = check_report(report)
        assert len(problems) == (1 if overhang else 0)
        assert all("outside the router's serve.worker segment" in p
                   for p in problems)


class TestCli:
    @pytest.fixture
    def trace_path(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome_trace(synthetic_launch_tracer(), path)
        return path

    def test_text_report(self, trace_path, capsys):
        assert main([str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "trace analysis" in out
        assert "spin" in out

    def test_json_report(self, trace_path, capsys):
        assert main([str(trace_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["processes"][0]["launches"]

    def test_check_passes_on_consistent_trace(self, trace_path, capsys):
        assert main([str(trace_path), "--check"]) == 0
        assert "check ok" in capsys.readouterr().out

    def test_output_file(self, trace_path, tmp_path):
        out = tmp_path / "report.json"
        assert main([str(trace_path), "--json", "-o", str(out)]) == 0
        json.loads(out.read_text())

    def test_load_error_exit_code(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.json")]) == 2
