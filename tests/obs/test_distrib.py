"""Unit tests for repro.obs.distrib: clock calibration, the flight
recorder as a worker's span ring, fork-safe span ids, and the fleet
trace merger."""

from __future__ import annotations

import multiprocessing as mp

import pytest

from repro.obs.distrib import (ClockSync, TraceContext, calibrate,
                               merge_fleet_trace, router_process_name,
                               span_to_dict, worker_process_name)
from repro.obs.export import validate_chrome_trace
from repro.obs.flight import FlightRecorder
from repro.obs.tracer import Span, new_span_id


# -- calibration ---------------------------------------------------------------


def _exchange(router_t, *, skew_us, up_us, down_us, proc_us=5.0):
    """One four-timestamp sample for a worker clock that reads
    ``router clock + skew_us``: t0/t3 on the router clock, t1/t2 on
    the worker clock."""
    t0 = router_t
    t1 = (router_t + up_us) + skew_us
    t2 = t1 + proc_us
    t3 = (t2 - skew_us) + down_us
    return (t0, t1, t2, t3)


@pytest.mark.parametrize("skew_us", [-125_000.0, -7.5, 0.0, 42.0,
                                     3_000_000.0])
def test_calibrate_recovers_injected_skew(skew_us):
    samples = [
        _exchange(1_000.0 * k, skew_us=skew_us,
                  up_us=20.0 + 3.0 * k, down_us=20.0 + 2.0 * k)
        for k in range(8)
    ]
    sync = calibrate(samples)
    # offset_us is router-minus-worker: it undoes the injected skew,
    # within the NTP asymmetry bound rtt/2.
    assert abs(sync.offset_us - (-skew_us)) <= sync.uncertainty_us
    assert sync.n_samples == 8
    worker_now = 500.0 + skew_us
    assert abs(sync.to_router_us(worker_now) - 500.0) \
        <= sync.uncertainty_us


def test_calibrate_min_rtt_sample_wins():
    skew = 10_000.0
    # One clean symmetric exchange and one grossly asymmetric one
    # (a queue stall on the way out would bias theta by ~25ms).
    clean = _exchange(0.0, skew_us=skew, up_us=10.0, down_us=10.0)
    noisy = _exchange(100.0, skew_us=skew, up_us=50_000.0, down_us=10.0)
    sync = calibrate([noisy, clean, noisy])
    assert sync.rtt_us == pytest.approx(20.0)
    assert sync.offset_us == pytest.approx(-skew, abs=sync.uncertainty_us)
    assert sync.uncertainty_us == pytest.approx(10.0)


def test_calibrate_requires_samples():
    with pytest.raises(ValueError):
        calibrate([])


def test_clock_sync_roundtrip():
    sync = ClockSync(offset_us=-123.456, uncertainty_us=7.8,
                     rtt_us=15.6, n_samples=4)
    back = ClockSync.from_dict(sync.to_dict())
    assert back.offset_us == pytest.approx(sync.offset_us, abs=1e-3)
    assert back.n_samples == 4
    assert ClockSync.from_dict(None) is None


# -- trace context -------------------------------------------------------------


def test_trace_context_roundtrip_and_child():
    ctx = TraceContext.new(request_id="req-9")
    child = ctx.child("abc-1")
    assert child.trace_id == ctx.trace_id
    assert child.parent_span_id == "abc-1"
    back = TraceContext.from_dict(child.to_dict())
    assert back == child
    assert TraceContext.from_dict(None) is None
    assert TraceContext.from_dict({"parent_span_id": "x"}) is None


# -- the flight ring as a span ring --------------------------------------------


def _span(name, start, end, track="worker:0", args=None):
    sp = Span(name, "serve", track, start, dict(args or {}), tracer=None)
    sp.end_us = end
    return sp


def test_span_ring_snapshot_is_not_destructive():
    ring = FlightRecorder(capacity=8)
    ring.record_span(_span("a", 0.0, 1.0))
    ring.add({"name": "b", "cat": "serve", "track": "serve:req1",
              "ts_us": 1.0, "dur_us": 1.0, "args": {"ops": "x"},
              "span_id": "router-1"})
    first = ring.span_dicts()
    second = ring.span_dicts()
    assert [d["name"] for d in first] == ["a", "b"]
    assert first == second
    assert first[1]["span_id"] == "router-1"
    assert first[0]["span_id"] == second[0]["span_id"]
    assert len(ring.spans()) == 2


def test_mid_drain_collection_loses_no_spans():
    """A collection racing new spans must never lose a completed span:
    snapshots overlap, and the merger dedupes by span_id."""
    ring = FlightRecorder(capacity=64)
    ring.record_span(_span("early", 0.0, 1.0))
    mid_drain = ring.span_dicts()        # e.g. collected on response
    ring.record_span(_span("late", 2.0, 3.0))
    final = ring.span_dicts()            # e.g. collected on incident
    doc = merge_fleet_trace([], {"w0": mid_drain + final})
    merged = [ev["name"] for ev in doc["traceEvents"]
              if ev.get("ph") == "X"]
    assert sorted(merged) == ["early", "late"]


# -- fork-safe span ids --------------------------------------------------------


def _child_ids(queue, n):
    queue.put([new_span_id() for _ in range(n)])


def test_span_ids_unique_across_forked_processes():
    parent = {new_span_id() for _ in range(50)}
    ctx = mp.get_context()
    queue = ctx.Queue()
    procs = [ctx.Process(target=_child_ids, args=(queue, 50))
             for _ in range(2)]
    for p in procs:
        p.start()
    batches = [queue.get(timeout=30) for _ in procs]
    for p in procs:
        p.join(timeout=30)
    all_ids = list(parent)
    for batch in batches:
        all_ids.extend(batch)
    assert len(all_ids) == len(set(all_ids))


# -- the merger ----------------------------------------------------------------


def _dict_span(name, ts, dur, *, track, span_id, args=None):
    return {"name": name, "cat": "serve", "track": track,
            "ts_us": ts, "dur_us": dur, "args": dict(args or {}),
            "span_id": span_id}


def test_merge_fleet_trace_golden_two_workers(tmp_path):
    """Golden 2-worker merge: pid lanes, calibrated shifts, span-id
    args, and clock_sync metadata all come out exactly as specified."""
    router = [_dict_span("serve.request", 100.0, 50.0,
                         track="serve:req0", span_id="r-1",
                         args={"trace_id": "t1"})]
    workers = {
        "w0": [_dict_span("serve.execute", 40.0, 10.0,
                          track="server", span_id="a-1",
                          args={"trace_id": "t1",
                                "parent_span_id": "r-1"})],
        "w1": [_dict_span("serve.execute", 300.0, 5.0,
                          track="server", span_id="b-1")],
    }
    syncs = {"w0": ClockSync(offset_us=80.0, uncertainty_us=2.0,
                             rtt_us=4.0, n_samples=3),
             "w1": ClockSync(offset_us=-150.0, uncertainty_us=1.0,
                             rtt_us=2.0, n_samples=3)}
    out = tmp_path / "merged.json"
    doc = merge_fleet_trace(router, workers, clock_syncs=syncs, path=out)
    validate_chrome_trace(doc)
    assert out.exists()

    names = {(ev["pid"], ev["args"]["name"])
             for ev in doc["traceEvents"]
             if ev.get("ph") == "M" and ev["name"] == "process_name"}
    assert names == {(0, router_process_name()),
                     (1, worker_process_name("w0")),
                     (2, worker_process_name("w1"))}

    spans = {ev["args"]["span_id"]: ev for ev in doc["traceEvents"]
             if ev.get("ph") == "X"}
    assert set(spans) == {"r-1", "a-1", "b-1"}
    assert spans["r-1"]["ts"] == pytest.approx(100.0)
    # w0 shifted onto the router clock: 40 + 80 = 120.
    assert spans["a-1"]["ts"] == pytest.approx(120.0)
    assert spans["a-1"]["dur"] == pytest.approx(10.0)
    assert spans["a-1"]["args"]["parent_span_id"] == "r-1"
    # w1 shifted back: 300 - 150 = 150.
    assert spans["b-1"]["ts"] == pytest.approx(150.0)

    meta = doc["otherData"]["clock_sync"]
    assert meta["w0"]["offset_us"] == pytest.approx(80.0)
    assert meta["w1"]["offset_us"] == pytest.approx(-150.0)
    assert "rebased_us" not in doc["otherData"]


def test_merge_rebases_negative_timestamps():
    workers = {"w0": [_dict_span("k", 10.0, 5.0, track="t",
                                 span_id="x-1")]}
    syncs = {"w0": ClockSync(offset_us=-100.0, uncertainty_us=1.0,
                             rtt_us=2.0, n_samples=1)}
    doc = merge_fleet_trace(
        [_dict_span("root", 0.0, 20.0, track="r", span_id="r-1")],
        workers, clock_syncs=syncs)
    validate_chrome_trace(doc)
    xs = {ev["args"]["span_id"]: ev["ts"] for ev in doc["traceEvents"]
          if ev.get("ph") == "X"}
    # Floor was -90; everything rebased by +90.
    assert xs["x-1"] == pytest.approx(0.0)
    assert xs["r-1"] == pytest.approx(90.0)
    assert doc["otherData"]["rebased_us"] == pytest.approx(90.0)


def test_merge_accepts_sync_dicts_and_missing_sync():
    workers = {"w0": [_dict_span("k", 10.0, 5.0, track="t",
                                 span_id="x-1")],
               "w1": [_dict_span("k", 10.0, 5.0, track="t",
                                 span_id="y-1")]}
    doc = merge_fleet_trace(
        [], workers,
        clock_syncs={"w0": {"offset_us": 7.0, "uncertainty_us": 1.0,
                            "rtt_us": 2.0, "n_samples": 1}})
    xs = {ev["args"]["span_id"]: ev["ts"] for ev in doc["traceEvents"]
          if ev.get("ph") == "X"}
    assert xs["x-1"] == pytest.approx(17.0)
    assert xs["y-1"] == pytest.approx(10.0)  # identity for missing sync
    assert doc["otherData"]["clock_sync"]["w1"]["n_samples"] == 0


def test_span_to_dict_rounding_matches_exporter():
    sp = _span("k", 10.00049, 12.00051)
    d = span_to_dict(sp)
    assert d["ts_us"] == pytest.approx(10.0)
    assert d["ts_us"] + d["dur_us"] == pytest.approx(12.001)
    assert d["span_id"] == sp.span_id
