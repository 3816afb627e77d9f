"""Unit tests for repro.obs.distrib: the flight recorder as a worker's
span ring, fork-safe span ids, and the fleet trace merger."""

from __future__ import annotations

import multiprocessing as mp

import pytest

from repro.obs.distrib import (TraceContext, merge_fleet_trace,
                               router_process_name, span_to_dict,
                               worker_process_name)
from repro.obs.export import validate_chrome_trace
from repro.obs.flight import FlightRecorder
from repro.obs.tracer import Span, new_span_id


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
    """Golden 2-worker merge: pid lanes, span-id args and parents come
    out exactly as specified, and every timestamp is copied unshifted
    (all processes stamp one clock)."""
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
    out = tmp_path / "merged.json"
    doc = merge_fleet_trace(router, workers, path=out)
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
    assert spans["a-1"]["ts"] == pytest.approx(40.0)
    assert spans["a-1"]["dur"] == pytest.approx(10.0)
    assert spans["a-1"]["args"]["parent_span_id"] == "r-1"
    assert spans["b-1"]["ts"] == pytest.approx(300.0)
    assert doc["otherData"] == {"generator": "repro.obs.distrib"}


def test_span_to_dict_rounding_matches_exporter():
    sp = _span("k", 10.00049, 12.00051)
    d = span_to_dict(sp)
    assert d["ts_us"] == pytest.approx(10.0)
    assert d["ts_us"] + d["dur_us"] == pytest.approx(12.001)
    assert d["span_id"] == sp.span_id
