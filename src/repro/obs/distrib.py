"""Distributed tracing across process boundaries: trace-context
propagation, span serialization, and the merger producing one fleet
timeline.

The fleet tier (PR 9) made execution multi-process, which broke the
single-process observability loop: a request's kernel spans die with
the fork, and ``repro analyze`` only sees the router's side.  This
module restores the end-to-end view with three pieces:

* :class:`TraceContext` — the ``trace_id`` / ``parent_span_id`` /
  ``request_id`` triple that rides the shared-memory transport's
  ``meta`` dict (and the stream pool's fork handoff), so spans emitted
  in a worker can be parented under the router's ``serve.request``;
* :func:`span_to_dict` — the small JSON-safe dict a completed span
  crosses the process boundary as.  Each worker's spans live in its
  server's :class:`~repro.obs.flight.FlightRecorder` ring, which
  serializes only when the front door collects a snapshot (on
  response, drain, or incident);
* :func:`merge_fleet_trace` — one Chrome-trace document with the
  router as pid 0 and one pid (process lane) per worker.

No timestamp is shifted: router and workers all stamp the one process
clock (:func:`repro.obs.tracer.now_us`), whose epoch the forked workers
inherit, so a worker span already sits on the router's timebase.

Span ids come from :func:`repro.obs.tracer.new_span_id`, whose
sequence re-seeds per pid at fork, so merged ids can never collide.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.obs.export import _sanitize, _track_sort_key
from repro.obs.tracer import Span, new_span_id, new_trace_id

__all__ = [
    "TraceContext", "span_to_dict",
    "merge_fleet_trace", "router_process_name", "worker_process_name",
]


# -- trace context -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """The correlation triple that crosses a process boundary.

    ``trace_id`` names the end-to-end request; ``parent_span_id`` is
    the span the remote side should parent its root under (the
    router's ``serve.request``); ``request_id`` is the fleet request
    id, kept for log correlation.
    """

    trace_id: str
    parent_span_id: Optional[str] = None
    request_id: Optional[str] = None

    @classmethod
    def new(cls, *, parent_span_id: Optional[str] = None,
            request_id: Optional[str] = None) -> "TraceContext":
        return cls(trace_id=new_trace_id(), parent_span_id=parent_span_id,
                   request_id=request_id)

    def child(self, parent_span_id: str) -> "TraceContext":
        """Same trace, re-parented under ``parent_span_id``."""
        return dataclasses.replace(self, parent_span_id=parent_span_id)

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id,
                "parent_span_id": self.parent_span_id,
                "request_id": self.request_id}

    @classmethod
    def from_dict(cls, d: Optional[dict]) -> Optional["TraceContext"]:
        if not d or not d.get("trace_id"):
            return None
        return cls(trace_id=str(d["trace_id"]),
                   parent_span_id=d.get("parent_span_id"),
                   request_id=d.get("request_id"))


# -- span serialization --------------------------------------------------------


def span_to_dict(sp: Span) -> dict:
    """One span as a flat JSON-safe dict (children are **not** recursed:
    the span-sink hook delivers every span individually).  Endpoint
    rounding matches the Chrome exporter so sibling/parent edges stay
    consistent after the merge."""
    start = float(sp.start_us)
    end = float(sp.end_us if sp.end_us is not None else sp.start_us)
    ts = round(start, 3)
    return {
        "name": sp.name, "cat": sp.cat, "track": sp.track,
        "ts_us": ts, "dur_us": max(0.0, round(end, 3) - ts),
        "args": _sanitize(dict(sp.args)) if sp.args else {},
        "span_id": sp.span_id or new_span_id(),
    }


# -- the merger ----------------------------------------------------------------


def router_process_name() -> str:
    return "router"


def worker_process_name(worker_id: Union[int, str]) -> str:
    return f"worker {worker_id}"


def _emit_process(events: List[dict], spans: Iterable[dict], *, pid: int,
                  process_name: str, seen: set) -> int:
    """Append one process lane (metadata + X events) for one span-dict
    collection; returns how many spans were emitted after span-id
    dedup."""
    spans = [d for d in spans if d]
    fresh: List[dict] = []
    for d in spans:
        sid = d.get("span_id")
        key = (pid, sid) if sid else (pid, id(d))
        if key in seen:
            continue
        seen.add(key)
        fresh.append(d)
    events.append({"name": "process_name", "ph": "M", "pid": pid,
                   "tid": 0, "args": {"name": process_name}})
    events.append({"name": "process_sort_index", "ph": "M", "pid": pid,
                   "tid": 0, "args": {"sort_index": pid}})
    tracks = sorted({d["track"] for d in fresh}, key=_track_sort_key)
    tids = {track: i for i, track in enumerate(tracks)}
    for track, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": track}})
        events.append({"name": "thread_sort_index", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"sort_index": tid}})
    for d in fresh:
        # Round *endpoints* and re-derive the duration, so sibling and
        # parent edges stay consistent (as in span_to_dict).
        ts = round(float(d["ts_us"]), 3)
        end = round(float(d["ts_us"]) + float(d["dur_us"]), 3)
        args = dict(d.get("args") or {})
        if d.get("span_id"):
            args.setdefault("span_id", d["span_id"])
        events.append({
            "name": d["name"], "cat": d.get("cat", "span"), "ph": "X",
            "ts": ts, "dur": max(0.0, end - ts),
            "pid": pid, "tid": tids[d["track"]],
            "args": _sanitize(args),
        })
    return len(fresh)


def merge_fleet_trace(router_spans: Iterable[dict],
                      worker_spans: Dict[Union[int, str], Iterable[dict]],
                      *,
                      path: Optional[Union[str, Path]] = None,
                      extra: Optional[dict] = None) -> dict:
    """Merge router + per-worker span-dict collections into one
    Chrome-trace document (optionally written to ``path``).

    The router is pid 0 and each worker gets the next pid; all of them
    stamp the one process clock, so timestamps are copied as they are.
    Spans are deduped by ``span_id`` so the same ring collected twice
    (response + incident) merges cleanly.
    """
    events: List[dict] = []
    seen: set = set()
    _emit_process(events, router_spans, pid=0,
                  process_name=router_process_name(), seen=seen)
    for pid, wid in enumerate(sorted(worker_spans, key=str), start=1):
        _emit_process(events, worker_spans[wid], pid=pid,
                      process_name=worker_process_name(wid), seen=seen)
    other = {"generator": "repro.obs.distrib"}
    if extra:
        other.update(_sanitize(dict(extra)))
    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": other}
    if path is not None:
        Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True,
                                         allow_nan=False) + "\n")
    return doc
