"""Distributed tracing across process boundaries: trace-context
propagation, span serialization, clock-offset calibration, and the
merger producing one clock-aligned fleet timeline.

The fleet tier (PR 9) made execution multi-process, which broke the
single-process observability loop: a request's kernel spans die with
the fork, and ``repro analyze`` only sees the router's side.  This
module restores the end-to-end view with four pieces:

* :class:`TraceContext` — the ``trace_id`` / ``parent_span_id`` /
  ``request_id`` triple that rides the shared-memory transport's
  ``meta`` dict (and the stream pool's fork handoff), so spans emitted
  in a worker can be parented under the router's ``serve.request``;
* :func:`span_to_dict` — the small JSON-safe dict a completed span
  crosses the process boundary as.  Each worker's spans live in its
  server's :class:`~repro.obs.flight.FlightRecorder` ring, which
  serializes only when the front door collects a snapshot (on
  response, drain, or incident);
* :func:`calibrate` / :class:`ClockSync` — an NTP-style four-timestamp
  handshake over the fleet's control queues.  ``CLOCK_MONOTONIC`` is
  process-shared on Linux but each tracer's microsecond origin is its
  own construction instant, so the router measures each worker's
  origin offset (min-RTT sample wins; uncertainty = rtt/2) and records
  offset±uncertainty in the merged trace;
* :func:`merge_fleet_trace` — one Chrome-trace document with the
  router as pid 0 and one pid (process lane) per worker, every worker
  timestamp shifted onto the router clock by its calibrated offset.

Span ids come from :func:`repro.obs.tracer.new_span_id`, whose
sequence re-seeds per pid at fork, so merged ids can never collide.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.export import _sanitize, _track_sort_key
from repro.obs.tracer import Span, new_span_id, new_trace_id

__all__ = [
    "TraceContext", "span_to_dict",
    "ClockSync", "calibrate",
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


# -- clock calibration ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ClockSync:
    """One calibrated worker↔router clock relation.

    ``offset_us`` is **router minus worker**: add it to a worker-clock
    microsecond timestamp to place it on the router clock.
    ``uncertainty_us`` is half the best sample's round-trip residual —
    the classic NTP error bound: the true offset lies within
    ``offset ± uncertainty``.
    """

    offset_us: float
    uncertainty_us: float
    rtt_us: float
    n_samples: int

    def to_router_us(self, worker_us: float) -> float:
        return float(worker_us) + self.offset_us

    def to_dict(self) -> dict:
        return {"offset_us": round(self.offset_us, 3),
                "uncertainty_us": round(self.uncertainty_us, 3),
                "rtt_us": round(self.rtt_us, 3),
                "n_samples": int(self.n_samples)}

    @classmethod
    def from_dict(cls, d: Optional[dict]) -> Optional["ClockSync"]:
        if not d:
            return None
        return cls(offset_us=float(d.get("offset_us", 0.0)),
                   uncertainty_us=float(d.get("uncertainty_us", 0.0)),
                   rtt_us=float(d.get("rtt_us", 0.0)),
                   n_samples=int(d.get("n_samples", 0)))


#: One calibration sample: (router_send, worker_recv, worker_send,
#: router_recv) — t0..t3 in the NTP numbering, the first and last on
#: the router clock, the middle pair on the worker clock.
ClockSample = Tuple[float, float, float, float]


def calibrate(samples: Sequence[ClockSample]) -> ClockSync:
    """NTP-style offset from four-timestamp exchange samples.

    Per sample: ``theta = ((t1-t0) + (t2-t3)) / 2`` estimates
    worker-minus-router, and ``rtt = (t3-t0) - (t2-t1)`` is the
    network (queue) residual.  The min-RTT sample wins — it is the
    exchange least polluted by queueing — and its ``rtt/2`` bounds the
    remaining asymmetry error.
    """
    if not samples:
        raise ValueError("calibrate() needs at least one sample")
    best_rtt = best_theta = None
    for t0, t1, t2, t3 in samples:
        rtt = (float(t3) - float(t0)) - (float(t2) - float(t1))
        theta = ((float(t1) - float(t0)) + (float(t2) - float(t3))) / 2.0
        if best_rtt is None or rtt < best_rtt:
            best_rtt, best_theta = rtt, theta
    return ClockSync(offset_us=-best_theta,
                     uncertainty_us=max(0.0, best_rtt / 2.0),
                     rtt_us=max(0.0, best_rtt),
                     n_samples=len(samples))


# -- the merger ----------------------------------------------------------------


def router_process_name() -> str:
    return "router"


def worker_process_name(worker_id: Union[int, str]) -> str:
    return f"worker {worker_id}"


def _emit_process(events: List[dict], spans: Iterable[dict], *, pid: int,
                  process_name: str, offset_us: float,
                  seen: set) -> int:
    """Append one process lane (metadata + shifted X events) for one
    span-dict collection; returns how many spans were emitted after
    span-id dedup."""
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
        # Shift *endpoints* by the calibrated offset and re-derive the
        # duration, so sibling/parent edges that were consistent on the
        # worker clock stay consistent on the router clock.
        ts = round(float(d["ts_us"]) + offset_us, 3)
        end = round(float(d["ts_us"]) + float(d["dur_us"]) + offset_us, 3)
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
                      clock_syncs: Optional[Dict] = None,
                      path: Optional[Union[str, Path]] = None,
                      extra: Optional[dict] = None) -> dict:
    """Merge router + per-worker span-dict collections into one
    Chrome-trace document (optionally written to ``path``).

    The router is pid 0 on its own clock; each worker gets the next
    pid and has every timestamp shifted by its :class:`ClockSync`
    offset (identity when no sync is known — e.g. a worker that died
    before calibration).  Spans are deduped by ``span_id`` so the same
    ring collected twice (response + incident) merges cleanly.
    Negative post-shift timestamps are clamped to zero by rebasing the
    whole document, keeping the validator's ``ts >= 0`` invariant.
    """
    clock_syncs = clock_syncs or {}
    events: List[dict] = []
    seen: set = set()
    sync_meta: Dict[str, dict] = {}
    _emit_process(events, router_spans, pid=0,
                  process_name=router_process_name(), offset_us=0.0,
                  seen=seen)
    for pid, wid in enumerate(sorted(worker_spans, key=str), start=1):
        sync = clock_syncs.get(wid)
        if isinstance(sync, dict):
            sync = ClockSync.from_dict(sync)
        off = sync.offset_us if sync is not None else 0.0
        _emit_process(events, worker_spans[wid], pid=pid,
                      process_name=worker_process_name(wid),
                      offset_us=off, seen=seen)
        sync_meta[str(wid)] = (sync.to_dict() if sync is not None
                               else {"offset_us": 0.0,
                                     "uncertainty_us": None,
                                     "rtt_us": None, "n_samples": 0})
    # Rebase so the earliest event sits at ts 0 (offsets can push a
    # worker's early spans before the router origin).
    floor = min((ev["ts"] for ev in events if ev.get("ph") == "X"),
                default=0.0)
    if floor < 0.0:
        for ev in events:
            if ev.get("ph") in ("X", "i"):
                ev["ts"] = round(ev["ts"] - floor, 3)
    other = {"generator": "repro.obs.distrib",
             "clock_sync": sync_meta}
    if floor < 0.0:
        other["rebased_us"] = round(-floor, 3)
    if extra:
        other.update(_sanitize(dict(extra)))
    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": other}
    if path is not None:
        Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True,
                                         allow_nan=False) + "\n")
    return doc
