"""Trace analyzer: critical-path and lifecycle decomposition of traces.

Consumes what the exporters and the flight recorder produce — a
Chrome-trace JSON file, a flat JSONL log, or an incident bundle
directory — and reconstructs the structure the paper's argument rests
on: *where the time inside one launch went*.  For every kernel launch
of the event-level simulator it decomposes each work-group's share of
the launch wall into

``load | reduce | spin (sync_wait) | sync-overhead | store | idle``

where *idle* is the remainder (time the group was resident but not in
any phase: dispatch skew, scheduler interleaving), so the decomposition
sums to the launch wall by construction — the ±1% acceptance check in
``make analyze-smoke`` guards the bookkeeping, not the arithmetic.  It
also attributes spin time along the Figure 7 adjacent-synchronization
chain ("wg 37 spent 61% of the launch in sync_wait on wg 36").

A vectorized launch has no work-groups to time.  It records two host
phases under its launch span — ``movement`` (the whole-array gathers
and stores) and ``accounting`` (counters and side structures) — and the
analyzer reports those, plus ``other`` for the rest of the launch wall
(span bookkeeping); ``--check`` flags host phases that exceed the wall.

For serve traces it breaks each request's lifecycle into
queue-wait → batch-window → plan → execute → finalize stages.

Entry points: :func:`load_trace` + :func:`analyze` for programmatic
use, :func:`main` behind ``python -m repro analyze``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ReproError

__all__ = ["load_trace", "analyze", "analyze_tracer", "check_report",
           "render_text", "main"]

# Top-level kernel phases, in pipeline order.  `scan` nests inside
# `store`/`reduce` and `sync_wait` nests inside `sync`; both are
# reported but excluded from the top-level sum to avoid double counting.
PHASES = ("load", "reduce", "sync", "store")

# Host phases a vectorized launch records under its launch span.
HOST_PHASES = ("movement", "accounting")

_EPS_US = 0.01  # endpoint rounding slack (exporters round to 3 decimals)


class _Span:
    """One flattened complete event, viewer-agnostic."""

    __slots__ = ("name", "cat", "ts", "dur", "tid", "args", "unclosed")

    def __init__(self, name, cat, ts, dur, tid, args, unclosed=False):
        self.name = name
        self.cat = cat
        self.ts = float(ts)
        self.dur = float(dur)
        self.tid = tid
        self.args = args or {}
        self.unclosed = unclosed

    @property
    def end(self) -> float:
        return self.ts + self.dur


class _Process:
    __slots__ = ("name", "threads", "spans")

    def __init__(self, name: str) -> None:
        self.name = name
        self.threads: Dict[int, str] = {}
        self.spans: List[_Span] = []

    def thread_spans(self, tid) -> List[_Span]:
        return [sp for sp in self.spans if sp.tid == tid]


def _norm_track(label: str) -> str:
    """Normalize a thread label to canonical track form (``wg:3``,
    ``serve:req7``, ``host``) — the Chrome exporter renders ``:`` as a
    space for readability, the flight recorder keeps it."""
    label = str(label)
    if " " in label and ":" not in label:
        head, rest = label.split(" ", 1)
        return f"{head}:{rest}"
    return label


def _parse_chrome(doc: dict) -> Dict[int, _Process]:
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ReproError("not a Chrome-trace document: missing 'traceEvents'")
    procs: Dict[int, _Process] = {}
    for ev in events:
        pid = ev.get("pid", 0)
        proc = procs.setdefault(pid, _Process(f"pid{pid}"))
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "process_name":
                proc.name = ev["args"]["name"]
            elif ev.get("name") == "thread_name":
                proc.threads[ev.get("tid", 0)] = _norm_track(
                    ev["args"]["name"])
        elif ph == "X":
            proc.spans.append(_Span(ev.get("name"), ev.get("cat", ""),
                                    ev.get("ts", 0.0), ev.get("dur", 0.0),
                                    ev.get("tid", 0), ev.get("args")))
    return procs


def _parse_jsonl(lines: List[dict]) -> Dict[int, _Process]:
    proc = _Process("trace")
    tids: Dict[str, int] = {}
    for rec in lines:
        if rec.get("type") != "span":
            continue
        track = _norm_track(rec.get("track", "host"))
        tid = tids.setdefault(track, len(tids))
        proc.threads[tid] = track
        proc.spans.append(_Span(rec.get("name"), rec.get("cat", ""),
                                rec.get("ts_us", 0.0), rec.get("dur_us", 0.0),
                                tid, rec.get("args"),
                                unclosed=bool(rec.get("unclosed"))))
    return {0: proc}


def load_trace(path: Union[str, Path]) -> dict:
    """Load a trace source into ``{"processes": ..., "manifest": ...}``.

    Accepts a Chrome-trace ``.json``, a flat ``.jsonl`` log, or an
    incident-bundle directory (``trace.json`` + ``manifest.json``).
    """
    path = Path(path)
    if not path.exists():
        raise ReproError(f"trace source {path} does not exist")
    manifest = None
    if path.is_dir():
        trace_file = path / "trace.json"
        manifest_file = path / "manifest.json"
        if not trace_file.exists():
            raise ReproError(
                f"{path} is not an incident bundle (no trace.json)")
        if manifest_file.exists():
            manifest = json.loads(manifest_file.read_text())
        procs = _parse_chrome(json.loads(trace_file.read_text()))
        kind = "bundle"
    elif path.suffix == ".jsonl":
        lines = [json.loads(line)
                 for line in path.read_text().splitlines() if line.strip()]
        procs = _parse_jsonl(lines)
        kind = "jsonl"
    else:
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and doc.get("kind") == "repro-fleet-stats":
            # A fleet health snapshot (python -m repro fleet --stats-out)
            # is not a trace; it carries the cluster rollup directly.
            return {"source": str(path), "kind": "fleet-stats",
                    "processes": {}, "manifest": None, "fleet": doc}
        procs = _parse_chrome(doc)
        kind = "chrome"
    return {"source": str(path), "kind": kind,
            "processes": procs, "manifest": manifest}


# -- launch decomposition ------------------------------------------------------


def _contained(sp: _Span, lo: float, hi: float) -> bool:
    return sp.ts >= lo - _EPS_US and sp.end <= hi + _EPS_US


def _analyze_launch(proc: _Process, launch: _Span) -> dict:
    wg_tids = {tid: track for tid, track in proc.threads.items()
               if track.startswith("wg:")}
    workgroups = []
    for tid, track in sorted(wg_tids.items(), key=lambda kv: kv[0]):
        spans = [sp for sp in proc.thread_spans(tid)
                 if _contained(sp, launch.ts, launch.end)]
        if not spans:
            continue
        by_phase = {ph: 0.0 for ph in PHASES}
        scan_us = 0.0
        spin_us = 0.0
        waits_on = None
        wg_id = None
        for sp in spans:
            if sp.cat == "phase" and sp.name in by_phase:
                by_phase[sp.name] += sp.dur
                if sp.name == "sync" and "wg_id" in sp.args:
                    wg_id = sp.args["wg_id"]
            elif sp.cat == "phase" and sp.name == "scan":
                scan_us += sp.dur
            elif sp.cat == "sched" and sp.name == "sync_wait":
                spin_us += sp.dur
                if sp.args.get("waits_on") is not None:
                    waits_on = sp.args["waits_on"]
        wall = launch.dur
        covered = sum(by_phase.values())
        spin_us = min(spin_us, by_phase["sync"])
        sync_other = max(0.0, by_phase["sync"] - spin_us)
        idle = max(0.0, wall - covered)
        total = covered + idle
        if wg_id is None:
            wg_id = int(track.split(":", 1)[1])
        workgroups.append({
            "track": track, "wg_id": wg_id,
            "load_us": by_phase["load"], "reduce_us": by_phase["reduce"],
            "spin_us": spin_us, "sync_other_us": sync_other,
            "store_us": by_phase["store"], "scan_us": scan_us,
            "idle_us": idle, "sum_us": total, "wall_us": wall,
            "sum_ratio": (total / wall) if wall > 0 else 1.0,
            "spin_share": (spin_us / wall) if wall > 0 else 0.0,
            "waits_on": waits_on,
        })
    host_phases = None
    if not workgroups:
        host_phases = {ph: 0.0 for ph in HOST_PHASES}
        for sp in proc.thread_spans(launch.tid):
            if (sp.cat == "phase" and sp.name in host_phases
                    and _contained(sp, launch.ts, launch.end)):
                host_phases[sp.name] += sp.dur
        host_phases["other"] = max(
            0.0, launch.dur - sum(host_phases.values()))
    totals = {key: sum(w[f"{key}_us"] for w in workgroups)
              for key in ("load", "reduce", "spin", "sync_other",
                          "store", "idle")}
    grand = sum(totals.values()) or 1.0
    top = max(workgroups, key=lambda w: w["spin_share"], default=None)
    chain = sorted((w["wg_id"], w["waits_on"]) for w in workgroups
                   if w["waits_on"] is not None)
    return {
        "name": launch.name,
        "backend": launch.args.get("backend"),
        "wall_us": launch.dur,
        "args": launch.args,
        "n_workgroups": len(workgroups),
        "workgroups": workgroups,
        "host_phases": host_phases,
        "totals": totals,
        "shares": {k: v / grand for k, v in totals.items()},
        "top_spinner": (None if top is None or top["spin_us"] <= 0.0 else {
            "wg_id": top["wg_id"], "spin_share": top["spin_share"],
            "spin_us": top["spin_us"], "waits_on": top["waits_on"]}),
        "sync_chain": chain,
    }


# -- stream pipeline decomposition ---------------------------------------------

# Per-shard stage spans the streaming engine emits (cat="stream") on
# ``shard:<k>`` tracks, in pipeline order.
_STREAM_STAGES = ("load", "compute", "store")


def _analyze_stream(proc: _Process) -> Optional[dict]:
    """Aggregate the streaming engine's per-shard stage spans.

    Each shard of a :func:`repro.stream.engine.stream_run` emits
    ``stream.load`` / ``stream.compute`` / ``stream.store`` spans on its
    own ``shard:<k>`` track; this reduces them to a per-shard
    load/compute/store table plus aggregate shares, so ``python -m
    repro analyze`` attributes where a stream pipeline's time went.
    Returns ``None`` when the trace has no stream spans.
    """
    shards = []
    for tid, track in sorted(proc.threads.items(), key=lambda kv: kv[0]):
        if not track.startswith("shard:"):
            continue
        stages = {st: 0.0 for st in _STREAM_STAGES}
        n_spans = 0
        for sp in proc.thread_spans(tid):
            if sp.cat != "stream" or not sp.name.startswith("stream."):
                continue
            stage = sp.name[len("stream."):]
            if stage in stages:
                stages[stage] += sp.dur
                n_spans += 1
        if n_spans == 0:
            continue
        try:
            shard_id: object = int(track[len("shard:"):])
        except ValueError:
            shard_id = track[len("shard:"):]
        shards.append({
            "track": track, "shard": shard_id, "n_spans": n_spans,
            **{f"{st}_us": stages[st] for st in _STREAM_STAGES},
            "total_us": sum(stages.values()),
        })
    if not shards:
        return None
    shards.sort(key=lambda s: (isinstance(s["shard"], str), s["shard"]))
    totals = {st: sum(s[f"{st}_us"] for s in shards)
              for st in _STREAM_STAGES}
    grand = sum(totals.values()) or 1.0
    runs = [sp for sp in proc.spans if sp.name == "stream.run"]
    return {
        "n_shards": len(shards),
        "shards": shards,
        "totals": totals,
        "shares": {st: totals[st] / grand for st in _STREAM_STAGES},
        "run_wall_us": sum(sp.dur for sp in runs),
        "n_runs": len(runs),
    }


# -- serve lifecycle -----------------------------------------------------------

# Request stages in lifecycle order; whatever subset a trace carries is
# rendered in this order.
_STAGE_ORDER = ("queued", "batch_window", "plan", "execute", "verify",
                "finalize")


def _analyze_requests(proc: _Process) -> List[dict]:
    requests = []
    for tid, track in sorted(proc.threads.items(), key=lambda kv: kv[0]):
        if not track.startswith("serve:req"):
            continue
        spans = proc.thread_spans(tid)
        root = next((sp for sp in spans if sp.name == "serve.request"), None)
        if root is None:
            continue
        stages = {}
        for sp in spans:
            if sp is root or not sp.name.startswith("serve."):
                continue
            stage = sp.name[len("serve."):]
            stages[stage] = stages.get(stage, 0.0) + sp.dur
        try:
            request_id = int(track[len("serve:req"):])
        except ValueError:
            request_id = track[len("serve:req"):]
        requests.append({
            "request_id": root.args.get("request_id", request_id),
            "track": track,
            "state": root.args.get("state"),
            "ops": root.args.get("ops"),
            "error": root.args.get("error"),
            "wall_us": root.dur,
            "stages": {s: stages[s] for s in _STAGE_ORDER if s in stages},
            "other_stages": {s: d for s, d in sorted(stages.items())
                             if s not in _STAGE_ORDER},
        })
    return requests


def _analyze_fleet_requests(procs: Dict[int, _Process]) -> List[dict]:
    """Cross-process critical path for fleet traces.

    A merged fleet trace (:func:`repro.obs.distrib.merge_fleet_trace`)
    has a ``router`` process whose per-request tracks carry the root
    ``serve.request`` plus ``route`` / ``transport`` / ``worker`` /
    ``response`` segments tiling the request wall, and worker processes
    whose own ``serve.request`` roots carry the same ``trace_id``.
    This joins the two views: the router-side segments decompose the
    end-to-end wall (they sum to it by construction — the ±2%
    ``--check`` clause guards the bookkeeping), and the worker-side
    stage spans break the ``worker`` segment into batch-window / plan /
    execute / finalize.  ``worker_overhang_us`` is how far the worker's
    ``serve.request`` reaches outside the router's ``worker`` segment:
    0 when both processes stamp one clock.
    """
    router = next((procs[pid] for pid in sorted(procs)
                   if procs[pid].name == "router"), None)
    if router is None:
        return []
    worker_roots: Dict[str, list] = {}
    for pid in sorted(procs):
        proc = procs[pid]
        if proc is router:
            continue
        for tid, track in sorted(proc.threads.items()):
            if not track.startswith("serve:req"):
                continue
            spans = proc.thread_spans(tid)
            root = next((sp for sp in spans
                         if sp.name == "serve.request"), None)
            if root is None:
                continue
            trace_id = root.args.get("trace_id")
            if trace_id:
                worker_roots.setdefault(trace_id, []).append(
                    (proc, root, spans))
    out = []
    segments = ("route", "transport", "worker", "response")
    for tid, track in sorted(router.threads.items()):
        if not track.startswith("serve:req"):
            continue
        spans = router.thread_spans(tid)
        root = next((sp for sp in spans if sp.name == "serve.request"),
                    None)
        if root is None or not root.args.get("trace_id"):
            continue
        trace_id = root.args["trace_id"]
        segs: Dict[str, float] = {}
        for sp in spans:
            if sp is root or not sp.name.startswith("serve."):
                continue
            seg = sp.name[len("serve."):]
            segs[seg] = segs.get(seg, 0.0) + sp.dur
        if "route" not in segs:
            # A one-lane incident bundle's own serve.request (a traced
            # worker's ring), not one the router synthesized.
            continue
        complete = all(seg in segs for seg in segments)
        covered = sum(segs.get(seg, 0.0) for seg in segments)
        wall = root.dur
        worker_seg = next((sp for sp in spans if sp.name == "serve.worker"),
                          None)
        worker_detail = overhang = None
        for proc, wroot, wspans in worker_roots.get(trace_id, []):
            stages: Dict[str, float] = {}
            for sp in wspans:
                if sp is wroot or not sp.name.startswith("serve."):
                    continue
                stage = sp.name[len("serve."):]
                stages[stage] = stages.get(stage, 0.0) + sp.dur
            worker_detail = {
                "process": proc.name,
                "wall_us": wroot.dur,
                "stages": {s: stages[s] for s in _STAGE_ORDER
                           if s in stages},
            }
            if worker_seg is not None:
                overhang = max(0.0, worker_seg.ts - wroot.ts,
                               wroot.end - worker_seg.end)
            break  # one worker serves one fleet request
        out.append({
            "trace_id": trace_id,
            "request_id": root.args.get("request_id"),
            "worker": root.args.get("worker"),
            "ops": root.args.get("ops"),
            "error": root.args.get("error"),
            "wall_us": wall,
            "path": {seg: segs.get(seg, 0.0) for seg in segments},
            "complete": complete,
            "sum_us": covered,
            "sum_ratio": (covered / wall) if wall > 0 else 1.0,
            "worker_detail": worker_detail,
            "worker_overhang_us": overhang,
        })
    return out


def _manifest_failures(manifest: Optional[dict]) -> List[dict]:
    if not manifest:
        return []
    interesting = []
    for ev in manifest.get("events", []):
        name = str(ev.get("event", ""))
        if name.endswith(("failed", "expired", "rejected", "breach")) \
                or "breaker" in name or "incident" in name:
            interesting.append(ev)
    return interesting


# -- fleet health --------------------------------------------------------------


def _analyze_fleet(doc: dict) -> dict:
    """Digest one fleet-stats snapshot (``python -m repro fleet
    --stats-out``) into the health view the renderer prints: per-worker
    vitals, the merged rollup, ring placement/skew, and the autoscaler
    decision history."""
    rollup = doc.get("rollup", {})
    ring = doc.get("ring", {})
    routing = doc.get("routing", {})
    workers = []
    for wid in sorted(doc.get("workers", {})):
        w = doc["workers"][wid]
        latency = w.get("serve.latency_ms") or {}
        breaker = w.get("breaker") or {}
        open_breakers = sorted(op for op, st in breaker.items()
                               if isinstance(st, dict)
                               and st.get("state") != "closed"
                               or isinstance(st, str) and st != "closed")
        workers.append({
            "worker_id": wid,
            "completed": w.get("serve.completed", 0),
            "queue_depth": w.get("queue_depth", 0),
            "inflight": w.get("inflight", 0),
            "latency_p95_ms": latency.get("p95"),
            "plan_hit_rate": w.get("plan_cache.hit_rate"),
            "warm_keys": w.get("warm_keys", 0),
            "routed": routing.get(wid, 0),
            "ring_keys": (ring.get("loads") or {}).get(wid, 0),
            "open_breakers": open_breakers,
        })
    latency = rollup.get("serve.latency_ms") or {}
    breakers = rollup.get("breaker") or {}
    worst = sorted((op, st.get("state"), st.get("workers"))
                   for op, st in breakers.items()
                   if isinstance(st, dict) and st.get("state") != "closed")
    autoscale = doc.get("autoscale", {})
    return {
        "n_workers": doc.get("n_workers", len(workers)),
        "workers": workers,
        "completed": rollup.get("serve.completed", 0),
        "latency_p50_ms": latency.get("p50"),
        "latency_p95_ms": latency.get("p95"),
        "plan_hit_rate": rollup.get("plan_cache.hit_rate"),
        "queue_depth": rollup.get("queue_depth", 0),
        "inflight": rollup.get("inflight", 0),
        "ring": ring,
        "open_breakers": worst,
        "incidents": (rollup.get("flight") or {}).get("incidents", []),
        "scale_ups": autoscale.get("ups", 0),
        "scale_downs": autoscale.get("downs", 0),
        "decisions": [h for h in autoscale.get("history", [])
                      if h.get("decision")],
        "warm_keys": len(doc.get("warm_keys", [])),
    }


def analyze(loaded: Union[str, Path, dict]) -> dict:
    """Produce the full analysis report (JSON-ready dict) for a trace
    source — a path or the result of :func:`load_trace`."""
    if not isinstance(loaded, dict):
        loaded = load_trace(loaded)
    if loaded.get("kind") == "fleet-stats":
        return {"source": loaded["source"], "kind": "fleet-stats",
                "processes": [], "incident": None,
                "fleet": _analyze_fleet(loaded["fleet"])}
    processes = []
    for pid in sorted(loaded["processes"]):
        proc = loaded["processes"][pid]
        host_tids = [tid for tid, tr in proc.threads.items() if tr == "host"]
        launches = [sp for sp in proc.spans if sp.cat == "launch"
                    and (not host_tids or sp.tid in host_tids)]
        launches.sort(key=lambda sp: sp.ts)
        processes.append({
            "name": proc.name,
            "n_spans": len(proc.spans),
            "launches": [_analyze_launch(proc, sp) for sp in launches],
            "requests": _analyze_requests(proc),
            "stream": _analyze_stream(proc),
        })
    manifest = loaded.get("manifest")
    incident = None
    if manifest is not None:
        incident = {
            "trigger": manifest.get("trigger"),
            "reason": manifest.get("reason"),
            "created": manifest.get("created"),
            "serve_config": manifest.get("serve_config"),
            "ds_config": manifest.get("ds_config"),
            "failures": _manifest_failures(manifest),
            "n_events": manifest.get("n_events"),
        }
    return {"source": loaded["source"], "kind": loaded["kind"],
            "processes": processes, "incident": incident,
            "fleet_requests": _analyze_fleet_requests(
                loaded["processes"])}


def analyze_tracer(tracer, *, name: str = "tracer") -> dict:
    """Analyze a live :class:`~repro.obs.tracer.Tracer` in memory.

    The autotuner's objective needs the launch decomposition of a trial
    it just traced, without a disk round-trip: flatten the tracer to
    Chrome events (the exporter is the one place that knows how to
    close dangling spans), parse them back, and run the standard
    :func:`analyze` over the result.
    """
    from repro.obs.export import chrome_trace_events

    doc = {"traceEvents": chrome_trace_events(tracer, process_name=name)}
    return analyze({"source": f"<{name}>", "kind": "tracer",
                    "processes": _parse_chrome(doc), "manifest": None})


def check_report(report: dict, *, tolerance: float = 0.01,
                 fleet_tolerance: float = 0.02) -> List[str]:
    """The ``make analyze-smoke`` assertions: every work-group's
    decomposition must sum to the launch wall within ``tolerance``,
    spin time can never exceed the wall, a launch's host phases can
    never exceed its wall either, and every complete fleet request's
    cross-process critical path (router queue → transport → worker →
    response) must sum to the request wall within ``fleet_tolerance``,
    with the worker's own ``serve.request`` inside the router's
    ``worker`` segment (a worker on another clock fails this).
    Returns the violations."""
    problems = []
    for req in report.get("fleet_requests") or []:
        if not req.get("complete"):
            continue
        label = f"fleet req {req['request_id']} ({req['trace_id']})"
        if abs(req["sum_ratio"] - 1.0) > fleet_tolerance:
            problems.append(
                f"{label}: cross-process critical path sums to "
                f"{req['sum_ratio']:.4f}x of request wall "
                f"(tolerance {fleet_tolerance:.0%})")
        overhang = req.get("worker_overhang_us")
        if overhang is not None and overhang > _EPS_US:
            problems.append(
                f"{label}: worker serve.request reaches {overhang:.3f}us "
                f"outside the router's serve.worker segment (are the "
                f"processes on one clock?)")
    for proc in report["processes"]:
        for launch in proc["launches"]:
            host = launch["host_phases"]
            if host is not None:
                spent = sum(host[ph] for ph in HOST_PHASES)
                if spent > launch["wall_us"] + _EPS_US:
                    problems.append(
                        f"{proc['name']}/{launch['name']}: host phases "
                        f"{spent:.1f}us exceed launch wall "
                        f"{launch['wall_us']:.1f}us")
            for wg in launch["workgroups"]:
                if abs(wg["sum_ratio"] - 1.0) > tolerance:
                    problems.append(
                        f"{proc['name']}/{launch['name']}/{wg['track']}: "
                        f"decomposition sums to {wg['sum_ratio']:.4f}x "
                        f"of launch wall (tolerance {tolerance:.0%})")
                if wg["spin_us"] > wg["wall_us"] + _EPS_US:
                    problems.append(
                        f"{proc['name']}/{launch['name']}/{wg['track']}: "
                        f"spin {wg['spin_us']:.1f}us exceeds launch wall "
                        f"{wg['wall_us']:.1f}us")
    return problems


# -- rendering -----------------------------------------------------------------


def _pct(x: float) -> str:
    return f"{100.0 * x:4.1f}%"


def _render_fleet(fleet: dict, out: List[str]) -> None:
    p50 = fleet.get("latency_p50_ms")
    p95 = fleet.get("latency_p95_ms")
    hit = fleet.get("plan_hit_rate")
    out.append(
        f"fleet: {fleet['n_workers']} workers, "
        f"{fleet['completed']} completed, "
        f"queue {fleet['queue_depth']} / inflight {fleet['inflight']}")
    out.append(
        "  latency p50 "
        + (f"{p50:.2f} ms" if p50 is not None else "n/a")
        + ", p95 " + (f"{p95:.2f} ms" if p95 is not None else "n/a")
        + ", plan-cache hit rate "
        + (_pct(hit).strip() if hit is not None else "n/a")
        + f", {fleet['warm_keys']} warm keys")
    ring = fleet.get("ring") or {}
    if ring:
        out.append(f"  ring: {ring.get('keys', 0)} keys, skew "
                   f"{ring.get('skew', 0.0):.2f}x mean")
    out.append(f"  autoscaler: {fleet['scale_ups']} scale-ups, "
               f"{fleet['scale_downs']} scale-downs")
    for h in fleet.get("decisions", [])[-6:]:
        out.append(f"    tick {h.get('tick')}: {h.get('decision')} "
                   f"(workers {h.get('n_workers')}, "
                   f"queue {h.get('queue_depth')}, "
                   f"p95 {h.get('p95_ms', 0.0):.1f} ms)")
    for op_chain, state, workers in fleet.get("open_breakers", []):
        out.append(f"  breaker {op_chain}: {state} on "
                   f"{', '.join(workers or [])}")
    for path in fleet.get("incidents", [])[:4]:
        out.append(f"  incident bundle: {path}")
    out.append("  per-worker:")
    for w in fleet.get("workers", []):
        p95w = w.get("latency_p95_ms")
        hitw = w.get("plan_hit_rate")
        flags = (f"  breakers open: {'+'.join(w['open_breakers'])}"
                 if w.get("open_breakers") else "")
        out.append(
            f"    {w['worker_id']:>4}: completed {w['completed']:>5}  "
            f"routed {w['routed']:>5}  ring keys {w['ring_keys']:>3}  "
            f"queue {w['queue_depth']:>3}  "
            f"p95 " + (f"{p95w:8.2f} ms" if p95w is not None
                       else "     n/a") + "  "
            f"hit " + (_pct(hitw).strip() if hitw is not None else "n/a")
            + f"  warm {w['warm_keys']}{flags}")


def render_text(report: dict) -> str:
    out: List[str] = [f"== trace analysis: {report['source']} =="]
    if report.get("fleet") is not None:
        _render_fleet(report["fleet"], out)
        return "\n".join(out)
    inc = report.get("incident")
    if inc:
        out.append(f"incident: trigger={inc['trigger']} "
                   f"created={inc['created']}")
        if inc.get("reason"):
            out.append(f"  reason: {inc['reason']}")
        for ev in inc.get("failures", []):
            detail = " ".join(f"{k}={ev[k]}" for k in
                              ("request_id", "ops", "phase", "error")
                              if ev.get(k) is not None)
            out.append(f"  {ev.get('event')}: {detail}")
    freqs = report.get("fleet_requests") or []
    if freqs:
        out.append(
            f"\nfleet requests ({len(freqs)}; cross-process critical "
            f"path, router clock):")
        for req in freqs:
            path = req["path"]
            pieces = " | ".join(f"{seg} {path[seg]:.0f}us"
                                for seg in ("route", "transport",
                                            "worker", "response"))
            err = f" error={req['error']}" if req.get("error") else ""
            out.append(
                f"  req {req['request_id']} -> {req['worker']} "
                f"{req['ops']}: wall {req['wall_us']:.0f}us :: "
                f"{pieces} (sum/wall {req['sum_ratio']:.3f}){err}")
            detail = req.get("worker_detail")
            if detail and detail.get("stages"):
                stages = " | ".join(f"{name} {dur:.0f}us"
                                    for name, dur
                                    in detail["stages"].items())
                out.append(
                    f"    worker view [{detail['process']}]: wall "
                    f"{detail['wall_us']:.0f}us :: {stages}")
    for proc in report["processes"]:
        out.append(f"\nprocess {proc['name']} ({proc['n_spans']} spans)")
        for launch in proc["launches"]:
            head = (f"  launch {launch['name']} "
                    f"[{launch.get('backend') or '?'}]: "
                    f"wall {launch['wall_us']:.1f} us")
            host = launch["host_phases"]
            if host is not None:
                wall = launch["wall_us"]
                out.append(head)
                out.append("    host: " + " | ".join(
                    f"{ph} {_pct(dur / wall if wall > 0 else 0.0)}"
                    for ph, dur in host.items()))
                continue
            out.append(f"{head}, {launch['n_workgroups']} work-groups")
            shares = launch["shares"]
            out.append(
                "    aggregate: load " + _pct(shares["load"])
                + " | reduce " + _pct(shares["reduce"])
                + " | spin " + _pct(shares["spin"])
                + " | sync " + _pct(shares["sync_other"])
                + " | store " + _pct(shares["store"])
                + " | idle " + _pct(shares["idle"]))
            top = launch.get("top_spinner")
            if top:
                on = (f" on wg {top['waits_on']}"
                      if top.get("waits_on") is not None else "")
                out.append(
                    f"    top spinner: wg {top['wg_id']} spent "
                    f"{_pct(top['spin_share']).strip()} of the launch "
                    f"in sync_wait{on}")
            if launch["sync_chain"]:
                edges = ", ".join(f"{a}<-{b}" for a, b
                                  in launch["sync_chain"][:8])
                more = (f" (+{len(launch['sync_chain']) - 8} more)"
                        if len(launch["sync_chain"]) > 8 else "")
                out.append(f"    sync chain: {edges}{more}")
            for wg in launch["workgroups"]:
                on = (f" waits on wg {wg['waits_on']}"
                      if wg["waits_on"] is not None else "")
                out.append(
                    f"      wg {wg['wg_id']:>3} ({wg['track']}): "
                    f"load {wg['load_us']:8.1f}  "
                    f"reduce {wg['reduce_us']:8.1f}  "
                    f"spin {wg['spin_us']:8.1f} "
                    f"({_pct(wg['spin_share']).strip()})  "
                    f"store {wg['store_us']:8.1f}  "
                    f"idle {wg['idle_us']:8.1f}  "
                    f"sum/wall {wg['sum_ratio']:.3f}{on}")
        stream = proc.get("stream")
        if stream:
            out.append(
                f"  stream pipeline: {stream['n_shards']} shards, "
                f"{stream['n_runs']} run(s), "
                f"wall {stream['run_wall_us']:.1f} us")
            shares = stream["shares"]
            out.append(
                "    aggregate: load " + _pct(shares["load"])
                + " | compute " + _pct(shares["compute"])
                + " | store " + _pct(shares["store"]))
            for sh in stream["shards"]:
                out.append(
                    f"      shard {sh['shard']:>3}: "
                    f"load {sh['load_us']:8.1f}  "
                    f"compute {sh['compute_us']:8.1f}  "
                    f"store {sh['store_us']:8.1f}  "
                    f"total {sh['total_us']:8.1f}")
        if proc["requests"]:
            out.append(f"  serve requests ({len(proc['requests'])}):")
            for req in proc["requests"]:
                stages = dict(req["stages"])
                stages.update(req["other_stages"])
                pipeline = " | ".join(f"{name} {dur:.0f}us"
                                      for name, dur in stages.items())
                err = f" error={req['error']}" if req.get("error") else ""
                out.append(
                    f"    req {req['request_id']} [{req['state']}] "
                    f"{req['ops']}: wall {req['wall_us']:.0f}us"
                    f" :: {pipeline}{err}")
    return "\n".join(out)


# -- CLI -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="Analyze a Chrome trace, JSONL log, or incident "
                    "bundle: per-work-group critical-path decomposition, "
                    "spin attribution along the Figure 7 sync chain, the "
                    "host phases of vectorized launches, and serve "
                    "request lifecycle breakdowns.",
    )
    parser.add_argument("path",
                        help="trace.json, trace.jsonl, or an incident "
                             "bundle directory")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    parser.add_argument("-o", "--output", default=None,
                        help="write the report to a file instead of stdout")
    parser.add_argument("--check", action="store_true",
                        help="assert decomposition invariants (per-wg sum "
                             "within 1%% of launch wall, spin <= wall, "
                             "host phases <= wall); non-zero exit on "
                             "violation")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = analyze(args.path)
    except (OSError, ValueError, ReproError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    text = (json.dumps(report, indent=1, sort_keys=True, allow_nan=False)
            if args.json else render_text(report))
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    if args.check:
        problems = check_report(report)
        if problems:
            for problem in problems:
                print(f"CHECK FAILED: {problem}", file=sys.stderr)
            return 1
        n_launches = sum(len(p["launches"]) for p in report["processes"])
        print(f"check ok: {n_launches} launches, all decompositions "
              f"within 1% of launch wall")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
