"""Trace exporters: Chrome-trace JSON and a flat JSONL event log.

**Chrome trace** (:func:`export_chrome_trace`) emits the Trace Event
Format understood by ``chrome://tracing`` and `Perfetto
<https://ui.perfetto.dev>`_: complete (``"ph": "X"``) events for spans,
instant (``"ph": "i"``) events, and metadata (``"ph": "M"``) events
naming the tracks — the host control flow is thread 0 and every
simulated work-group is its own thread, so work-groups render as
parallel tracks whose overlap *is* the schedule.  Passing a
``{name: tracer}`` mapping exports each tracer as a separate process
(e.g. ``simulated`` vs ``vectorized`` runs side by side).  Aggregate
metrics ride along in the top-level ``otherData`` block.

**JSONL** (:func:`export_jsonl`) writes one self-describing JSON object
per line — spans (with depth), instants, then metrics — for ad-hoc
``jq``/pandas processing.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.tracer import HOST_TRACK, Span, Tracer

__all__ = [
    "chrome_trace_events",
    "export_chrome_trace",
    "export_jsonl",
    "validate_chrome_trace",
]

TracerOrMapping = Union[Tracer, Dict[str, Tracer]]


def _track_sort_key(track: str):
    """host first, then work-groups numerically, then anything else."""
    if track == HOST_TRACK:
        return (0, 0, track)
    if track.startswith("wg:"):
        try:
            return (1, int(track.split(":", 1)[1]), track)
        except ValueError:  # pragma: no cover - malformed custom track
            pass
    return (2, 0, track)


def _track_label(track: str) -> str:
    return "host" if track == HOST_TRACK else track.replace(":", " ")


def _span_end(sp: Span, fallback: float) -> float:
    return sp.end_us if sp.end_us is not None else fallback


def _sanitize(value):
    """Coerce a value into strict-JSON primitives, recursively, so every
    export, bundle and event-log line serializes: non-finite floats
    become ``None`` (``NaN``/``Infinity`` are not JSON and corrupt
    viewers), NumPy scalars their Python value, anything else its
    ``repr``."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _sanitize(item())
        except Exception:  # pragma: no cover - exotic array-likes
            pass
    return repr(value)


def chrome_trace_events(tracer: Tracer, *, pid: int = 0,
                        process_name: Optional[str] = None) -> List[dict]:
    """Flatten one tracer into a list of Chrome trace events.

    Metadata events are always emitted (even for a tracer that recorded
    nothing) so an empty trace still validates and opens in a viewer.
    """
    events: List[dict] = []
    events.append({"name": "process_name", "ph": "M", "pid": pid,
                   "tid": 0, "args": {"name": process_name or "trace"}})
    tracks = sorted(tracer.tracks, key=_track_sort_key)
    tids = {track: i for i, track in enumerate(tracks)}
    for track, tid in tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": _track_label(track)}})
        events.append({"name": "thread_sort_index", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"sort_index": tid}})
    # A span left open (e.g. a deadlock unwound the launch) is closed at
    # the tracer's latest observed timestamp so the export stays valid.
    latest = 0.0
    for _, sp, _ in tracer.iter_spans():
        if sp.end_us is not None:
            latest = max(latest, sp.end_us)
        latest = max(latest, sp.start_us)
    for track, sp, _ in tracer.iter_spans():
        end = _span_end(sp, latest)
        # Round the *endpoints* (not ts and dur independently) so spans
        # that share an edge stay exactly adjacent after rounding.
        ts = round(sp.start_us, 3)
        events.append({
            "name": sp.name, "cat": sp.cat, "ph": "X",
            "ts": ts,
            "dur": max(0.0, round(end, 3) - ts),
            "pid": pid, "tid": tids[track],
            "args": _sanitize(sp.args or {}),
        })
    for ev in tracer.instants:
        events.append({
            "name": ev["name"], "cat": ev["cat"], "ph": "i", "s": "t",
            "ts": round(ev["ts_us"], 3),
            "pid": pid, "tid": tids.get(ev["track"], 0),
            "args": _sanitize(ev["args"] or {}),
        })
    return events


def export_chrome_trace(tracers: TracerOrMapping,
                        path: Optional[Union[str, Path]] = None) -> dict:
    """Build (and optionally write) a Chrome-trace JSON document."""
    if isinstance(tracers, Tracer):
        tracers = {"trace": tracers}
    events: List[dict] = []
    metrics: Dict[str, List[dict]] = {}
    for pid, (name, tracer) in enumerate(tracers.items()):
        events.extend(chrome_trace_events(tracer, pid=pid, process_name=name))
        metrics[name] = _sanitize(tracer.metrics.to_dicts())
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "metrics": metrics,
        },
    }
    if path is not None:
        Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True,
                                         allow_nan=False) + "\n")
    return doc


def export_jsonl(tracer: Tracer,
                 path: Optional[Union[str, Path]] = None) -> List[dict]:
    """Flatten one tracer into JSONL records (written when ``path``)."""
    records: List[dict] = []
    latest = 0.0
    for _, sp, _ in tracer.iter_spans():
        latest = max(latest, sp.start_us,
                     sp.end_us if sp.end_us is not None else 0.0)
    for track, sp, depth in tracer.iter_spans():
        # Spans left open at export time are closed at the tracer's
        # latest observed timestamp, mirroring the Chrome exporter.
        end = _span_end(sp, latest)
        record = {
            "type": "span", "name": sp.name, "cat": sp.cat, "track": track,
            "depth": depth, "ts_us": round(sp.start_us, 3),
            "dur_us": round(max(0.0, end - sp.start_us), 3),
            "args": _sanitize(sp.args or {}),
        }
        if sp.end_us is None:
            record["unclosed"] = True
        records.append(record)
    for ev in tracer.instants:
        records.append({
            "type": "instant", "name": ev["name"], "cat": ev["cat"],
            "track": ev["track"], "ts_us": round(ev["ts_us"], 3),
            "args": _sanitize(ev["args"] or {}),
        })
    records.extend(_sanitize(tracer.metrics.to_dicts()))
    if path is not None:
        Path(path).write_text(
            "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n"
                    for r in records))
    return records


def validate_chrome_trace(doc: dict) -> None:
    """Structural validation of a Chrome-trace document (raises
    ``ValueError``); used by the golden-file tests and ``--check``."""
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("not a Chrome-trace document: missing 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty list")
    open_stacks: Dict[tuple, List[tuple]] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"event {i} ({ev.get('name')!r}) lacks {key!r}")
        ph = ev["ph"]
        if ph not in ("X", "i", "M", "C"):
            raise ValueError(f"event {i} has unsupported phase {ph!r}")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event {i} ({ev['name']!r}) has bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"event {i} ({ev['name']!r}) has bad dur {dur!r}")
            open_stacks.setdefault((ev["pid"], ev["tid"]), []).append(
                (ts, ts + dur, ev["name"]))
    # Complete events on one thread must nest: no partial overlap.
    for (pid, tid), spans in open_stacks.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack: List[tuple] = []
        for start, end, name in spans:
            while stack and start >= stack[-1][1] - 1e-6:
                stack.pop()
            if stack and end > stack[-1][1] + 1e-6:
                raise ValueError(
                    f"span {name!r} on pid={pid} tid={tid} partially "
                    f"overlaps {stack[-1][2]!r} — spans must nest")
            stack.append((start, end, name))
