"""Flight recorder: an always-on ring of recent spans + events with
dump-on-trigger incident bundles.

Full tracing is too heavy to leave enabled in a serving process, but
when a circuit breaker opens or a deadline expires, the question is
always *what were the kernels doing right before this* — and by then it
is too late to turn tracing on.  The flight recorder closes that gap
the way an aircraft FDR does: it continuously records into a bounded
ring (O(1) per record, old entries evicted) and only materializes
anything when a **trigger** fires.

Two feeds fill the ring:

* **spans** — when a tracer is active, every completed span arrives via
  the :func:`repro.obs.tracer.add_span_sink` hook (the recorder stores
  the span object; one ``deque.append`` per span, serialization waits
  for a snapshot).  A fleet router, which has no tracer of its own,
  appends the span dicts it synthesizes with :meth:`~FlightRecorder.add`
  instead;
* **events** — layers call :meth:`FlightRecorder.record_event` directly
  (serve admission/dispatch/completion, the launches a batch ran),
  which works with *no* tracer installed — this is the cheap always-on
  path the serve layer relies on.

The event feed is the process's one event stream.  Given an
``event_log`` path, the recorder also appends every event to that file
as one JSON object per line (``ts`` wall-clock epoch seconds, ``ts_us``
on the process clock, ``event``, then the event's fields), so one
``grep`` by ``request_id`` follows a request across layers without a
dump.  Each recorder owns its file: two servers in one process write
two logs.

Events, cooldowns and default-clock spans all stamp the one process
clock (:func:`repro.obs.tracer.now_us`), which forked fleet workers
inherit, so a bundle's events and spans share one timebase: an event
recorded between two spans lands between them.

The same ring is a fleet worker's span ring: the front door collects
:meth:`~FlightRecorder.span_dicts` snapshots on response, drain or
incident.  Snapshots are never destructive, so a collection racing new
spans cannot lose one; the merger dedupes by ``span_id`` instead.

:meth:`dump` snapshots the ring into a timestamped **incident bundle**:
a directory holding ``trace.json`` (Chrome trace of the ringed spans
from :func:`repro.obs.distrib.merge_fleet_trace`, openable in Perfetto)
and ``manifest.json`` (trigger, recent events, metrics registry
snapshot, active ``DSConfig``/``ServeConfig``).  A single process's
bundle is the merger's one-lane case; a fleet router passes every
worker's ring and gets one lane per worker.  This module is the only
writer of the bundle format.  :meth:`maybe_dump` adds
per-trigger rate limiting so a failure storm produces one bundle per
cooldown window, not thousands.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from repro.obs.distrib import merge_fleet_trace, span_to_dict
from repro.obs.export import _sanitize
from repro.obs.tracer import Span, add_span_sink, now_us, remove_span_sink

__all__ = ["FlightRecorder", "TRIGGERS"]

TRIGGERS = ("breaker_open", "deadline", "launch_error", "slo_breach",
            "manual")
"""The trigger taxonomy incident bundles are filed under.  ``manual``
covers operator-requested dumps; the rest map to serve-layer failure
modes (see docs/serving.md)."""


def _config_dict(config) -> Optional[dict]:
    """Best-effort JSON snapshot of a config object (dataclass, mapping
    or arbitrary object)."""
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return _sanitize(dataclasses.asdict(config))
    if isinstance(config, dict):
        return _sanitize(dict(config))
    try:
        return _sanitize(dict(vars(config)))
    except TypeError:
        return {"repr": repr(config)}


class FlightRecorder:
    """Bounded ring of completed spans and structured events.

    Parameters
    ----------
    capacity:
        Maximum spans (and, separately, events) retained.  Old records
        fall off the back; a dump only ever sees the last ``capacity``.
    incident_dir:
        Where bundles are written (created on first dump).
    cooldown_ms:
        Minimum wall-clock gap between two bundles for the *same*
        trigger (:meth:`maybe_dump`); explicit :meth:`dump` ignores it.
    event_log:
        Optional JSONL file every recorded event is also appended to
        (opened on construction, closed by :meth:`close`).

    The optional :attr:`on_dump` callback — ``fn(trigger, bundle_path,
    reason)`` — fires after every bundle is written.  A fleet worker
    sets it to notify the front door, whose own recorder then gathers
    *every* worker's flight ring into one fleet-wide incident bundle.
    """

    def __init__(self, capacity: int = 4096, *,
                 incident_dir: Union[str, Path] = "incidents",
                 cooldown_ms: float = 1000.0,
                 event_log: Optional[Union[str, Path]] = None) -> None:
        self.capacity = int(capacity)
        self.incident_dir = Path(incident_dir)
        self.cooldown_ms = float(cooldown_ms)
        self._spans: Deque[Union[Span, dict]] = deque(maxlen=self.capacity)
        self._events: Deque[dict] = deque(maxlen=self.capacity)
        self._last_dump_us: Dict[str, float] = {}
        self._seq = 0
        self._lock = threading.Lock()
        self.dumps: List[Path] = []
        self._installed = False
        self.on_dump = None
        self._log = None
        if event_log is not None:
            path = Path(event_log)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._log = path.open("a", encoding="utf-8")

    # -- recording (the hot path) ---------------------------------------------

    def record_span(self, sp: Span) -> None:
        """Span-sink callback: one bounded append, no copying (atomic
        under CPython, so no lock on the hot path)."""
        self._spans.append(sp)

    def add(self, span_dict: dict) -> None:
        """Append an already-serialized span (router-side synthesis)."""
        self._spans.append(dict(span_dict))

    def record_event(self, event: str, **fields) -> None:
        """Record a structured event on the process clock — works
        without any tracer, which is the serve hot path — and append it
        to the ``event_log`` file, if there is one."""
        fields["ts_us"] = round(now_us(), 3)
        fields["event"] = event
        self._events.append(fields)
        if self._log is not None:
            line = json.dumps(dict(_sanitize(fields),
                                   ts=round(time.time(), 6)),
                              sort_keys=True, allow_nan=False) + "\n"
            with self._lock:
                if self._log is not None:
                    self._log.write(line)
                    self._log.flush()

    def install(self) -> "FlightRecorder":
        """Start receiving completed spans from any active tracer."""
        if not self._installed:
            add_span_sink(self.record_span)
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            remove_span_sink(self.record_span)
            self._installed = False

    def close(self) -> None:
        """Stop receiving spans and close the ``event_log`` file; the
        ring stays readable and dumpable."""
        self.uninstall()
        with self._lock:
            if self._log is not None:
                self._log.close()
                self._log = None

    def __enter__(self) -> "FlightRecorder":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __len__(self) -> int:
        return len(self._spans) + len(self._events)

    # -- snapshots ------------------------------------------------------------

    def spans(self) -> List[Union[Span, dict]]:
        return list(self._spans)

    def span_dicts(self) -> List[dict]:
        """Every span in the window (never destructive) as JSON-safe
        dicts — the form that crosses a process boundary when the fleet
        collects worker rings."""
        out: List[dict] = []
        for sp in list(self._spans):
            if isinstance(sp, dict):
                out.append(dict(sp, args=_sanitize(sp["args"]))
                           if sp["args"] else dict(sp))
            else:
                out.append(span_to_dict(sp))
        return out

    def events(self) -> List[dict]:
        return list(self._events)

    # -- dumping --------------------------------------------------------------

    def claim(self, trigger: str) -> bool:
        """Open ``trigger``'s cooldown window; ``False`` when one is
        still open (the same trigger fired within ``cooldown_ms``)."""
        with self._lock:
            now = now_us()
            last = self._last_dump_us.get(trigger)
            if last is not None and (now - last) / 1e3 < self.cooldown_ms:
                return False
            self._last_dump_us[trigger] = now
        return True

    def maybe_dump(self, trigger: str, **kwargs) -> Optional[Path]:
        """Dump unless the same trigger fired within ``cooldown_ms``."""
        return self.dump(trigger, **kwargs) if self.claim(trigger) else None

    def dump(self, trigger: str, *, reason: str = "",
             metrics=None, ds_config=None, serve_config=None,
             context: Optional[dict] = None,
             workers: Optional[Dict[str, dict]] = None,
             **fields) -> Path:
        """Write an incident bundle and return its directory.

        ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry`
        (or anything with ``to_dicts``); the config arguments accept
        the live ``DSConfig`` / ``ServeConfig`` dataclasses.

        ``workers`` makes the bundle fleet-wide: ``{worker_id:
        {"spans": [...], "events": [...]}}`` adds one process lane per
        worker to ``trace.json`` and each worker's events to the
        manifest, tagged with ``worker``.  ``fields`` are extra manifest
        keys (the fleet's ``scope``, ``source_worker``,
        ``worker_bundle``).
        """
        spans = self.span_dicts()
        events = self.events()
        worker_spans: Dict[str, List[dict]] = {}
        for worker_id in sorted(workers or {}):
            payload = workers[worker_id]
            worker_spans[worker_id] = list(payload.get("spans") or [])
            events.extend(dict(ev, worker=worker_id)
                          for ev in payload.get("events") or [])
        with self._lock:
            self._seq += 1
            seq = self._seq
        stamp = time.strftime("%Y%m%d-%H%M%S")
        bundle = self.incident_dir / f"incident-{stamp}-{seq:03d}-{trigger}"
        bundle.mkdir(parents=True, exist_ok=True)

        merge_fleet_trace(spans, worker_spans, path=bundle / "trace.json")

        manifest = {
            "kind": "repro-incident-bundle",
            "trigger": trigger,
            "reason": reason,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "capacity": self.capacity,
            "n_spans": len(spans) + sum(len(s)
                                        for s in worker_spans.values()),
            "n_events": len(events),
            "events": _sanitize(events),
            "metrics": (_sanitize(metrics.to_dicts())
                        if metrics is not None else []),
            "ds_config": _config_dict(ds_config),
            "serve_config": _config_dict(serve_config),
            "context": _sanitize(context or {}),
            **_sanitize(fields),
        }
        (bundle / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True,
                       allow_nan=False) + "\n")
        self.dumps.append(bundle)
        if self.on_dump is not None:
            try:
                self.on_dump(trigger, bundle, reason)
            except Exception:  # pragma: no cover - notify must not break dump
                pass
        return bundle
