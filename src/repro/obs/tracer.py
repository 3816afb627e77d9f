"""Span-based tracing with zero cost when disabled.

The tracer records **spans** — named, nested time intervals — on
per-entity **tracks**.  The host-side control flow (primitive calls,
kernel launches, pipeline passes) lives on the ``"host"`` track; every
simulated work-group gets its own ``"wg:<i>"`` track, so the exported
timeline shows the interleaving the scheduler actually produced: load
phases overlapping store phases of other groups, spin-wait gaps along
the Figure 7 synchronization chain, the extra passes of a Thrust-style
pipeline as sibling launch spans.

Three modes, resolved from the ``REPRO_TRACE`` environment variable by
:func:`resolve_trace_mode`:

* ``off`` (default) — no tracer is installed.  Instrumented code paths
  reduce to one ``active() is None`` check and a shared no-op span, so
  the instrumentation is free where it matters;
* ``spans`` — phase/launch/primitive spans and metrics only;
* ``full`` — additionally one instant event per atomic and barrier.

Use either the process-global tracer (:func:`enable` / :func:`disable`,
or just set ``REPRO_TRACE`` and let the primitives auto-install one) or
a scoped one::

    from repro import obs
    with obs.tracing("full") as t:
        repro.compact(values, 0.0)
    obs.export_chrome_trace(t, "trace.json")

Spans carry a ``cat`` used by consumers to select subsets: ``primitive``
(root span per primitive call), ``launch`` (one kernel launch),
``pipeline`` (multi-launch baseline pipelines), ``phase`` (what a
launch ran: the simulated work-groups' algorithm phases ``load`` /
``reduce`` / ``sync`` / ``scan`` / ``store`` on their own tracks, or a
vectorized launch's two host phases ``movement`` and ``accounting``
under its launch span) and ``sched`` (schedule-dependent spans such as
``sync_wait``, which only the simulated backend has, like ``n_spins``).

**One process clock.**  :func:`now_us` counts microseconds from
:data:`EPOCH_NS`, read once when this module is imported.  Every
real-time stamp reads it: default-clock tracers, flight-recorder events,
the fleet router's and workers' request timing.  Fleet and stream-pool
workers are forked after the import, so they inherit the epoch (and
``CLOCK_MONOTONIC``) and their stamps need no offset.  A tracer given an
injected ``clock`` (tests, golden files) counts from its first reading.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "TRACE_ENV_VAR", "TRACE_MODES", "resolve_trace_mode",
    "Span", "NULL_SPAN", "Tracer",
    "HOST_TRACK", "wg_track",
    "active", "enable", "disable", "install", "span", "instant", "tracing",
    "annotate", "current_annotations",
    "add_span_sink", "remove_span_sink",
    "new_span_id", "new_trace_id",
    "EPOCH_NS", "now_us",
]

TRACE_ENV_VAR = "REPRO_TRACE"
TRACE_MODES = ("off", "spans", "full")

HOST_TRACK = "host"
"""Track carrying host-side control flow (primitives, launches)."""

EPOCH_NS = time.perf_counter_ns()
"""The process clock's origin (``perf_counter_ns`` at import), inherited
by every forked worker."""


def now_us() -> float:
    """Microseconds since :data:`EPOCH_NS` on the process clock."""
    return (time.perf_counter_ns() - EPOCH_NS) / 1e3


def wg_track(group_index: int) -> str:
    """The track name of one simulated work-group."""
    return f"wg:{int(group_index)}"


# -- span / trace ids ----------------------------------------------------------
#
# Ids embed the pid and re-seed the sequence whenever the pid changes,
# so spans recorded on the two sides of a fork (stream pool workers,
# fleet workers) can never collide when merged into one fleet timeline.
# The pid check is one comparison on the hot path; the race at the fork
# boundary is benign because a freshly forked child is single-threaded.

_ID_PID: Optional[int] = None
_ID_COUNTER = itertools.count(1)
_ID_PREFIX = ""


def new_span_id() -> str:
    """A process-unique span id (``"<pid:x>-<seq:x>"``), safe to merge
    across forked processes: the sequence re-seeds per pid."""
    global _ID_PID, _ID_COUNTER, _ID_PREFIX
    pid = os.getpid()
    if pid != _ID_PID:
        _ID_PID = pid
        _ID_PREFIX = f"{pid:x}-"
        _ID_COUNTER = itertools.count(1)
    return f"{_ID_PREFIX}{next(_ID_COUNTER):x}"


def new_trace_id() -> str:
    """A fresh trace id for one end-to-end request (same pid-salted
    sequence as :func:`new_span_id`, distinct namespace prefix)."""
    return f"t{new_span_id()}"


# -- correlation annotations ---------------------------------------------------
#
# A thread-local stack of attribute dicts that higher layers (the serve
# batcher, the pipeline engine) push before executing work on behalf of
# specific requests.  Launch and primitive spans merge the current
# annotations into their args, which is how a `request_id` threads from
# `ServeRequest` all the way into the kernel-launch span that executed
# it.  Phase/sched spans deliberately do NOT merge annotations: their
# launch span carries them once for all of its phases.

_ANNOTATIONS = threading.local()


def current_annotations() -> Optional[dict]:
    """The merged annotation attributes of the calling thread (``None``
    when no :func:`annotate` scope is active — the common, free path)."""
    stack = getattr(_ANNOTATIONS, "stack", None)
    if not stack:
        return None
    if len(stack) == 1:
        return stack[0]
    merged: dict = {}
    for attrs in stack:
        merged.update(attrs)
    return merged


@contextmanager
def annotate(**attrs):
    """Attach correlation attributes (``request_ids``, ``batch_id``, ...)
    to every launch/primitive span opened by this thread inside the
    block.  Scopes nest; inner values win on key collision."""
    stack = getattr(_ANNOTATIONS, "stack", None)
    if stack is None:
        stack = _ANNOTATIONS.stack = []
    stack.append(dict(attrs))
    try:
        yield
    finally:
        stack.pop()


# -- span sinks ----------------------------------------------------------------
#
# Module-level observers invoked with every span the moment it
# completes (explicit-timestamp spans included).  The flight recorder
# registers here so it can keep its ring current without the tracer
# depending on it.  The disabled path is one truthiness check.

_SPAN_SINKS: List[Callable[["Span"], None]] = []


def add_span_sink(sink: Callable[["Span"], None]) -> None:
    """Register ``sink`` to be called with every completed span."""
    if sink not in _SPAN_SINKS:
        _SPAN_SINKS.append(sink)


def remove_span_sink(sink: Callable[["Span"], None]) -> None:
    """Unregister a sink added via :func:`add_span_sink` (idempotent)."""
    try:
        _SPAN_SINKS.remove(sink)
    except ValueError:
        pass


def _notify_sinks(sp: "Span") -> None:
    for sink in _SPAN_SINKS:
        try:
            sink(sp)
        except Exception:  # pragma: no cover - sinks must not break tracing
            pass


def resolve_trace_mode(mode: Optional[str] = None) -> str:
    """Resolve a trace-mode argument against the ``REPRO_TRACE``
    environment variable (explicit argument wins; default ``off``)."""
    if mode is None:
        mode = os.environ.get(TRACE_ENV_VAR, "").strip() or "off"
    mode = str(mode).lower()
    if mode not in TRACE_MODES:
        raise ReproError(
            f"unknown trace mode {mode!r}; expected one of {TRACE_MODES} "
            f"(set via the {TRACE_ENV_VAR} environment variable)")
    return mode


class Span:
    """One named interval on one track.  Usable as a context manager
    (``with tracer.span(...)``) or ended explicitly via :meth:`finish`
    when the end time is decided elsewhere (scheduler wake-ups)."""

    __slots__ = ("name", "cat", "track", "start_us", "end_us", "args",
                 "children", "_span_id", "_tracer")

    def __init__(self, name: str, cat: str, track: str, start_us: float,
                 args: Optional[dict], tracer: Optional["Tracer"]) -> None:
        self.name = name
        self.cat = cat
        self.track = track
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.args = args
        self.children: List["Span"] = []
        self._span_id: Optional[str] = None
        self._tracer = tracer

    @property
    def span_id(self) -> str:
        """Process-unique id, minted lazily on first read and cached.
        Span creation is the hot path; ids are only consumed when spans
        are serialized for a merge, so deferring the mint keeps its cost
        out of every traced operation while repeated snapshots of the
        same span still agree on one id (the merger dedupes by it)."""
        sid = self._span_id
        if sid is None:
            sid = self._span_id = new_span_id()
        return sid

    @property
    def duration_us(self) -> float:
        return (self.end_us - self.start_us) if self.end_us is not None else 0.0

    def set(self, **attrs) -> "Span":
        """Attach/overwrite span attributes (shown as Chrome-trace args)."""
        if self.args is None:
            self.args = {}
        self.args.update(attrs)
        return self

    def finish(self) -> "Span":
        if self._tracer is not None and self.end_us is None:
            self._tracer._end(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, cat={self.cat!r}, track={self.track!r}, "
                f"start={self.start_us:.1f}us, dur={self.duration_us:.1f}us, "
                f"children={len(self.children)})")


class _NullSpan:
    """Shared no-op span returned by every entry point while tracing is
    disabled — no allocation, no timestamps, no bookkeeping."""

    __slots__ = ()
    name = cat = track = None
    start_us = end_us = None
    duration_us = 0.0
    children: List[Span] = []
    args: Optional[dict] = None
    span_id: Optional[str] = None

    def set(self, **attrs) -> "_NullSpan":
        return self

    def finish(self) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans, instant events and metrics for one trace session.

    Parameters
    ----------
    mode:
        ``"spans"`` or ``"full"`` (``"off"`` is represented by *no*
        tracer being installed, keeping the disabled path free).
    clock:
        Nanosecond monotonic clock.  The default stamps on the process
        clock (microseconds since :data:`EPOCH_NS`); an injected clock
        (deterministic tests, golden files) counts from its first
        reading.
    retain:
        When ``False``, finished top-level spans are NOT accumulated on
        the tracer (and instants are kept in a bounded window): the
        registered span sinks — a fleet worker's flight recorder —
        are the only consumers.  This keeps a long-running traced
        server's memory bounded and its per-span cost to the sink
        append; ``tracks``/``roots``/``iter_spans`` then only see spans
        still open.  Default ``True`` (export reads the tracer).
    """

    def __init__(self, mode: str = "full",
                 clock: Callable[[], int] = time.perf_counter_ns,
                 retain: bool = True) -> None:
        mode = resolve_trace_mode(mode)
        if mode == "off":
            raise ReproError(
                "Tracer(mode='off') is contradictory; simply do not "
                "install a tracer")
        self.mode = mode
        self._clock = clock
        self._t0 = EPOCH_NS if clock is time.perf_counter_ns else clock()
        self.retain = bool(retain)
        self.metrics = MetricsRegistry()
        self._roots: Dict[str, List[Span]] = {}
        self._stacks: Dict[str, List[Span]] = {}
        self._track_order: List[str] = []
        self.instants: List[dict] = [] if self.retain \
            else deque(maxlen=10_000)  # type: ignore[assignment]

    # -- time -----------------------------------------------------------------

    @property
    def full(self) -> bool:
        return self.mode == "full"

    def now_us(self) -> float:
        """Microseconds on this tracer's clock (the process clock unless
        one was injected)."""
        return (self._clock() - self._t0) / 1e3

    # -- span lifecycle -------------------------------------------------------

    def _track(self, track: str) -> List[Span]:
        roots = self._roots.get(track)
        if roots is None:
            roots = self._roots[track] = []
            self._stacks[track] = []
            self._track_order.append(track)
        return roots

    def span(self, name: str, *, cat: str = "span",
             track: str = HOST_TRACK, args: Optional[dict] = None) -> Span:
        """Open a span now; close it with ``with`` or :meth:`finish`."""
        roots = self._track(track)
        sp = Span(name, cat, track, self.now_us(), args, self)
        stack = self._stacks[track]
        if stack:
            stack[-1].children.append(sp)
        elif self.retain:
            roots.append(sp)
        stack.append(sp)
        return sp

    def _end(self, sp: Span) -> None:
        sp.end_us = self.now_us()
        stack = self._stacks[sp.track]
        # Defensive: close any dangling children left open by an
        # exception between this span's enter and exit.
        while stack:
            top = stack.pop()
            if top is sp:
                if _SPAN_SINKS:
                    _notify_sinks(sp)
                return
            top.end_us = sp.end_us
            if _SPAN_SINKS:
                _notify_sinks(top)
        raise ReproError(f"span {sp.name!r} ended twice on track {sp.track!r}")

    def add_span(self, name: str, *, track: str, start_us: float,
                 end_us: float, cat: str = "span",
                 args: Optional[dict] = None,
                 parent: Optional[Span] = None) -> Span:
        """Record a span with explicit timestamps (used by the
        vectorized backend to record the host phases of a launch, whose
        intervals it measures before it closes the launch span)."""
        sp = Span(name, cat, track, float(start_us), args, None)
        sp.end_us = float(end_us)
        if parent is not None:
            parent.children.append(sp)
        elif self.retain:
            self._track(track).append(sp)
        if _SPAN_SINKS:
            _notify_sinks(sp)
        return sp

    def instant(self, name: str, *, cat: str = "event",
                track: str = HOST_TRACK,
                args: Optional[dict] = None) -> None:
        """Record a point event (atomics/barriers in ``full`` mode)."""
        self.instants.append({"name": name, "cat": cat, "track": track,
                              "ts_us": self.now_us(), "args": args})

    # -- reading the trace ----------------------------------------------------

    @property
    def tracks(self) -> List[str]:
        """Tracks in first-seen order (``host`` first when present)."""
        order = list(self._track_order)
        if HOST_TRACK in order:
            order.remove(HOST_TRACK)
            order.insert(0, HOST_TRACK)
        return order

    def roots(self, track: str) -> List[Span]:
        return list(self._roots.get(track, ()))

    def iter_spans(self) -> Iterator[Tuple[str, Span, int]]:
        """Depth-first ``(track, span, depth)`` over every track."""
        for track in self.tracks:
            stack = [(sp, 0) for sp in reversed(self._roots[track])]
            while stack:
                sp, depth = stack.pop()
                yield track, sp, depth
                stack.extend((c, depth + 1) for c in reversed(sp.children))

    def find_spans(self, name: Optional[str] = None,
                   cat: Optional[str] = None) -> List[Span]:
        return [sp for _, sp, _ in self.iter_spans()
                if (name is None or sp.name == name)
                and (cat is None or sp.cat == cat)]

    def close(self) -> None:
        """Finish every span still open (end of a trace session)."""
        for stack in self._stacks.values():
            while stack:
                stack[-1].finish()


# -- the process-global tracer -----------------------------------------------

_ACTIVE: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is off.  This is
    the single check every instrumented hot path performs."""
    return _ACTIVE


def enable(mode: str = "full") -> Tracer:
    """Install a fresh process-global tracer and return it."""
    global _ACTIVE
    _ACTIVE = Tracer(mode)
    return _ACTIVE


def disable() -> Optional[Tracer]:
    """Uninstall the global tracer (returned for late export)."""
    global _ACTIVE
    t, _ACTIVE = _ACTIVE, None
    if t is not None:
        t.close()
    return t


def install(tracer: Tracer) -> Tracer:
    """Install a pre-constructed tracer as the process-global one (used
    by fleet workers, whose tracer keeps no spans of its own)."""
    global _ACTIVE
    _ACTIVE = tracer
    return tracer


def span(name: str, *, cat: str = "span", track: str = HOST_TRACK,
         args: Optional[dict] = None):
    """Open a span on the active tracer, or the shared no-op span."""
    t = _ACTIVE
    if t is None:
        return NULL_SPAN
    return t.span(name, cat=cat, track=track, args=args)


def instant(name: str, *, cat: str = "event", track: str = HOST_TRACK,
            args: Optional[dict] = None) -> None:
    t = _ACTIVE
    if t is not None:
        t.instant(name, cat=cat, track=track, args=args)


@contextmanager
def tracing(mode: str = "full"):
    """Scoped tracing: install a fresh tracer, restore the previous one
    on exit, and yield the tracer for export/inspection."""
    global _ACTIVE
    previous = _ACTIVE
    t = Tracer(mode)
    _ACTIVE = t
    try:
        yield t
    finally:
        t.close()
        _ACTIVE = previous
