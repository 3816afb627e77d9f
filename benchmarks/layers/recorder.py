"""The benchmark's own in-memory span recorder.

Spans are recorded from outside the program, around the public calls the
benchmark makes; in-program tracing (``repro.obs``) stays off.  Every
span measures its duration; a recorder built with ``store=False`` just
does not keep it, so an untraced op pays the same clock reads as a
traced one and the gap between the two is only the cost of keeping
spans (``trace.overhead_x``).
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional, Union

__all__ = ["Span", "Recorder", "chrome_trace", "durations_us",
           "write_chrome_trace"]


class Span:
    """One timed interval; a context manager around a public call."""

    __slots__ = ("id", "parent", "name", "t0", "t1", "args", "_rec")

    def __init__(self, rec: "Recorder", name: str, parent: int,
                 args: dict, span_id: Optional[int] = None) -> None:
        self._rec = rec
        self.id = span_id if span_id is not None else next(rec._ids)
        self.parent = parent
        self.name = name
        self.args = args
        self.t0 = self.t1 = 0

    def __enter__(self) -> "Span":
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.t1 = time.perf_counter_ns()
        self._rec._keep(self)

    @property
    def dur_s(self) -> float:
        return (self.t1 - self.t0) / 1e9


Parent = Union[None, int, Span]


class Recorder:
    """Collects :class:`Span` objects in memory until the run ends."""

    def __init__(self, store: bool = True) -> None:
        self.store = store
        self.spans: List[Span] = []
        # next() on itertools.count and list.append are each one C call,
        # so the sender and collector threads of the open-loop workloads
        # can share a recorder without a lock.
        self._ids = itertools.count(1)

    def span(self, name: str, parent: Parent = None, **args) -> Span:
        return Span(self, name, _parent_id(parent), args)

    def record(self, name: str, t0_ns: int, t1_ns: int,
               parent: Parent = None, span_id: Optional[int] = None,
               **args) -> Span:
        """Keep a span whose interval was measured elsewhere (a request
        timed from its scheduled send).  ``span_id`` lets children be
        recorded before their parent closes."""
        sp = Span(self, name, _parent_id(parent), args, span_id)
        sp.t0, sp.t1 = t0_ns, t1_ns
        self._keep(sp)
        return sp

    def new_id(self) -> int:
        return next(self._ids)

    def _keep(self, sp: Span) -> None:
        if self.store:
            self.spans.append(sp)


def _parent_id(parent: Parent) -> int:
    if isinstance(parent, Span):
        return parent.id
    return int(parent or 0)


def durations_us(spans: List[Span]) -> Dict[str, List[float]]:
    """Span durations in microseconds, grouped by span name."""
    out: Dict[str, List[float]] = defaultdict(list)
    for sp in spans:
        out[sp.name].append((sp.t1 - sp.t0) / 1e3)
    return out


def chrome_trace(spans: List[Span], *, workload: str) -> dict:
    """One Chrome-trace document (``chrome://tracing`` / Perfetto).

    Overlapping root spans (concurrent requests) go to separate lanes so
    complete events on one lane always nest; children share their
    root's lane.
    """
    by_id = {sp.id: sp for sp in spans}

    def root_of(sp: Span) -> Span:
        while sp.parent and sp.parent in by_id:
            sp = by_id[sp.parent]
        return sp

    root = {sp.id: root_of(sp) for sp in spans}
    lanes_end: List[int] = []
    lane_of: Dict[int, int] = {}
    for top in sorted({r.id: r for r in root.values()}.values(),
                      key=lambda sp: sp.t0):
        for lane, end in enumerate(lanes_end):
            if end <= top.t0:
                lanes_end[lane] = top.t1
                break
        else:
            lane = len(lanes_end)
            lanes_end.append(top.t1)
        lane_of[top.id] = lane
    origin = min(sp.t0 for sp in spans)
    events = []
    for sp in sorted(spans, key=lambda s: (s.t0, -s.t1)):
        args = dict(sp.args, id=sp.id)
        if sp.parent:
            args["parent"] = sp.parent
        events.append({
            "name": sp.name, "ph": "X", "pid": 1,
            "tid": lane_of[root[sp.id].id],
            "ts": (sp.t0 - origin) / 1e3, "dur": (sp.t1 - sp.t0) / 1e3,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"workload": workload}}


def write_chrome_trace(spans: List[Span], path, *, workload: str) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans, workload=workload), fh)
