"""Cooperative work-group scheduler with bounded residency.

This is the component that makes the simulator a meaningful testbed for
the paper's claims.  Real GPUs schedule work-groups onto compute units
in an order the programmer cannot rely on, and only a bounded number are
resident at once.  Both properties matter:

* if work-group *i − 1* is dispatched **after** *i* while all hardware
  slots are full of groups spinning on their predecessor's flag, a
  naively-ordered kernel deadlocks — the hazard dynamic work-group ID
  allocation (Figure 4) removes;
* the number of *resident* groups bounds memory-level parallelism, the
  quantity whose collapse ruins the iterative baseline (Figure 2).

The scheduler here admits work-groups to ``resident_limit`` hardware
slots following a configurable **dispatch order** (ascending, descending
or a seeded random permutation) and then interleaves resident groups one
event at a time with a seeded random pick, so every run explores a
different legal interleaving.  Groups that yield a
:class:`~repro.simgpu.events.Spin` are parked on the flag location they
are polling and woken only by a *mutating* atomic that touches that
location (flags only change through atomics), which keeps simulated
spinning cheap — no thundering-herd re-poll of every parked group — and
makes true deadlock *detectable*: when no group is runnable and no
atomic can ever occur, the scheduler raises
:class:`repro.errors.DeadlockError` instead of hanging.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro import obs as _obs
from repro.errors import DeadlockError, LaunchError
from repro.simgpu.counters import LaunchCounters
from repro.simgpu.device import DeviceSpec
from repro.simgpu.events import Event, EventKind
from repro.simgpu.workgroup import WorkGroup

__all__ = ["launch", "dispatch_order"]

KernelFn = Callable[..., Generator[Event, None, None]]
OrderSpec = Union[str, Sequence[int]]


def dispatch_order(grid_size: int, order: OrderSpec, seed: int = 0) -> np.ndarray:
    """Resolve an order specification into a permutation of the grid.

    ``"ascending"`` dispatches group 0 first (the friendly order),
    ``"descending"`` dispatches the last group first (the adversarial
    order that deadlocks statically-ordered chained kernels), and
    ``"random"`` uses a seeded permutation.  An explicit sequence is
    validated to be a permutation.
    """
    if isinstance(order, str):
        if order == "ascending":
            return np.arange(grid_size, dtype=np.int64)
        if order == "descending":
            return np.arange(grid_size - 1, -1, -1, dtype=np.int64)
        if order == "random":
            rng = np.random.default_rng(seed)
            return rng.permutation(grid_size).astype(np.int64)
        raise LaunchError(f"unknown dispatch order {order!r}")
    perm = np.asarray(list(order), dtype=np.int64)
    if perm.size != grid_size or not np.array_equal(np.sort(perm), np.arange(grid_size)):
        raise LaunchError("explicit dispatch order must be a permutation of the grid")
    return perm


def launch(
    kernel_fn: KernelFn,
    *,
    grid_size: int,
    wg_size: int,
    device: DeviceSpec,
    args: Iterable = (),
    kwargs: Optional[dict] = None,
    api: str = "opencl",
    order: OrderSpec = "random",
    seed: int = 0,
    resident_limit: Optional[int] = None,
    kernel_name: Optional[str] = None,
    trace: Optional[List] = None,
) -> LaunchCounters:
    """Execute one kernel launch to completion and return its counters.

    Parameters
    ----------
    kernel_fn:
        Generator function ``kernel_fn(wg, *args, **kwargs)``.
    grid_size, wg_size:
        Launch geometry (number of work-groups, work-items per group).
    device:
        Simulated :class:`~repro.simgpu.device.DeviceSpec`.
    order, seed:
        Hardware dispatch order of work-groups onto free slots.
    resident_limit:
        Hardware slots; defaults to the device's ``max_resident_wgs``.
    trace:
        Optional list; when given, every scheduled event is appended as
        ``(group_index, Event)`` in execution order.  This is the record
        the Figure 5 overlap analysis, the schedule-shape tests and the
        event-driven timing replay (:mod:`repro.simgpu.timing`) consume;
        leave ``None`` (the default) for zero overhead.

    Raises
    ------
    LaunchError
        On inconsistent launch geometry.
    DeadlockError
        When every resident work-group is parked on a spin and no
        pending admission or atomic can unblock any of them.
    """
    if grid_size <= 0:
        raise LaunchError(f"grid_size must be positive, got {grid_size}")
    if wg_size <= 0:
        raise LaunchError(f"wg_size must be positive, got {wg_size}")
    if wg_size > device.max_wg_size:
        raise LaunchError(
            f"wg_size {wg_size} exceeds {device.name} limit {device.max_wg_size}"
        )
    if api not in ("cuda", "opencl"):
        raise LaunchError(f"api must be 'cuda' or 'opencl', got {api!r}")
    kwargs = dict(kwargs or {})
    limit = resident_limit if resident_limit is not None else device.max_resident_wgs
    if limit <= 0:
        raise LaunchError("resident_limit must be positive")

    perm = dispatch_order(grid_size, order, seed)
    rng = np.random.default_rng(seed ^ 0x5EED)

    counters = LaunchCounters(
        kernel_name=kernel_name or getattr(kernel_fn, "__name__", "kernel"),
        grid_size=grid_size,
        wg_size=wg_size,
    )

    # Observability: one launch span on the host track, one "sync_wait"
    # span per park episode on the parked group's track (its duration
    # feeds the spin-wait histogram), and — in full mode — an instant
    # event per atomic/barrier.  All of it is behind a single
    # `tracer is None` check so the disabled path stays free.
    tracer = _obs.active()
    trace_full = tracer is not None and tracer.full
    launch_span = None
    if tracer is not None:
        span_args = {"backend": "simulated", "grid_size": grid_size,
                     "wg_size": wg_size, "device": device.name}
        # Correlation attributes (request_id, batch_id) pushed by the
        # serve/pipeline layers via obs.annotate; phase spans stay
        # annotation-free (the launch span carries them for its groups).
        annotations = _obs.current_annotations()
        if annotations:
            span_args.update(annotations)
        launch_span = tracer.span(
            counters.kernel_name, cat="launch", args=span_args,
        )
    wait_spans: Dict[int, _obs.Span] = {}

    pending = list(perm)
    pending.reverse()  # pop() from the tail dispatches in perm order
    runnable: List[int] = []  # group indices with live generators, ready to step
    # Groups blocked on a spin, keyed by group index.  The value is the
    # (buffer_name, index) location the group is watching; a mutating
    # atomic wakes only the watchers whose location it touched.
    parked: Dict[int, tuple] = {}
    gens: Dict[int, Generator[Event, None, None]] = {}

    def admit() -> None:
        while pending and (len(runnable) + len(parked)) < limit:
            gidx = int(pending.pop())
            wg = WorkGroup(gidx, wg_size, device, api=api)
            gens[gidx] = kernel_fn(wg, *args, **kwargs)
            runnable.append(gidx)
        counters.peak_resident = max(counters.peak_resident, len(runnable) + len(parked))

    try:
        admit()
        while runnable or parked or pending:
            if not runnable:
                # Every resident group is parked on a spin.  Flags change only
                # through atomics, and only runnable groups issue atomics, so
                # nothing can ever wake them: this is a deadlock (pending
                # groups cannot be admitted because the slots are occupied).
                raise DeadlockError(
                    f"{counters.kernel_name}: all {len(parked)} resident work-groups "
                    f"are spinning with {len(pending)} work-groups still pending; "
                    "no progress is possible (static work-group ordering under "
                    "unfavourable dispatch — see Figure 4 of the paper)",
                    waiting=tuple(int(g) for g in parked),
                    steps=counters.steps,
                )
            pick = int(rng.integers(len(runnable)))
            gidx = runnable[pick]
            gen = gens[gidx]
            counters.steps += 1
            try:
                event = next(gen)
            except StopIteration:
                runnable.pop(pick)
                del gens[gidx]
                counters.completed_wgs += 1
                admit()
                continue
            if not isinstance(event, Event):  # defensive: catch kernel bugs early
                raise LaunchError(
                    f"kernel {counters.kernel_name!r} yielded {type(event).__name__}, "
                    "expected an Event (did you forget 'yield from'?)"
                )
            kind = event.kind
            if trace is not None:
                trace.append((gidx, event))
            if kind is EventKind.GLOBAL_LOAD:
                counters.n_loads += 1
                counters.bytes_loaded += event.bytes
                counters.load_transactions += event.transactions
            elif kind is EventKind.GLOBAL_STORE:
                counters.n_stores += 1
                counters.bytes_stored += event.bytes
                counters.store_transactions += event.transactions
            elif kind is EventKind.ATOMIC:
                counters.n_atomics += 1
                if trace_full:
                    tracer.instant(
                        f"atomic_{getattr(event, 'op', 'rmw')}",
                        track=_obs.wg_track(gidx),
                        args={"buffer": event.buffer_name,
                              "index": getattr(event, "index", None)},
                    )
                if parked and getattr(event, "mutates", True):
                    # Wake only the groups watching the touched location; an
                    # unknown index on either side is treated as a wildcard.
                    ev_index = getattr(event, "index", None)
                    woken = [
                        g
                        for g, (wbuf, widx) in parked.items()
                        if wbuf == event.buffer_name
                        and (widx is None or ev_index is None or widx == ev_index)
                    ]
                    for g in woken:
                        del parked[g]
                        sp = wait_spans.pop(g, None)
                        if sp is not None:
                            sp.finish()
                            tracer.metrics.histogram(
                                "sched.spin_wait_us", wg=g
                            ).record(sp.duration_us)
                    runnable.extend(woken)
            elif kind is EventKind.BARRIER:
                counters.n_barriers += 1
                if trace_full:
                    tracer.instant(
                        f"barrier_{getattr(event, 'scope', 'local')}",
                        track=_obs.wg_track(gidx),
                    )
            elif kind is EventKind.SPIN:
                counters.n_spins += 1
                runnable.pop(pick)
                parked[gidx] = (event.buffer_name, getattr(event, "index", None))
                if tracer is not None and gidx not in wait_spans:
                    wait_spans[gidx] = tracer.span(
                        "sync_wait", cat="sched", track=_obs.wg_track(gidx),
                        args={"flag": event.buffer_name,
                              "index": getattr(event, "index", None),
                              "waits_on": getattr(event, "waits_on", None)},
                    )
            elif kind is EventKind.LOCAL:
                counters.local_bytes += event.bytes
    finally:
        if tracer is not None:
            # A deadlock (or kernel error) unwinds with groups still
            # parked; close their wait spans so the trace stays valid.
            for sp in wait_spans.values():
                sp.finish()
            launch_span.set(
                steps=counters.steps, n_spins=counters.n_spins,
                peak_resident=counters.peak_resident,
            ).finish()

    return counters
