"""Host-side command stream: ordered kernel launches with accounting.

The paper's central cost comparison is *one kernel with adjacent
synchronization* (DS algorithms) versus *many kernels separated by
global synchronization* (Sung's iterative padding, Thrust's multi-pass
primitives).  :class:`Stream` makes that comparison measurable: every
primitive and baseline in this package executes its kernels through a
stream, which records one :class:`~repro.simgpu.counters.LaunchCounters`
per launch.  The performance model then prices the whole record list —
paying the kernel-launch overhead once per record — so a pipeline's
structure directly shows up in its modeled time.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro import obs as _obs
from repro.errors import LaunchError
from repro.simgpu.counters import LaunchCounters
from repro.simgpu.device import DeviceSpec, get_device
from repro.simgpu.scheduler import OrderSpec, launch

__all__ = ["Stream", "StreamEvent", "BatchRecord"]


@dataclass(frozen=True)
class StreamEvent:
    """A marker in a stream's launch sequence (CUDA-event analogue).

    Recording an event snapshots the number of launches issued so far;
    waiting on it expresses that subsequent launches depend on
    everything before the marker.  The simulated stream is in-order, so
    the wait is trivially satisfied — but the recorded dependency edges
    let batch planners and tests assert the ordering they relied on.
    """

    stream: "Stream"
    index: int
    label: Optional[str] = None


@dataclass
class BatchRecord:
    """One :meth:`Stream.batch` window over the launch sequence."""

    label: str
    start: int
    end: Optional[int] = None
    events: List[StreamEvent] = field(default_factory=list)

    @property
    def num_launches(self) -> int:
        end = self.end if self.end is not None else self.start
        return end - self.start


class Stream:
    """An in-order launch queue bound to one simulated device.

    Parameters
    ----------
    device:
        A :class:`~repro.simgpu.device.DeviceSpec` or catalog name.
    api:
        ``"cuda"`` or ``"opencl"`` (selects native vs emulated warp
        collectives in the performance model).
    seed:
        Base seed; each launch derives a distinct stream of scheduling
        decisions so multi-kernel pipelines see varied interleavings.
    order:
        Default hardware dispatch order for launches (``"random"``,
        ``"ascending"``, ``"descending"`` or an explicit permutation).
    resident_limit:
        Optional override of the device's resident-work-group bound,
        used by tests and by baselines that are occupancy-limited.
    """

    def __init__(
        self,
        device: DeviceSpec | str,
        *,
        api: str = "opencl",
        seed: int = 0,
        order: OrderSpec = "random",
        resident_limit: Optional[int] = None,
    ) -> None:
        self.device = get_device(device) if isinstance(device, str) else device
        self.api = api
        self.seed = int(seed)
        self.order = order
        self.resident_limit = resident_limit
        self.records: List[LaunchCounters] = []
        self.batches: List[BatchRecord] = []
        self.dependencies: List[Tuple[int, int]] = []
        self._launch_count = 0
        self._active_batch: Optional[BatchRecord] = None

    def launch(
        self,
        kernel_fn,
        *,
        grid_size: int,
        wg_size: int,
        args: Iterable = (),
        kwargs: Optional[dict] = None,
        order: Optional[OrderSpec] = None,
        resident_limit: Optional[int] = None,
        kernel_name: Optional[str] = None,
        trace=None,
    ) -> LaunchCounters:
        """Run one kernel to completion and record its counters."""
        counters = launch(
            kernel_fn,
            grid_size=grid_size,
            wg_size=wg_size,
            device=self.device,
            args=args,
            kwargs=kwargs,
            api=self.api,
            order=order if order is not None else self.order,
            seed=self.seed + 0x9E37 * self._launch_count,
            resident_limit=(
                resident_limit if resident_limit is not None else self.resident_limit
            ),
            kernel_name=kernel_name,
            trace=trace,
        )
        self._launch_count += 1
        self.records.append(counters)
        self._register(counters)
        return counters

    def _register(self, counters: LaunchCounters) -> None:
        """Feed one launch record into the active metrics registry.

        Both backends funnel their records through here (``launch`` for
        the event-level scheduler, ``record`` for the vectorized fast
        path), so the ``stream.*`` metrics agree across backends exactly
        like the parity counters do.
        """
        tracer = _obs.active()
        if tracer is None:
            return
        m = tracer.metrics
        m.counter("stream.launches").inc()
        m.counter("stream.bytes_loaded").inc(counters.bytes_loaded)
        m.counter("stream.bytes_stored").inc(counters.bytes_stored)
        m.counter("stream.atomics").inc(counters.n_atomics)
        m.counter("stream.barriers").inc(counters.n_barriers)
        m.gauge("sched.peak_resident").set_max(counters.peak_resident)

    def record(self, counters: LaunchCounters) -> LaunchCounters:
        """Record counters produced outside the event-level scheduler.

        The vectorized backend (:mod:`repro.core.fastpath`) derives its
        counters in closed form instead of calling :meth:`launch`; it
        registers them here so pipelines are priced identically.  The
        launch count still advances, keeping the scheduling seeds of any
        *subsequent* simulated launches independent of how earlier ones
        were executed.
        """
        self._launch_count += 1
        self.records.append(counters)
        self._register(counters)
        return counters

    def record_event(self, label: Optional[str] = None) -> StreamEvent:
        """Mark the current position in the launch sequence."""
        event = StreamEvent(self, self.num_launches, label)
        if self._active_batch is not None:
            self._active_batch.events.append(event)
        return event

    def wait_event(self, event: StreamEvent) -> None:
        """Make subsequent launches depend on everything before ``event``.

        The stream executes in order, so the dependency is already
        satisfied; the recorded ``(event.index, waiting_index)`` edge is
        kept on :attr:`dependencies` for planners and tests.
        """
        if event.stream is not self:
            raise LaunchError(
                "wait_event: event was recorded on a different stream")
        self.dependencies.append((event.index, self.num_launches))

    @contextmanager
    def batch(self, label: str = "batch"):
        """Group the launches issued inside the ``with`` block.

        Yields a :class:`BatchRecord` whose window is closed on exit;
        the record also collects any events recorded inside the block.
        Pipelines use one batch per :meth:`repro.pipeline.Pipeline.run`
        so traces and tests can attribute launches to the batch that
        issued them.  Batches do not nest.
        """
        if self._active_batch is not None:
            raise LaunchError("stream batches do not nest")
        record = BatchRecord(label=label, start=self.num_launches)
        self.batches.append(record)
        self._active_batch = record
        try:
            yield record
        finally:
            record.end = self.num_launches
            self._active_batch = None
            tracer = _obs.active()
            if tracer is not None:
                tracer.metrics.counter("stream.batches").inc()
                tracer.metrics.counter("stream.batch_launches").inc(
                    record.num_launches)

    @property
    def num_launches(self) -> int:
        return len(self.records)

    def total(self) -> LaunchCounters:
        """Merge all recorded launches into a single counter record."""
        if not self.records:
            return LaunchCounters(kernel_name="<empty stream>")
        merged = self.records[0]
        for rec in self.records[1:]:
            merged = merged.merge(rec)
        return merged

    def reset(self) -> None:
        """Forget recorded launches (the device binding is kept)."""
        self.records.clear()
        self.batches.clear()
        self.dependencies.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Stream(device={self.device.name!r}, api={self.api!r}, "
            f"launches={self.num_launches})"
        )
