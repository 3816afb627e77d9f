"""Shared plumbing for the user-facing DS primitives.

Each primitive module exposes a function that takes host data (NumPy
arrays), runs the appropriate generic DS kernel on a simulated device,
and returns a :class:`PrimitiveResult` carrying the output, the launch
records (for the performance model) and the tuning that was applied.
The helpers here keep that surface uniform:

* :func:`resolve_stream` accepts a :class:`~repro.simgpu.stream.Stream`,
  a device name, or ``None`` (defaulting to the paper's primary
  evaluation device, Maxwell);
* :func:`resolve_backend` (re-exported from
  :mod:`repro.simgpu.vectorized`) resolves the ``DSConfig.backend``
  every primitive takes — ``"simulated"`` for the event-level
  scheduler, ``"vectorized"`` for the tile-granularity fast path with
  closed-form counters, ``None`` for the ``REPRO_BACKEND`` environment
  override;
* :func:`primitive_span` opens the root trace span every primitive
  call is wrapped in, resolving the ``REPRO_TRACE`` environment
  variable (``off`` / ``spans`` / ``full``) the same way
  ``REPRO_BACKEND`` is resolved — set it and the next primitive call
  auto-installs a process-global tracer (see :mod:`repro.obs`);
* :class:`PrimitiveResult` is the common result envelope;
* :func:`empty_result` is what the filters (compact, unique, remove_if,
  copy_if, partition) return for a zero-element input.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro import obs
from repro.obs import resolve_trace_mode
from repro.simgpu.counters import LaunchCounters
from repro.simgpu.device import DeviceSpec
from repro.simgpu.stream import Stream
from repro.simgpu.vectorized import BACKENDS, resolve_backend

__all__ = [
    "resolve_stream",
    "resolve_backend",
    "resolve_trace_mode",
    "primitive_span",
    "BACKENDS",
    "PrimitiveResult",
    "empty_result",
    "DEFAULT_DEVICE",
]

DEFAULT_DEVICE = "maxwell"
"""The paper's primary evaluation device (GeForce GTX 980)."""


def resolve_stream(
    stream: Optional[Union[Stream, DeviceSpec, str]],
    *,
    api: str = "opencl",
    seed: int = 0,
) -> Stream:
    """Coerce the ``stream`` argument every primitive accepts.

    ``None`` creates a fresh Maxwell stream; a device name or spec
    creates a stream on that device; an existing stream is passed
    through (its launch records accumulate across primitives, which is
    how multi-kernel pipelines are priced as one unit).
    """
    if stream is None:
        return Stream(DEFAULT_DEVICE, api=api, seed=seed)
    if isinstance(stream, Stream):
        return stream
    return Stream(stream, api=api, seed=seed)


def _ensure_tracer():
    """The active tracer — auto-installing one when ``REPRO_TRACE``
    asks for tracing and none is installed yet."""
    tracer = obs.active()
    if tracer is not None:
        return tracer
    mode = resolve_trace_mode()
    if mode == "off":
        return None
    return obs.enable(mode)


@contextmanager
def primitive_span(name: str, *, backend: Optional[str] = None, **attrs):
    """Root span of one primitive call (``cat="primitive"``).

    Every user-facing primitive wraps its body in this context manager,
    so a trace always has exactly one root span per primitive call on
    the host track, carrying the resolved backend plus whatever
    geometry/dtype attributes the primitive supplies.  Yields the span
    (the shared no-op span when tracing is off) so primitives can
    attach result attributes afterwards with ``span.set(...)``.
    """
    tracer = _ensure_tracer()
    if tracer is None:
        yield obs.NULL_SPAN
        return
    args = {"backend": resolve_backend(backend)}
    annotations = obs.current_annotations()
    if annotations:
        args.update(annotations)
    args.update(attrs)
    with tracer.span(name, cat="primitive", args=args) as sp:
        yield sp


@dataclass
class PrimitiveResult:
    """Common result envelope returned by every DS primitive.

    Attributes
    ----------
    output:
        The primitive's host-visible result (padded matrix, compacted
        array, ...).  Always a fresh NumPy array.
    counters:
        One :class:`~repro.simgpu.counters.LaunchCounters` per kernel
        launch the primitive performed, in order.
    device:
        The device the primitive ran on.
    extras:
        Primitive-specific numbers (kept count, pad width, ...).
    """

    output: np.ndarray
    counters: List[LaunchCounters]
    device: DeviceSpec
    extras: dict = field(default_factory=dict)

    # An eager result is an always-done repro.Future (registered as a
    # virtual subclass in repro.futures): the same drain code handles a
    # direct ds() return, a pipeline future and a serve future.
    @property
    def done(self) -> bool:
        return True

    def result(self, timeout: Optional[float] = None) -> "PrimitiveResult":
        return self

    @property
    def normalized_extras(self) -> dict:
        """``extras`` under the shared :data:`repro.futures.
        EXTRAS_DEFAULTS` schema (``degraded``/``shards``/``request_id``
        always present)."""
        from repro.futures import normalized_extras

        return normalized_extras(self.extras)

    @property
    def num_launches(self) -> int:
        return len(self.counters)

    @property
    def total_counters(self) -> LaunchCounters:
        merged = self.counters[0]
        for rec in self.counters[1:]:
            merged = merged.merge(rec)
        return merged

    @property
    def bytes_moved(self) -> int:
        return sum(c.bytes_moved for c in self.counters)


def empty_result(values: np.ndarray, stream, **extras) -> PrimitiveResult:
    """A filter's result for a zero-element input: the reference's
    empty output and no launch records (a launch needs at least one
    work-group, and there is nothing to slide)."""
    return PrimitiveResult(output=values.reshape(-1).copy(), counters=[],
                           device=resolve_stream(stream).device,
                           extras=extras)
