"""Generic in-place slides: insert a gap, erase a range.

Two more members of the regular DS family (Algorithm 1 with
piecewise-constant shifts) that the paper's framework directly enables:

* :func:`ds_insert_gap` — open a hole inside an array without copying
  it out (e.g. making room for a batch insert in a sorted column);
* :func:`ds_erase_range` — close a hole, sliding the tail left.

Both are single-launch, stable and in place, and both reduce to matrix
padding/unpadding when the positions align with row boundaries — the
tests exploit that equivalence as a cross-check.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, DSConfig
from repro.core.offsets import erase_range_remap, insert_gap_remap
from repro.core.regular import run_regular_ds
from repro.primitives.common import PrimitiveResult, primitive_span, resolve_stream
from repro.primitives.opspec import OpDescriptor, register_op
from repro.simgpu.buffers import Buffer
from repro.simgpu.device import DeviceSpec
from repro.simgpu.stream import Stream

__all__ = ["ds_insert_gap", "ds_erase_range"]

StreamLike = Optional[Union[Stream, DeviceSpec, str]]


def ds_insert_gap(
    values: np.ndarray,
    position: int,
    gap: int,
    stream: StreamLike = None,
    *,
    fill=None,
    config: Optional[DSConfig] = None,
) -> PrimitiveResult:
    """Insert a ``gap``-element hole at ``position``, in place.

    ``output`` has ``values.size + gap`` elements; the hole holds
    ``fill`` if given, otherwise unspecified (stale) data, matching the
    pure-movement semantics of the paper's padding.  Tuning goes through
    ``config=`` (:class:`repro.config.DSConfig`).
    """
    config = config or DEFAULT_CONFIG
    values = np.asarray(values).reshape(-1)
    stream = resolve_stream(stream, seed=config.seed)
    buf = Buffer(np.zeros(values.size + gap, dtype=values.dtype), "slide")
    buf.data[: values.size] = values
    remap = insert_gap_remap(values.size, position, gap)
    with primitive_span(
        "ds_insert_gap", backend=config.backend, n=int(values.size), gap=gap,
        dtype=str(values.dtype), wg_size=config.wg_size,
    ) as sp:
        result = run_regular_ds(buf, remap, stream, wg_size=config.wg_size,
                                coarsening=config.coarsening,
                                race_tracking=config.race_tracking,
                                backend=config.backend)
        sp.set(coarsening=result.geometry.coarsening,
               n_workgroups=result.geometry.n_workgroups)
    if fill is not None and gap:
        buf.data[position: position + gap] = fill
    return PrimitiveResult(
        output=buf.data.copy(),
        counters=[result.counters],
        device=stream.device,
        extras={"position": position, "gap": gap,
                "n_workgroups": result.geometry.n_workgroups},
    )


def ds_erase_range(
    values: np.ndarray,
    position: int,
    count: int,
    stream: StreamLike = None,
    *,
    config: Optional[DSConfig] = None,
) -> PrimitiveResult:
    """Erase ``count`` elements at ``position``, sliding the tail left
    in place.  ``output`` has ``values.size - count`` elements.  Tuning
    goes through ``config=`` (:class:`repro.config.DSConfig`)."""
    config = config or DEFAULT_CONFIG
    values = np.asarray(values).reshape(-1)
    stream = resolve_stream(stream, seed=config.seed)
    buf = Buffer(values, "slide")
    remap = erase_range_remap(values.size, position, count)
    with primitive_span(
        "ds_erase_range", backend=config.backend, n=int(values.size),
        count=count, dtype=str(values.dtype), wg_size=config.wg_size,
    ) as sp:
        result = run_regular_ds(buf, remap, stream, wg_size=config.wg_size,
                                coarsening=config.coarsening,
                                race_tracking=config.race_tracking,
                                backend=config.backend)
        sp.set(coarsening=result.geometry.coarsening,
               n_workgroups=result.geometry.n_workgroups)
    return PrimitiveResult(
        output=buf.data[: values.size - count].copy(),
        counters=[result.counters],
        device=stream.device,
        extras={"position": position, "count": count,
                "n_workgroups": result.geometry.n_workgroups},
    )


register_op(OpDescriptor(
    name="ds_insert_gap",
    short="insert_gap",
    kind="regular",
    runner=ds_insert_gap,
    params_signature=lambda args, kwargs: (
        "position", int(args[1]), "gap", int(args[2]),
        "fill", repr(kwargs.get("fill"))),
))

register_op(OpDescriptor(
    name="ds_erase_range",
    short="erase_range",
    kind="regular",
    runner=ds_erase_range,
    params_signature=lambda args, kwargs: (
        "position", int(args[1]), "count", int(args[2])),
))
