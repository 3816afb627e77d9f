"""DS select primitives — remove_if (in place) and copy_if (out of place).

Section IV-B: *select* filters an array by a predicate.  Two flavours
mirror Thrust's API (the paper's Figure 12 comparison):

* :func:`ds_remove_if` — discard elements **satisfying** the predicate,
  sliding the survivors left *in place* (``thrust::remove_if``);
* :func:`ds_copy_if` — copy elements **satisfying** the predicate to a
  new array (``thrust::copy_if``).

Both are single-launch irregular DS algorithms (Algorithm 2): the only
difference is the predicate polarity and the destination buffer.  Both
are stable.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, DSConfig
from repro.core.fused import FuseStage
from repro.core.irregular import run_irregular_ds
from repro.core.predicates import Predicate
from repro.primitives.common import (
    PrimitiveResult,
    empty_result,
    primitive_span,
    resolve_stream,
)
from repro.primitives.opspec import OpDescriptor, register_op
from repro.simgpu.buffers import Buffer
from repro.simgpu.device import DeviceSpec
from repro.simgpu.stream import Stream

__all__ = ["ds_remove_if", "ds_copy_if"]


def ds_remove_if(
    values: np.ndarray,
    predicate: Predicate,
    stream: Optional[Union[Stream, DeviceSpec, str]] = None,
    *,
    config: Optional[DSConfig] = None,
) -> PrimitiveResult:
    """Remove, in place, the elements satisfying ``predicate``.

    ``output`` holds the surviving elements in their original relative
    order (stability), like ``thrust::remove_if`` but without the extra
    passes.  ``extras["n_removed"]`` reports how many were dropped.
    Tuning goes through ``config=`` (:class:`repro.config.DSConfig`).
    """
    config = config or DEFAULT_CONFIG
    values = np.asarray(values)
    if values.size == 0:
        return empty_result(values, stream, n_kept=0, n_removed=0,
                            in_place=True)
    stream = resolve_stream(stream, seed=config.seed)
    buf = Buffer(values.reshape(-1), "select_in")
    with primitive_span(
        "ds_remove_if", backend=config.backend, n=int(buf.size),
        dtype=str(buf.data.dtype), wg_size=config.wg_size,
    ) as sp:
        result = run_irregular_ds(
            buf,
            ~predicate,  # Algorithm 2 *keeps* true elements; remove_if keeps the complement
            stream,
            wg_size=config.wg_size,
            coarsening=config.coarsening,
            reduction_variant=config.reduction_variant,
            scan_variant=config.scan_variant,
            race_tracking=config.race_tracking,
            backend=config.backend,
        )
        sp.set(coarsening=result.geometry.coarsening,
               n_workgroups=result.geometry.n_workgroups,
               n_kept=result.n_true)
    return PrimitiveResult(
        output=buf.data[: result.n_true].copy(),
        counters=[result.counters],
        device=stream.device,
        extras={
            "n_kept": result.n_true,
            "n_removed": result.n_false,
            "in_place": True,
            "coarsening": result.geometry.coarsening,
            "n_workgroups": result.geometry.n_workgroups,
        },
    )


def ds_copy_if(
    values: np.ndarray,
    predicate: Predicate,
    stream: Optional[Union[Stream, DeviceSpec, str]] = None,
    *,
    config: Optional[DSConfig] = None,
) -> PrimitiveResult:
    """Copy the elements satisfying ``predicate`` to a fresh array
    (out of place, stable) — DS Copy_if in Figure 12.  Tuning goes
    through ``config=`` (:class:`repro.config.DSConfig`)."""
    config = config or DEFAULT_CONFIG
    values = np.asarray(values)
    if values.size == 0:
        return empty_result(values, stream, n_kept=0, n_removed=0,
                            in_place=False)
    stream = resolve_stream(stream, seed=config.seed)
    buf = Buffer(values.reshape(-1), "select_in")
    out = Buffer(np.zeros(values.size, dtype=values.dtype), "select_out")
    with primitive_span(
        "ds_copy_if", backend=config.backend, n=int(buf.size),
        dtype=str(buf.data.dtype), wg_size=config.wg_size,
    ) as sp:
        result = run_irregular_ds(
            buf,
            predicate,
            stream,
            out=out,
            wg_size=config.wg_size,
            coarsening=config.coarsening,
            reduction_variant=config.reduction_variant,
            scan_variant=config.scan_variant,
            backend=config.backend,
        )
        sp.set(coarsening=result.geometry.coarsening,
               n_workgroups=result.geometry.n_workgroups,
               n_kept=result.n_true)
    return PrimitiveResult(
        output=out.data[: result.n_true].copy(),
        counters=[result.counters],
        device=stream.device,
        extras={
            "n_kept": result.n_true,
            "n_removed": result.n_false,
            "in_place": False,
            "coarsening": result.geometry.coarsening,
            "n_workgroups": result.geometry.n_workgroups,
        },
    )


register_op(OpDescriptor(
    name="ds_remove_if",
    short="remove_if",
    kind="irregular",
    runner=ds_remove_if,
    params_signature=lambda args, kwargs: ("predicate", args[1].name),
    fuse_stage=lambda args, kwargs: FuseStage("pred", ~args[1]),
))

register_op(OpDescriptor(
    name="ds_copy_if",
    short="copy_if",
    kind="irregular",
    runner=ds_copy_if,
    params_signature=lambda args, kwargs: ("predicate", args[1].name),
    # Out of place: its result buffer is fresh, so it never chains an
    # in-place fused group.
))
