"""Alignment-driven padding — the paper's Section I memory-alignment use.

The introduction motivates padding with memory alignment: GPU memory
systems coalesce best when each matrix row starts on a transaction
boundary.  :func:`ds_pad_to_alignment` computes the minimal number of
extra columns that makes the row stride a multiple of the requested
byte alignment and applies DS Padding; :func:`alignment_pad_columns` is
the pure calculation, usable for planning.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, DSConfig
from repro.errors import LaunchError
from repro.primitives.common import PrimitiveResult, primitive_span, resolve_stream
from repro.primitives.opspec import OpDescriptor, register_op
from repro.primitives.padding import ds_pad
from repro.simgpu.device import DeviceSpec
from repro.simgpu.stream import Stream

__all__ = ["alignment_pad_columns", "ds_pad_to_alignment"]

StreamLike = Optional[Union[Stream, DeviceSpec, str]]


def alignment_pad_columns(cols: int, itemsize: int,
                          alignment_bytes: int = 128) -> int:
    """Extra columns needed so ``(cols + pad) * itemsize`` is a multiple
    of ``alignment_bytes`` (128 is the coalescing granularity of the
    paper's GPUs)."""
    if cols <= 0 or itemsize <= 0:
        raise LaunchError(
            f"cols and itemsize must be positive, got {cols}, {itemsize}")
    if alignment_bytes <= 0 or alignment_bytes % itemsize:
        raise LaunchError(
            f"alignment {alignment_bytes} must be a positive multiple of "
            f"itemsize {itemsize}")
    elems_per_align = alignment_bytes // itemsize
    return (-cols) % elems_per_align


def ds_pad_to_alignment(
    matrix: np.ndarray,
    alignment_bytes: int = 128,
    stream: StreamLike = None,
    *,
    fill=None,
    config: Optional[DSConfig] = None,
) -> PrimitiveResult:
    """Pad a row-major matrix so each row starts on an
    ``alignment_bytes`` boundary, using a single in-place DS Padding
    launch.  ``extras["pad"]`` reports the inserted columns (possibly
    zero, in which case the matrix is returned unchanged without a
    launch).  Tuning goes through ``config=``
    (:class:`repro.config.DSConfig`)."""
    config = config or DEFAULT_CONFIG
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise LaunchError(
            f"ds_pad_to_alignment expects a 2-D matrix, got ndim={matrix.ndim}")
    pad = alignment_pad_columns(matrix.shape[1], matrix.itemsize,
                                alignment_bytes)
    if pad == 0:
        return PrimitiveResult(
            output=matrix.copy(),
            counters=[],
            device=resolve_stream(stream, seed=config.seed).device,
            extras={"pad": 0, "alignment_bytes": alignment_bytes},
        )
    with primitive_span(
        "ds_pad_to_alignment", backend=config.backend, pad=pad,
        alignment_bytes=alignment_bytes, dtype=str(matrix.dtype),
        wg_size=config.wg_size,
    ):
        result = ds_pad(matrix, pad, stream, fill=fill, config=config)
    result.extras["alignment_bytes"] = alignment_bytes
    return result


register_op(OpDescriptor(
    name="ds_pad_to_alignment",
    short="pad_to_alignment",
    kind="regular",
    runner=ds_pad_to_alignment,
    params_signature=lambda args, kwargs: (
        "alignment_bytes", int(args[1]) if len(args) > 1 else 128,
        "fill", repr(kwargs.get("fill"))),
))
