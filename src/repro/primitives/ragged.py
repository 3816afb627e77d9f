"""Ragged-to-uniform padding — per-group shifts, the general regular DS.

The paper defines regular DS algorithms as sliding *groups of
consecutive elements by a constant amount ... which might be different
for each group* (Section I).  Matrix padding is the special case where
every group (row) has the same width; this module implements the
general case: **packed ragged rows** (CSR-style storage: a values array
plus per-row widths) slide out to a uniform row stride in one in-place
launch, and back.

Use cases are the same as padding's — memory alignment and vectorized
row access — for genuinely ragged data: CSR sparse matrices densified
per-row-block, batched variable-length sequences padded for SIMD
processing, text/token batches.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, DSConfig
from repro.core.offsets import ragged_pad_remap, ragged_unpad_remap
from repro.core.regular import run_regular_ds
from repro.errors import LaunchError
from repro.primitives.common import PrimitiveResult, primitive_span, resolve_stream
from repro.primitives.opspec import OpDescriptor, register_op
from repro.simgpu.buffers import Buffer
from repro.simgpu.device import DeviceSpec
from repro.simgpu.stream import Stream

__all__ = ["ds_ragged_pad", "ds_ragged_unpad"]

StreamLike = Optional[Union[Stream, DeviceSpec, str]]


def ds_ragged_pad(
    values: np.ndarray,
    widths,
    stride: Optional[int] = None,
    stream: StreamLike = None,
    *,
    fill=None,
    config: Optional[DSConfig] = None,
) -> PrimitiveResult:
    """Slide packed ragged rows out to a uniform stride, in place.

    Parameters
    ----------
    values:
        The packed row data (``sum(widths)`` elements).
    widths:
        Elements per row.
    stride:
        Uniform row stride after the slide; defaults to the widest row.
    fill:
        Optional value for each row's padding tail (host epilogue, like
        :func:`~repro.primitives.padding.ds_pad`'s).
    config:
        Execution controls (:class:`repro.config.DSConfig`).

    Returns
    -------
    PrimitiveResult
        ``output`` is the ``(n_rows, stride)`` matrix;
        ``extras["widths"]`` echoes the row widths for the inverse.
    """
    config = config or DEFAULT_CONFIG
    values = np.asarray(values).reshape(-1)
    widths = np.asarray(widths, dtype=np.int64)
    if values.size != int(widths.sum()):
        raise LaunchError(
            f"packed values have {values.size} elements but widths sum to "
            f"{int(widths.sum())}")
    if stride is None:
        stride = int(widths.max()) if widths.size else 0
    remap = ragged_pad_remap(widths, stride)
    stream = resolve_stream(stream, seed=config.seed)
    buf = Buffer(np.zeros(remap.total_out, dtype=values.dtype), "ragged")
    buf.data[: values.size] = values
    with primitive_span(
        "ds_ragged_pad", backend=config.backend, n=int(values.size),
        n_rows=int(widths.size), stride=stride, dtype=str(values.dtype),
        wg_size=config.wg_size,
    ) as sp:
        result = run_regular_ds(buf, remap, stream, wg_size=config.wg_size,
                                coarsening=config.coarsening,
                                race_tracking=config.race_tracking,
                                backend=config.backend)
        sp.set(coarsening=result.geometry.coarsening,
               n_workgroups=result.geometry.n_workgroups)
    matrix = buf.data.reshape(widths.size, stride)
    if fill is not None:
        cols = np.arange(stride)
        matrix[cols[None, :] >= widths[:, None]] = fill
    return PrimitiveResult(
        output=matrix.copy(),
        counters=[result.counters],
        device=stream.device,
        extras={"widths": widths.copy(), "stride": stride,
                "n_workgroups": result.geometry.n_workgroups},
    )


def ds_ragged_unpad(
    matrix: np.ndarray,
    widths,
    stream: StreamLike = None,
    *,
    config: Optional[DSConfig] = None,
) -> PrimitiveResult:
    """Pack a uniform-stride matrix back into ragged rows, in place.

    ``matrix`` is ``(n_rows, stride)``; ``output`` is the packed values
    array of ``sum(widths)`` elements (row contents concatenated, each
    row's padding dropped).  Tuning goes through ``config=``
    (:class:`repro.config.DSConfig`)."""
    config = config or DEFAULT_CONFIG
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise LaunchError(
            f"ds_ragged_unpad expects a 2-D matrix, got ndim={matrix.ndim}")
    widths = np.asarray(widths, dtype=np.int64)
    n_rows, stride = matrix.shape
    if widths.size != n_rows:
        raise LaunchError(
            f"matrix has {n_rows} rows but {widths.size} widths were given")
    remap = ragged_unpad_remap(widths, stride)
    stream = resolve_stream(stream, seed=config.seed)
    buf = Buffer(matrix.reshape(-1), "ragged")
    with primitive_span(
        "ds_ragged_unpad", backend=config.backend, n_rows=int(n_rows),
        stride=int(stride), dtype=str(matrix.dtype), wg_size=config.wg_size,
    ) as sp:
        result = run_regular_ds(buf, remap, stream, wg_size=config.wg_size,
                                coarsening=config.coarsening,
                                race_tracking=config.race_tracking,
                                backend=config.backend)
        sp.set(coarsening=result.geometry.coarsening,
               n_workgroups=result.geometry.n_workgroups)
    return PrimitiveResult(
        output=buf.data[: remap.total_out].copy(),
        counters=[result.counters],
        device=stream.device,
        extras={"widths": widths.copy(), "stride": stride,
                "n_workgroups": result.geometry.n_workgroups},
    )


def _widths_signature(widths) -> tuple:
    widths = np.asarray(widths, dtype=np.int64)
    return (int(widths.size), int(widths.sum()),
            int(widths.max()) if widths.size else 0)


register_op(OpDescriptor(
    name="ds_ragged_pad",
    short="ragged_pad",
    kind="regular",
    runner=ds_ragged_pad,
    params_signature=lambda args, kwargs: (
        "widths", _widths_signature(args[1]),
        "stride", None if len(args) < 3 or args[2] is None else int(args[2]),
        "fill", repr(kwargs.get("fill"))),
))

register_op(OpDescriptor(
    name="ds_ragged_unpad",
    short="ragged_unpad",
    kind="regular",
    runner=ds_ragged_unpad,
    params_signature=lambda args, kwargs: (
        "widths", _widths_signature(args[1])),
))
