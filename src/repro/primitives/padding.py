"""DS Padding — insert extra columns into a row-major matrix, in place.

The paper's motivating example (Section II-A): padding a ``rows x cols``
matrix with ``pad`` extra columns shifts row *i* forward by ``i x pad``
elements.  A regular Data Sliding algorithm handles it with a **single
kernel**, independent of the amount of free space — unlike the
iterative baseline (:mod:`repro.baselines.sung`), whose parallelism is
bounded by the free space and decays to one row at a time (Figure 2).

The kernel is row-oblivious: work-groups tile the flat element range,
and :func:`repro.core.offsets.pad_remap` turns each element's flat input
position into its padded position.  Because padding expands, tiles are
chained tail-first (see :mod:`repro.core.regular`).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, DSConfig
from repro.core.offsets import pad_remap
from repro.core.regular import run_regular_ds
from repro.errors import LaunchError
from repro.primitives.common import PrimitiveResult, primitive_span, resolve_stream
from repro.primitives.opspec import OpDescriptor, register_op
from repro.simgpu.buffers import Buffer
from repro.simgpu.device import DeviceSpec
from repro.simgpu.stream import Stream

__all__ = ["ds_pad", "ds_pad_buffer"]


def ds_pad(
    matrix: np.ndarray,
    pad: int,
    stream: Optional[Union[Stream, DeviceSpec, str]] = None,
    *,
    fill=None,
    config: Optional[DSConfig] = None,
) -> PrimitiveResult:
    """Pad ``pad`` extra columns onto a 2-D matrix using DS Padding.

    Parameters
    ----------
    matrix:
        Host 2-D array (any dtype).  It is copied into a device buffer
        with room for the padded matrix — the in-place requirement of
        the paper is that the *device* allocation is a single buffer,
        which it is.
    pad:
        Number of columns to append.
    fill:
        Optional value for the new cells; ``None`` (the default) leaves
        them unspecified, matching the paper's pure-movement semantics
        (the result array then contains the buffer's prior contents,
        i.e. stale data, in those cells).
    stream, config:
        Execution controls; see :class:`repro.config.DSConfig`.

    Returns
    -------
    PrimitiveResult
        ``output`` is the ``rows x (cols + pad)`` matrix.
    """
    config = config or DEFAULT_CONFIG
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise LaunchError(f"ds_pad expects a 2-D matrix, got ndim={matrix.ndim}")
    rows, cols = matrix.shape
    stream = resolve_stream(stream, seed=config.seed)
    buf = Buffer(np.zeros(rows * (cols + pad), dtype=matrix.dtype), "pad_matrix")
    buf.data[: rows * cols] = matrix.reshape(-1)
    with primitive_span(
        "ds_pad", backend=config.backend, rows=rows, cols=cols, pad=pad,
        dtype=str(matrix.dtype), wg_size=config.wg_size,
    ) as sp:
        result = ds_pad_buffer(
            buf,
            rows,
            cols,
            pad,
            stream,
            config=config,
        )
        sp.set(coarsening=result.geometry.coarsening,
               n_workgroups=result.geometry.n_workgroups)
    if fill is not None:
        # Host epilogue: initialize the new cells.  The paper's DS
        # Padding is a pure movement and leaves them unspecified; the
        # fill is provided for API convenience and is not counted as
        # device traffic.
        buf.data.reshape(rows, cols + pad)[:, cols:] = fill
    return PrimitiveResult(
        output=buf.data.reshape(rows, cols + pad).copy(),
        counters=[result.counters],
        device=stream.device,
        extras={"rows": rows, "cols": cols, "pad": pad,
                "coarsening": result.geometry.coarsening,
                "n_workgroups": result.geometry.n_workgroups},
    )


def ds_pad_buffer(
    buf: Buffer,
    rows: int,
    cols: int,
    pad: int,
    stream: Stream,
    *,
    config: Optional[DSConfig] = None,
):
    """In-place DS Padding on an existing device buffer.

    ``buf`` must hold the ``rows x cols`` matrix in its first
    ``rows * cols`` elements and have capacity for ``rows * (cols+pad)``
    — the pre-allocated adjacent space the paper requires.  Returns the
    :class:`~repro.core.regular.RegularDSResult` of the single launch.
    """
    config = config or DEFAULT_CONFIG
    remap = pad_remap(rows, cols, pad)
    return run_regular_ds(
        buf,
        remap,
        stream,
        wg_size=config.wg_size,
        coarsening=config.coarsening,
        race_tracking=config.race_tracking,
        backend=config.backend,
    )


register_op(OpDescriptor(
    name="ds_pad",
    short="pad",
    kind="regular",
    runner=ds_pad,
    params_signature=lambda args, kwargs: (
        "pad", int(args[1]), "fill", repr(kwargs.get("fill"))),
))
