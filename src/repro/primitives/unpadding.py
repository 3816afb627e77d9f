"""DS Unpadding — remove columns from a row-major matrix, in place.

The inverse of DS Padding (Section IV-A): dropping the last ``pad``
columns shifts row *i* backward by ``i x pad`` elements.  The paper
notes unpadding is *trickier* for the baseline because there is no free
space at the start — its baseline uses a single work-group throughout —
while the DS algorithm is again one kernel whose head-first chain makes
the shrinking slide safe at full parallelism.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, DSConfig
from repro.core.offsets import unpad_remap
from repro.core.regular import run_regular_ds
from repro.errors import LaunchError
from repro.primitives.common import PrimitiveResult, primitive_span, resolve_stream
from repro.primitives.opspec import OpDescriptor, register_op
from repro.simgpu.buffers import Buffer
from repro.simgpu.device import DeviceSpec
from repro.simgpu.stream import Stream

__all__ = ["ds_unpad", "ds_unpad_buffer"]


def ds_unpad(
    matrix: np.ndarray,
    pad: int,
    stream: Optional[Union[Stream, DeviceSpec, str]] = None,
    *,
    config: Optional[DSConfig] = None,
) -> PrimitiveResult:
    """Remove the last ``pad`` columns of a 2-D matrix using DS Unpadding.

    Returns a :class:`~repro.primitives.common.PrimitiveResult` whose
    ``output`` is the ``rows x (cols - pad)`` matrix.  Tuning goes
    through ``config=`` (:class:`repro.config.DSConfig`).
    """
    config = config or DEFAULT_CONFIG
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise LaunchError(f"ds_unpad expects a 2-D matrix, got ndim={matrix.ndim}")
    rows, cols = matrix.shape
    if not 0 <= pad < cols:
        raise LaunchError(f"pad must be in [0, cols), got {pad} for {cols} columns")
    stream = resolve_stream(stream, seed=config.seed)
    buf = Buffer(matrix.reshape(-1), "unpad_matrix")
    with primitive_span(
        "ds_unpad", backend=config.backend, rows=rows, cols=cols, pad=pad,
        dtype=str(matrix.dtype), wg_size=config.wg_size,
    ) as sp:
        result = ds_unpad_buffer(
            buf,
            rows,
            cols,
            pad,
            stream,
            config=config,
        )
        sp.set(coarsening=result.geometry.coarsening,
               n_workgroups=result.geometry.n_workgroups)
    kept = cols - pad
    return PrimitiveResult(
        output=buf.data[: rows * kept].reshape(rows, kept).copy(),
        counters=[result.counters],
        device=stream.device,
        extras={"rows": rows, "cols": cols, "pad": pad,
                "coarsening": result.geometry.coarsening,
                "n_workgroups": result.geometry.n_workgroups},
    )


def ds_unpad_buffer(
    buf: Buffer,
    rows: int,
    cols: int,
    pad: int,
    stream: Stream,
    *,
    config: Optional[DSConfig] = None,
):
    """In-place DS Unpadding on an existing device buffer holding the
    ``rows x cols`` matrix.  After the call the compacted matrix
    occupies the first ``rows * (cols - pad)`` elements."""
    config = config or DEFAULT_CONFIG
    remap = unpad_remap(rows, cols, pad)
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
    name="ds_unpad",
    short="unpad",
    kind="regular",
    runner=ds_unpad,
    params_signature=lambda args, kwargs: ("pad", int(args[1])),
))
