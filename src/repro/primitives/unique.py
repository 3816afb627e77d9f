"""DS Unique — keep the first of each run of equal consecutive elements.

Section IV-C (Figure 15): for each group of consecutive equal elements,
*unique* keeps only the first — the relational-algebra ``unique`` over a
sorted column, and exactly ``thrust::unique``'s semantics (not a global
deduplication).

The predicate is a **stencil**: element *i* is kept iff
``a[i] != a[i-1]``.  Inside a work-group the left neighbour comes from
the lock-step vector (the simulator's stand-in for ``__shfl_up``); at
tile boundaries it is read directly from global memory during the
loading stage, which is safe in place because any earlier store to that
location can only have rewritten the identical value (see the analysis
in :mod:`repro.core.irregular`).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, DSConfig
from repro.core.fused import FuseStage
from repro.core.irregular import run_irregular_ds
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

__all__ = ["ds_unique"]


def ds_unique(
    values: np.ndarray,
    stream: Optional[Union[Stream, DeviceSpec, str]] = None,
    *,
    config: Optional[DSConfig] = None,
) -> PrimitiveResult:
    """Collapse runs of equal consecutive elements in place (stable).

    ``output`` holds one representative per run, in order;
    ``extras["n_kept"]`` is the number of runs.  Tuning goes through
    ``config=`` (:class:`repro.config.DSConfig`).
    """
    config = config or DEFAULT_CONFIG
    values = np.asarray(values)
    if values.size == 0:
        return empty_result(values, stream, n_kept=0, n_removed=0,
                            in_place=True)
    stream = resolve_stream(stream, seed=config.seed)
    buf = Buffer(values.reshape(-1), "unique_in")
    with primitive_span(
        "ds_unique", backend=config.backend, n=int(buf.size),
        dtype=str(buf.data.dtype), wg_size=config.wg_size,
    ) as sp:
        result = run_irregular_ds(
            buf,
            None,
            stream,
            wg_size=config.wg_size,
            coarsening=config.coarsening,
            stencil_unique=True,
            reduction_variant=config.reduction_variant,
            scan_variant=config.scan_variant,
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


register_op(OpDescriptor(
    name="ds_unique",
    short="unique",
    kind="irregular",
    runner=ds_unique,
    fuse_stage=lambda args, kwargs: FuseStage("stencil"),
))
