"""DS Stream Compaction — remove elements equal to a value, in place.

The paper treats stream compaction as the particular *select* whose
predicate is ``element == value`` (Section IV-B, Figure 13): sparse
data is squeezed by dropping a sentinel (zeros in sparse linear
algebra, misses in ray tracing, culled nodes in tree traversal).  The
DS version is one in-place kernel; Figure 13 compares it against
Thrust's in-place and out-of-place removes and against three *unstable*
atomic-based filters (:mod:`repro.baselines.atomic_compact`).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, DSConfig
from repro.core.fused import FuseStage
from repro.core.irregular import run_irregular_ds
from repro.core.predicates import not_equal_to
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

__all__ = ["ds_stream_compact"]


def ds_stream_compact(
    values: np.ndarray,
    remove_value,
    stream: Optional[Union[Stream, DeviceSpec, str]] = None,
    *,
    config: Optional[DSConfig] = None,
) -> PrimitiveResult:
    """Remove every occurrence of ``remove_value``, sliding the kept
    elements left in place (stable).

    ``output`` is the compacted array; ``extras["n_kept"]`` its length.
    Tuning goes through ``config=`` (:class:`repro.config.DSConfig`).
    """
    config = config or DEFAULT_CONFIG
    values = np.asarray(values)
    if values.size == 0:
        return empty_result(values, stream, n_kept=0, n_removed=0,
                            remove_value=remove_value, in_place=True)
    stream = resolve_stream(stream, seed=config.seed)
    buf = Buffer(values.reshape(-1), "compact_in")
    with primitive_span(
        "ds_stream_compact", backend=config.backend, n=int(buf.size),
        dtype=str(buf.data.dtype), wg_size=config.wg_size,
    ) as sp:
        result = run_irregular_ds(
            buf,
            not_equal_to(remove_value),
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
            "remove_value": remove_value,
            "in_place": True,
            "coarsening": result.geometry.coarsening,
            "n_workgroups": result.geometry.n_workgroups,
        },
    )


register_op(OpDescriptor(
    name="ds_stream_compact",
    short="compact",
    kind="irregular",
    runner=ds_stream_compact,
    params_signature=lambda args, kwargs: ("remove_value", repr(args[1])),
    fuse_stage=lambda args, kwargs: FuseStage(
        "pred", not_equal_to(args[1])),
))
