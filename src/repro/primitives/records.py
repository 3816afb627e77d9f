"""DS record compaction — relational select over structure-of-arrays.

Real relational rows are several same-length columns (structure of
arrays).  :func:`ds_compact_records` filters a whole record set by a
predicate on one key column with a **single** Algorithm 2 launch whose
payloads are the other columns: every column compacts in place,
stably, sharing one flag chain.  This is the paper's relational-algebra
motivation (Section I) executed on actual multi-column records rather
than a lone array.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, DSConfig
from repro.core.irregular import run_irregular_ds
from repro.core.predicates import Predicate
from repro.errors import LaunchError
from repro.primitives.common import PrimitiveResult, primitive_span, resolve_stream
from repro.primitives.opspec import OpDescriptor, register_op
from repro.simgpu.buffers import Buffer
from repro.simgpu.device import DeviceSpec
from repro.simgpu.stream import Stream

__all__ = ["ds_compact_records"]


def ds_compact_records(
    key_column: np.ndarray,
    columns: Dict[str, np.ndarray],
    predicate: Predicate,
    stream: Optional[Union[Stream, DeviceSpec, str]] = None,
    *,
    config: Optional[DSConfig] = None,
) -> PrimitiveResult:
    """Keep the records whose key satisfies ``predicate``.

    Parameters
    ----------
    key_column:
        The column the predicate is evaluated on.
    columns:
        Named payload columns (same length as the key column); every
        one slides in the same launch.
    config:
        Execution controls (:class:`repro.config.DSConfig`).

    Returns
    -------
    PrimitiveResult
        ``output`` is the kept key column; ``extras["columns"]`` maps
        each payload name to its kept column; ``extras["n_kept"]`` is
        the surviving record count.
    """
    config = config or DEFAULT_CONFIG
    key_column = np.asarray(key_column).reshape(-1)
    n = key_column.size
    names = list(columns)
    payload_arrays = []
    for name in names:
        col = np.asarray(columns[name]).reshape(-1)
        if col.size != n:
            raise LaunchError(
                f"column {name!r} has {col.size} rows, key column has {n}")
        payload_arrays.append(col)

    stream = resolve_stream(stream, seed=config.seed)
    kbuf = Buffer(key_column, "rec_key")
    pbufs = [Buffer(col, f"rec_{name}") for name, col in
             zip(names, payload_arrays)]
    with primitive_span(
        "ds_compact_records", backend=config.backend, n=int(n),
        n_columns=len(names), dtype=str(key_column.dtype),
        wg_size=config.wg_size,
    ) as sp:
        result = run_irregular_ds(
            kbuf, predicate, stream, payloads=pbufs,
            wg_size=config.wg_size, coarsening=config.coarsening,
            reduction_variant=config.reduction_variant,
            scan_variant=config.scan_variant,
            race_tracking=config.race_tracking, backend=config.backend,
        )
        sp.set(coarsening=result.geometry.coarsening,
               n_workgroups=result.geometry.n_workgroups,
               n_kept=result.n_true)
    kept = result.n_true
    return PrimitiveResult(
        output=kbuf.data[:kept].copy(),
        counters=[result.counters],
        device=stream.device,
        extras={
            "columns": {name: buf.data[:kept].copy()
                        for name, buf in zip(names, pbufs)},
            "n_kept": kept,
            "n_removed": n - kept,
            "in_place": True,
        },
    )


register_op(OpDescriptor(
    name="ds_compact_records",
    short="compact_records",
    kind="keyed",
    runner=ds_compact_records,
    params_signature=lambda args, kwargs: (
        "columns", tuple(sorted(args[1])), "predicate", args[2].name),
))
