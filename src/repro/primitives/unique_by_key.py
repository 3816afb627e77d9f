"""DS Unique-by-key — collapse key runs, values follow their keys.

The by-key flavour of *unique* (Thrust offers ``unique_by_key``): for
each run of equal consecutive **keys**, keep the first key *and its
value*.  One Algorithm 2 launch, with the values as its payload,
compacts both arrays in place — a direct payoff of the paper's generic
kernel.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, DSConfig
from repro.core.irregular import run_irregular_ds
from repro.errors import LaunchError
from repro.primitives.common import PrimitiveResult, primitive_span, resolve_stream
from repro.primitives.opspec import OpDescriptor, register_op
from repro.simgpu.buffers import Buffer
from repro.simgpu.device import DeviceSpec
from repro.simgpu.stream import Stream

__all__ = ["ds_unique_by_key"]


def ds_unique_by_key(
    keys: np.ndarray,
    values: np.ndarray,
    stream: Optional[Union[Stream, DeviceSpec, str]] = None,
    *,
    config: Optional[DSConfig] = None,
) -> PrimitiveResult:
    """Collapse runs of equal consecutive keys, in place and stably.

    Returns a result whose ``output`` is the kept ``(keys, values)``
    pair (as a tuple packed into a 2xN array for the envelope; use
    ``extras["keys"]`` / ``extras["values"]`` for the typed arrays).
    Tuning goes through ``config=`` (:class:`repro.config.DSConfig`).
    """
    config = config or DEFAULT_CONFIG
    keys = np.asarray(keys).reshape(-1)
    values = np.asarray(values).reshape(-1)
    if keys.size != values.size:
        raise LaunchError(
            f"keys ({keys.size}) and values ({values.size}) must match")
    stream = resolve_stream(stream, seed=config.seed)
    kbuf = Buffer(keys, "ubk_keys")
    vbuf = Buffer(values, "ubk_values")
    with primitive_span(
        "ds_unique_by_key", backend=config.backend, n=int(keys.size),
        dtype=str(keys.dtype), wg_size=config.wg_size,
    ) as sp:
        result = run_irregular_ds(
            kbuf, None, stream, payloads=[vbuf],
            wg_size=config.wg_size, coarsening=config.coarsening,
            stencil_unique=True,
            reduction_variant=config.reduction_variant,
            scan_variant=config.scan_variant,
            race_tracking=config.race_tracking, backend=config.backend,
        )
        sp.set(coarsening=result.geometry.coarsening,
               n_workgroups=result.geometry.n_workgroups,
               n_kept=result.n_true)
    out_keys = kbuf.data[: result.n_true].copy()
    out_values = vbuf.data[: result.n_true].copy()
    return PrimitiveResult(
        output=np.stack([out_keys.astype(np.float64),
                         out_values.astype(np.float64)]),
        counters=[result.counters],
        device=stream.device,
        extras={
            "keys": out_keys,
            "values": out_values,
            "n_kept": result.n_true,
            "in_place": True,
        },
    )


register_op(OpDescriptor(
    name="ds_unique_by_key",
    short="unique_by_key",
    kind="keyed",
    runner=ds_unique_by_key,
))
