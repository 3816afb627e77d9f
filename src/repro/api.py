"""High-level convenience API for the Data Sliding library.

These functions expose the paper's primitives with a plain-NumPy
surface and a ``backend`` switch:

* ``backend="sim"`` (default) executes the real in-place DS kernels,
  honouring the ``REPRO_BACKEND`` environment variable to pick between
  the event-level scheduler and the vectorized fast path;
* ``backend="simulated"`` forces the event-level scheduler — the
  faithful reproduction, with schedule-dependent counters;
* ``backend="vectorized"`` forces the tile-granularity fast path —
  identical outputs and traffic counters at a fraction of the wall
  clock (see ``docs/simulator.md`` for the equivalence contract);
* ``backend="numpy"`` executes the reference semantics directly —
  bit-identical results at native NumPy speed, with no launch records.

Every function returns the result array; pass ``return_result=True`` to
receive the full :class:`~repro.primitives.common.PrimitiveResult`
(counters, device, extras) instead.

Example
-------
>>> import numpy as np
>>> from repro.api import compact
>>> compact(np.asarray([3.0, 0.0, 7.0, 0.0, 1.0], dtype=np.float32), 0.0)
array([3., 7., 1.], dtype=float32)
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import DEFAULT_CONFIG, DSConfig
from repro.core.predicates import Predicate
from repro.errors import ReproError
from repro.primitives import (
    ds_copy_if,
    ds_pad,
    ds_partition,
    ds_remove_if,
    ds_stream_compact,
    ds_unique,
    ds_unpad,
)
from repro.primitives.common import PrimitiveResult
from repro.reference import (
    compact_ref,
    copy_if_ref,
    pad_ref,
    partition_ref,
    remove_if_ref,
    unique_ref,
    unpad_ref,
)
from repro.simgpu.device import DeviceSpec
from repro.simgpu.stream import Stream
from repro.simgpu.vectorized import REMOVED_BACKENDS, REMOVED_NOTE

__all__ = ["pad", "unpad", "remove_if", "copy_if", "compact", "unique", "partition"]

StreamLike = Optional[Union[Stream, DeviceSpec, str]]


_DS_BACKENDS = {"sim": None, "simulated": "simulated",
                "vectorized": "vectorized"}


def _normalize_backend(backend: str):
    """Split the high-level ``backend`` into (numpy?, DS backend).

    ``"sim"`` maps to ``None`` so the DS layer still honours the
    ``REPRO_BACKEND`` environment override; the explicit names pin it.
    """
    if backend == "numpy":
        return True, None
    if backend in _DS_BACKENDS:
        return False, _DS_BACKENDS[backend]
    note = (f"; {REMOVED_NOTE}"
            if str(backend).lower() in REMOVED_BACKENDS else "")
    raise ReproError(
        f"backend must be one of 'sim', 'simulated', 'vectorized' or "
        f"'numpy', got {backend!r}{note}")


def _ds_config(primitive: str, config: Optional[DSConfig],
               ds_backend: Optional[str]) -> DSConfig:
    """Build the DS-layer config for one api call.

    The api's own ``backend=`` parameter pins the config's backend;
    conflicting pins raise.
    """
    cfg = config or DEFAULT_CONFIG
    if ds_backend is not None:
        if cfg.backend is not None and cfg.backend != ds_backend:
            raise ReproError(
                f"{primitive}: backend={ds_backend!r} conflicts with "
                f"config.backend={cfg.backend!r}")
        cfg = cfg.replace(backend=ds_backend)
    return cfg


def _wrap_numpy(output: np.ndarray, extras: dict) -> PrimitiveResult:
    from repro.simgpu.device import get_device

    return PrimitiveResult(
        output=output, counters=[], device=get_device("maxwell"),
        extras={**extras, "backend": "numpy"},
    )


def pad(matrix: np.ndarray, columns: int, *, backend: str = "sim",
        fill=0, stream: StreamLike = None, config: Optional[DSConfig] = None,
        return_result: bool = False, **kw):
    """Append ``columns`` extra columns to a row-major matrix (DS Padding)."""
    use_numpy, ds_backend = _normalize_backend(backend)
    if use_numpy:
        result = _wrap_numpy(pad_ref(matrix, columns, fill=fill),
                             {"pad": columns})
    else:
        cfg = _ds_config("pad", config, ds_backend)
        result = ds_pad(matrix, columns, stream, fill=fill, config=cfg, **kw)
    return result if return_result else result.output


def unpad(matrix: np.ndarray, columns: int, *, backend: str = "sim",
          stream: StreamLike = None, config: Optional[DSConfig] = None,
          return_result: bool = False, **kw):
    """Remove the last ``columns`` columns of a matrix (DS Unpadding)."""
    use_numpy, ds_backend = _normalize_backend(backend)
    if use_numpy:
        result = _wrap_numpy(unpad_ref(matrix, columns), {"pad": columns})
    else:
        cfg = _ds_config("unpad", config, ds_backend)
        result = ds_unpad(matrix, columns, stream, config=cfg, **kw)
    return result if return_result else result.output


def remove_if(values: np.ndarray, predicate: Predicate, *, backend: str = "sim",
              stream: StreamLike = None, config: Optional[DSConfig] = None,
              return_result: bool = False, **kw):
    """Remove elements satisfying ``predicate``, stably and in place
    (DS Remove_if)."""
    use_numpy, ds_backend = _normalize_backend(backend)
    if use_numpy:
        out = remove_if_ref(values, predicate)
        result = _wrap_numpy(out, {"n_kept": out.size})
    else:
        cfg = _ds_config("remove_if", config, ds_backend)
        result = ds_remove_if(values, predicate, stream, config=cfg, **kw)
    return result if return_result else result.output


def copy_if(values: np.ndarray, predicate: Predicate, *, backend: str = "sim",
            stream: StreamLike = None, config: Optional[DSConfig] = None,
            return_result: bool = False, **kw):
    """Copy elements satisfying ``predicate`` to a fresh array (DS Copy_if)."""
    use_numpy, ds_backend = _normalize_backend(backend)
    if use_numpy:
        out = copy_if_ref(values, predicate)
        result = _wrap_numpy(out, {"n_kept": out.size})
    else:
        cfg = _ds_config("copy_if", config, ds_backend)
        result = ds_copy_if(values, predicate, stream, config=cfg, **kw)
    return result if return_result else result.output


def compact(values: np.ndarray, remove_value, *, backend: str = "sim",
            stream: StreamLike = None, config: Optional[DSConfig] = None,
            return_result: bool = False, **kw):
    """Drop every occurrence of ``remove_value`` (DS Stream Compaction)."""
    use_numpy, ds_backend = _normalize_backend(backend)
    if use_numpy:
        out = compact_ref(values, remove_value)
        result = _wrap_numpy(out, {"n_kept": out.size})
    else:
        cfg = _ds_config("compact", config, ds_backend)
        result = ds_stream_compact(values, remove_value, stream,
                                   config=cfg, **kw)
    return result if return_result else result.output


def unique(values: np.ndarray, *, backend: str = "sim",
           stream: StreamLike = None, config: Optional[DSConfig] = None,
           return_result: bool = False, **kw):
    """Keep the first of each run of equal consecutive elements (DS Unique)."""
    use_numpy, ds_backend = _normalize_backend(backend)
    if use_numpy:
        out = unique_ref(values)
        result = _wrap_numpy(out, {"n_kept": out.size})
    else:
        cfg = _ds_config("unique", config, ds_backend)
        result = ds_unique(values, stream, config=cfg, **kw)
    return result if return_result else result.output


def partition(values: np.ndarray, predicate: Predicate, *, backend: str = "sim",
              stream: StreamLike = None, config: Optional[DSConfig] = None,
              return_result: bool = False, **kw):
    """Stable partition: predicate-true elements first (DS Partition).

    Returns ``(array, n_true)`` — or the full result with
    ``return_result=True`` (``extras["n_true"]`` holds the split)."""
    use_numpy, ds_backend = _normalize_backend(backend)
    if use_numpy:
        out, n_true = partition_ref(values, predicate)
        result = _wrap_numpy(out, {"n_true": n_true})
    else:
        cfg = _ds_config("partition", config, ds_backend)
        result = ds_partition(values, predicate, stream, config=cfg, **kw)
    if return_result:
        return result
    return result.output, result.extras["n_true"]
