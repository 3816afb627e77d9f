"""Cross-process request/response transport for the fleet tier.

Two problems stand between a router process and a worker process:

1. **Op chains are not picklable.**  A chain crosses the boundary as
   data, with each predicate shipped by its probe-verified name.  The
   codec (:data:`PROBE`, :func:`freeze_ops`, :func:`revive_ops`) lives
   in :mod:`repro.stream.codec`, shared with the stream pool, and is
   re-exported here: the router freezes at submit, so an unrevivable
   or lying predicate is rejected there with
   :class:`~repro.errors.FleetError` and never reaches a worker.

2. **Payloads should not copy through a pipe.**  Request arrays move
   as :mod:`multiprocessing.shared_memory` segments via the same
   descriptor scheme the shard pool uses
   (:func:`repro.stream.pool.input_descriptor` /
   :func:`~repro.stream.pool.attach_input`): the router stages the
   array once into a segment, the worker maps a zero-copy ndarray view
   over it and serves straight from the mapping; only the descriptor
   tuple crosses the queue.  Out-of-core memmap sources cross as their
   path descriptor and stay streamed on the worker.  Responses come
   back the same way (:func:`stage_result` / :func:`fetch_result`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.stream.codec import PROBE, freeze_ops, revive_ops
from repro.stream.pool import attach_input, input_descriptor
from repro.stream.source import MemmapSource, as_source

__all__ = ["freeze_ops", "revive_ops", "stage_payload", "attach_payload",
           "stage_result", "fetch_result", "PROBE"]

# -- payloads ------------------------------------------------------------


def stage_payload(values) -> Tuple[tuple, Optional[object], dict]:
    """Router-side: make one request input cross the boundary.

    Returns ``(descriptor, scratch, meta)``: the descriptor the worker
    attaches (``("shm", name, dtype, n)`` or ``("memmap", path, dtype,
    offset, n)``), the scratch shared-memory segment to unlink once the
    request resolves (``None`` when the input already lives in a file
    or a named segment), and transport metadata — most importantly
    ``meta["in_core"]``: an in-core input must be served as a resident
    ndarray view on the worker (through the micro-batcher and its plan
    cache), never re-interpreted as an out-of-core source.
    """
    source = as_source(values, site="Fleet.submit")
    desc, scratch = input_descriptor(source)
    return desc, scratch, {"in_core": bool(source.in_core)}


def attach_payload(desc: tuple, meta: dict):
    """Worker-side: the submittable input for a staged payload.

    Returns ``(values, shm)`` where ``values`` is either a zero-copy
    ndarray view (in-core request — ``shm`` must stay alive until the
    request resolves) or a reconstructed out-of-core source (streamed
    request — ``shm`` is ``None``).
    """
    if not meta.get("in_core", True):
        if desc[0] == "memmap":
            _, path, dtype, offset, n = desc
            mm = np.memmap(path, dtype=np.dtype(dtype), mode="r",
                           offset=offset, shape=(n,))
            return MemmapSource(mm), None
        # An out-of-core shm source round-trips as a source too (it
        # must keep streaming through the sharded engine).
        from multiprocessing import shared_memory

        from repro.stream.source import SharedMemorySource

        _, name, dtype, n = desc
        seg = shared_memory.SharedMemory(name=name)
        return SharedMemorySource(seg, dtype, n_elems=n), None
    array, shm = attach_input(desc)
    return array, shm


def stage_result(output: np.ndarray) -> Tuple[tuple, object]:
    """Worker-side: stage a response array into a fresh shm segment.

    Returns ``(descriptor, segment)``; the worker closes its handle
    after posting the descriptor, the router unlinks after fetching.
    """
    from multiprocessing import shared_memory

    flat = np.ascontiguousarray(output)
    seg = shared_memory.SharedMemory(create=True,
                                     size=max(1, flat.nbytes))
    np.ndarray(flat.shape, dtype=flat.dtype, buffer=seg.buf)[:] = flat
    return (("shm", seg.name, str(flat.dtype), flat.shape), seg)


def fetch_result(desc: tuple) -> np.ndarray:
    """Router-side: copy a response out of its segment and unlink it."""
    from multiprocessing import shared_memory

    _, name, dtype, shape = desc
    shm = shared_memory.SharedMemory(name=name)
    try:
        view = np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                          buffer=shm.buf)
        out = np.array(view, copy=True)
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
    return out
