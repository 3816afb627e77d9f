"""Cross-process request/response transport for the fleet tier.

Two problems stand between a router process and a worker process:

1. **Op chains are not picklable.**  The predicate ops
   (``remove_if``, ``partition``, ...) carry
   :class:`~repro.core.predicates.Predicate` closures, and closures do
   not pickle.  The factory predicates carry *parseable names*
   (``"less_than(0.5)"``, ``"not(is_even)"``), so the chain crosses the
   boundary as data: :func:`freeze_ops` replaces each predicate with a
   ``["__pred__", name]`` marker and — because a hand-built predicate's
   name could lie about its behaviour — **probe-verifies** the revived
   predicate against the original on a fixed probe vector *in the
   router*, where the original still exists.  An unrevivable or
   lying predicate is rejected at submit with
   :class:`~repro.errors.FleetError`; it never reaches a worker.
   :func:`revive_ops` is the worker-side inverse.

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

from typing import List, Optional, Tuple

import numpy as np

from repro.core.predicates import Predicate, from_name
from repro.errors import FleetError
from repro.stream.pool import attach_input, input_descriptor
from repro.stream.source import MemmapSource, as_source

__all__ = ["freeze_ops", "revive_ops", "stage_payload", "attach_payload",
           "stage_result", "fetch_result", "PROBE"]

#: Fixed probe vector for predicate verification: negatives, zero,
#: fractions, integer-valued floats — enough to distinguish every
#: predicate the name vocabulary can express.
PROBE = np.array([-3.0, -1.5, -1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.5])

_SCALARS = (str, int, float, bool, type(None))


def _freeze_value(value, *, op: str):
    if isinstance(value, Predicate):
        revived = from_name(value.name)
        if revived is None:
            raise FleetError(
                f"op {op!r}: predicate {value.name!r} cannot cross the "
                f"process boundary — its name is outside the "
                f"repro.core.predicates.from_name vocabulary")
        if not np.array_equal(value(PROBE), revived(PROBE)):
            raise FleetError(
                f"op {op!r}: predicate {value.name!r} failed probe "
                f"verification — the name does not describe its "
                f"behaviour, so a revived copy would compute different "
                f"results")
        return ["__pred__", value.name]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, _SCALARS):
        return value
    raise FleetError(
        f"op {op!r}: argument {value!r} ({type(value).__name__}) is not "
        f"transportable to a fleet worker (scalars and named predicates "
        f"only)")


def _revive_value(value):
    if isinstance(value, list) and len(value) == 2 and value[0] == "__pred__":
        pred = from_name(value[1])
        if pred is None:  # the router verified; a miss here is a bug
            raise FleetError(
                f"worker could not revive predicate {value[1]!r}")
        return pred
    return value


def freeze_ops(ops) -> List[list]:
    """A picklable form of a ``submit_chain`` op spec.

    Accepts the same shapes :meth:`repro.serve.Server.submit_chain`
    does — each entry a name string or a ``(name, *args[, kwargs])``
    tuple — and returns nested plain lists with predicates replaced by
    verified ``["__pred__", name]`` markers.
    """
    if isinstance(ops, str):  # a bare op name is a one-op chain
        ops = [ops]
    frozen = []
    for item in ops:
        if isinstance(item, str):
            item = (item,)
        if not item:
            raise FleetError("empty op spec in chain")
        name, *args = item
        kwargs = {}
        if args and isinstance(args[-1], dict):
            kwargs = args.pop()
        entry = [str(name)]
        entry.extend(_freeze_value(a, op=str(name)) for a in args)
        if kwargs:
            entry.append({k: _freeze_value(v, op=str(name))
                          for k, v in kwargs.items()})
        frozen.append(entry)
    if not frozen:
        raise FleetError("a fleet request needs at least one op")
    return frozen


def revive_ops(frozen: List[list]) -> List[tuple]:
    """Worker-side inverse of :func:`freeze_ops`."""
    ops = []
    for entry in frozen:
        name, *rest = entry
        kwargs = None
        if rest and isinstance(rest[-1], dict):
            kwargs = rest.pop()
        parts = [name] + [_revive_value(v) for v in rest]
        if kwargs:
            parts.append({k: _revive_value(v) for k, v in kwargs.items()})
        ops.append(tuple(parts))
    return ops


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
