"""The worker pool: one shard per process, shared-memory NumPy buffers.

:func:`pool_shards` is the pooled producer of the streaming engine's
one shard loop (:func:`~repro.stream.engine.stream_run` with
``workers > 0``): *N* forked worker processes each pull shard tasks
from a queue, read their input slice directly from the source's
backing store (a memmap reopened by path, or a
``multiprocessing.shared_memory`` segment attached by name — in-core
arrays are staged into a scratch segment first, so **no element data
ever crosses a pickle boundary**), run the ordinary DS chain via
:func:`~repro.stream.engine.run_shard_chain`, and write the shard's
output into a shared output region.

Workers finish out of order; each finished shard reaches the engine's
stitcher as a :class:`~repro.stream.engine.ShardDone` record whose
output is a view of the shared region, in completion order, so the
stitcher's ledger walk spins on the genuinely out-of-order schedule
the decoupled-lookback state machine exists for.  ``unique`` as the
final stage is the exception: its value-equality boundary rule —
shard *k*'s first output element is dropped iff its stage-input first
element equals the nearest non-empty predecessor's stage-input last
element — is applied here, in ascending shard order, before those
shards are handed on.

Fork start method is required: the chain's predicate closures
(:class:`~repro.core.predicates.Predicate` wraps lambdas) ride into the
children as inherited memory, not pickled ``Process`` args.  Platforms
without ``fork`` fall back to the in-process loop (the engine warns).

The output region is sized from the input extent: every streamable
shrink op writes at most its shard's input length, and pad/unpad map
affinely (``rows x (cols ± pad)``), so shard *k* owns a disjoint,
precomputed slice — workers never contend.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import replace
from multiprocessing import resource_tracker
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.config import DSConfig
from repro.errors import ReproError
from repro.simgpu.stream import Stream
from repro.stream.engine import (
    STREAMABLE_OPS,
    ShardDone,
    _out_cols,
    run_shard_chain,
)
from repro.stream.plan import Shard
from repro.stream.source import DSSource, MemmapSource, SharedMemorySource

__all__ = ["pool_shards", "fork_unavailable_reason", "input_descriptor",
           "attach_input"]

# This module forks for both the shard pool and the fleet transport.  A
# child inherits every lock in the state the fork found it, and the
# fleet forks while its other threads create and unlink shared-memory
# segments under the resource tracker's lock: a child forked while
# another thread held it would block forever on its first SharedMemory.
# Holding the lock across every fork hands the child a released lock,
# for one uncontended acquire per fork and nothing per request.  (A
# Lock on Python 3.10, an RLock from 3.11; acquire/release suits both.)
# Other locks can still be inherited held; only forking from a process
# with no other threads rules that out.
if hasattr(os, "register_at_fork"):
    _TRACKER_LOCK = resource_tracker._resource_tracker._lock
    os.register_at_fork(before=_TRACKER_LOCK.acquire,
                        after_in_parent=_TRACKER_LOCK.release,
                        after_in_child=_TRACKER_LOCK.release)


def fork_unavailable_reason() -> Optional[str]:
    """Why forked workers are impossible here (``None`` when they work)."""
    try:
        import multiprocessing.shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - exotic platforms
        return "multiprocessing.shared_memory is unavailable"
    if "fork" not in multiprocessing.get_all_start_methods():
        return ("the worker pool needs the 'fork' start method "
                "(predicate closures are not picklable)")
    return None


def _input_descriptor(source: DSSource):
    """How a forked worker re-opens the input without copying through a
    pickle: ``("memmap", path, dtype, offset, n)`` reopens the file,
    ``("shm", name, dtype, n)`` attaches the segment.  Returns the
    descriptor plus a scratch segment to unlink afterwards (set when an
    in-core array had to be staged)."""
    from multiprocessing import shared_memory

    if isinstance(source, MemmapSource) and source.path:
        return (("memmap", source.path, str(source.dtype),
                 source.offset_bytes, int(source.n_elems)), None)
    if isinstance(source, SharedMemorySource):
        return (("shm", source.name, str(source.dtype),
                 int(source.n_elems)), None)
    # In-core (or path-less) input: stage it into a scratch segment the
    # children inherit by name.  The data is already resident, so this
    # is one flat copy, not a materialization.
    flat = np.ascontiguousarray(source.read(0, int(source.n_elems)))
    scratch = shared_memory.SharedMemory(
        create=True, size=max(1, flat.nbytes))
    np.ndarray(flat.shape, dtype=flat.dtype,
               buffer=scratch.buf)[:] = flat
    return (("shm", scratch.name, str(flat.dtype), int(flat.size)),
            scratch)


def _attach_input(desc) -> Tuple[np.ndarray, Optional[object]]:
    """Worker-side: the flat input array for ``desc`` (plus the shm
    handle to keep alive, when one was attached)."""
    from multiprocessing import shared_memory

    kind = desc[0]
    if kind == "memmap":
        _, path, dtype, offset, n = desc
        mm = np.memmap(path, dtype=np.dtype(dtype), mode="r",
                       offset=offset, shape=(n,))
        return mm, None
    _, name, dtype, n = desc
    shm = shared_memory.SharedMemory(name=name)
    return np.ndarray((n,), dtype=np.dtype(dtype), buffer=shm.buf), shm


# Public aliases: the fleet tier's cross-process payload transport
# (repro.fleet.transport) moves request arrays through the exact same
# descriptor scheme the shard pool uses, so the zero-copy machinery
# lives in one place.
input_descriptor = _input_descriptor
attach_input = _attach_input


def _out_layout(stages, source: DSSource, shards: List[Shard],
                row_elems: Optional[int]) -> Tuple[int, Dict[int, int]]:
    """Total output-region extent and each shard's write offset.

    Shrink ops write at most their input extent, so shard *k*'s region
    is simply ``[lo, hi)``; pad/unpad map row counts affinely.
    """
    if row_elems is None:
        return int(source.n_elems), {s.index: s.lo for s in shards}
    out_cols = _out_cols(stages, row_elems)
    offsets = {s.index: (s.lo // row_elems) * out_cols for s in shards}
    return int(source.n_elems) // row_elems * out_cols, offsets


def _worker_main(worker_id, stages, in_desc, out_name, out_dtype,
                 row_elems, config, device, task_q, result_q) -> None:
    """One forked worker: pull shard tasks until the ``None`` sentinel,
    answering each with its output length, its chain result (without
    the output, whose bytes are in the shared region) and its stage
    stamps."""
    from multiprocessing import shared_memory

    try:
        flat, _in_shm = _attach_input(in_desc)
        out_shm = shared_memory.SharedMemory(name=out_name)
        out_total = out_shm.size // np.dtype(out_dtype).itemsize
        out_arr = np.ndarray((out_total,), dtype=np.dtype(out_dtype),
                             buffer=out_shm.buf)
        stream = Stream(device, seed=config.seed)
    except BaseException as exc:
        result_q.put(("fatal", worker_id, repr(exc)))
        return

    while True:
        task = task_q.get()
        if task is None:
            return
        k, lo, hi, out_lo = task
        try:
            t0 = time.perf_counter_ns()
            arr = np.asarray(flat[lo:hi])
            if row_elems is not None:
                arr = arr.reshape(-1, row_elems)
            t1 = time.perf_counter_ns()
            res = run_shard_chain(stages, arr, stream, config)
            t2 = time.perf_counter_ns()
            out = np.asarray(res.output).reshape(-1)
            out_arr[out_lo:out_lo + out.size] = out
            t3 = time.perf_counter_ns()
            result_q.put(("ok", k, (worker_id, int(out.size),
                                    replace(res, output=None),
                                    (t0, t1, t2, t3))))
        except BaseException as exc:
            result_q.put(("error", k, repr(exc)))


@contextmanager
def pool_shards(stages, source: DSSource, shards: List[Shard], *,
                stream, config: DSConfig, n_workers: int,
                row_elems: Optional[int]) -> Iterator[Iterator[ShardDone]]:
    """Fork ``n_workers`` processes over ``shards``; the ``with`` block
    receives an iterator of their :class:`ShardDone` records.

    Preconditions (enforced by :func:`~repro.stream.engine.stream_run`):
    the chain is streamable, pool-compatible (``unique`` final-only),
    the source is sized and ``fork`` is available.  The records'
    outputs are views of the shared output region, so they are valid
    until the block exits; the segments are unlinked on exit.
    """
    from multiprocessing import shared_memory

    ctx = multiprocessing.get_context("fork")
    out_total, out_offsets = _out_layout(stages, source, shards, row_elems)
    out_dtype = np.dtype(source.dtype)
    procs: list = []
    scratch = out_shm = None
    try:
        in_desc, scratch = _input_descriptor(source)
        out_shm = shared_memory.SharedMemory(
            create=True, size=max(1, out_total * out_dtype.itemsize))
        out_arr = np.ndarray((out_total,), dtype=out_dtype,
                             buffer=out_shm.buf)
        task_q = ctx.Queue()
        result_q = ctx.Queue()
        for w in range(n_workers):
            p = ctx.Process(
                target=_worker_main,
                args=(w, stages, in_desc, out_shm.name, str(out_dtype),
                      row_elems, config, stream.device, task_q, result_q),
                daemon=True)
            p.start()
            procs.append(p)
        for s in shards:
            task_q.put((s.index, s.lo, s.hi, out_offsets[s.index]))
        for _ in procs:
            task_q.put(None)
        last = len(stages) - 1
        final_unique = (last if STREAMABLE_OPS[stages[last][0].name]
                        == "unique" else None)
        out_cols = None if row_elems is None else _out_cols(stages,
                                                             row_elems)
        yield _records(result_q, shards, out_arr, out_offsets, out_cols,
                       final_unique)
    finally:
        for p in procs:
            p.join(timeout=30)
            if p.is_alive():  # pragma: no cover - hung worker
                p.terminate()
        for shm in (out_shm, scratch):
            if shm is not None:
                shm.close()
                shm.unlink()


def _records(result_q, shards: List[Shard], out_arr: np.ndarray,
             out_offsets: Dict[int, int], out_cols: Optional[int],
             final_unique: Optional[int]) -> Iterator[ShardDone]:
    """Workers' results as :class:`ShardDone` records, in completion
    order — except under a final ``unique`` (stage ``final_unique``),
    whose boundary drop needs the predecessor's edge: those records
    are held back until every lower shard has arrived, then released
    in ascending order with the drop applied."""
    held: Dict[int, ShardDone] = {}
    next_k = 0
    prev_last = None
    for _ in shards:
        status, k, payload = result_q.get()
        if status == "fatal":
            raise ReproError(f"stream worker {k} failed to start: {payload}")
        if status == "error":
            raise ReproError(f"shard {k} failed: {payload}")
        worker, n_out, result, t_ns = payload
        lo = out_offsets[k]
        result.output = out_arr[lo:lo + n_out]
        if out_cols is not None:
            result.output = result.output.reshape(-1, out_cols)
        rec = ShardDone(k, shards[k].n_elems, result, t_ns, worker)
        if final_unique is None:
            yield rec
            continue
        held[k] = rec
        while next_k in held:
            rec = held.pop(next_k)
            next_k += 1
            result = rec.result
            edge = result.edges.get(final_unique)
            if edge is not None:
                first, last = edge
                if (prev_last is not None and result.output.size
                        and first == prev_last):
                    result.output = result.output[1:]
                    result.drops += 1
                prev_last = last
            yield rec
