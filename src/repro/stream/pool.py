"""The worker pool: long-lived shard workers over shared-memory buffers.

:func:`pool_shards` is the pooled producer of the streaming engine's
one shard loop (:func:`~repro.stream.engine.stream_run` with
``workers > 0``).  A process keeps one pool of workers: it forks them
at its first pooled call, grows to the largest size a call asks for,
and keeps them until the interpreter exits, so the cores stay resident
and the data streams through them.  A call runs on the first
``n_workers`` of them, feeding each at most two shards at a time over
its pipe.  A worker reads its input slice directly from the source's
backing store (a memmap reopened by path, or a
``multiprocessing.shared_memory`` segment attached by name — in-core
arrays are staged into a scratch segment first, so **no element data
ever crosses a pickle boundary**), runs the ordinary DS chain via
:func:`~repro.stream.engine.run_shard_chain`, and writes the shard's
output into a shared output region.  When the call ends, every worker
it used releases that call's segments, so an idle pool maps none.  A
worker's first call ends with one more step: the forked worker
re-executes itself as a fresh interpreter on the same pipe, which
drops everything the fork copied from its caller — segments and files
the caller had mapped, its heap, its locks.  The first call runs at
fork speed; the fresh interpreter's imports run while the caller goes
on, and the next call waits for them only if it comes sooner.

A worker started before a call cannot inherit that call's chain, so the
chain crosses as data, frozen by the probe-verified codec of
:mod:`repro.stream.codec` (the engine runs a chain whose predicate
cannot be revived to compute the same over the source's dtype in
process, with a warning).  The caller's configuration crosses with it,
resolved against the caller's environment: a worker's own environment
is the snapshot its fork took.

Calls run one at a time per pool; concurrent callers wait their turn.
A call that fails — a shard raised, a worker died — raises
:class:`~repro.errors.ReproError` and discards the pool, so no task or
result outlives it; the next call forks a fresh one.  Workers exit
with the interpreter, or on their own once the process that forked
them is gone; a process forked from this one drops the pool it
inherited and never touches its parent's workers.

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

The ``fork`` start method is required; platforms without it fall back
to the in-process loop (the engine warns).

The output region is sized from the input extent: every streamable
shrink op writes at most its shard's input length, and pad/unpad map
affinely (``rows x (cols ± pad)``), so shard *k* owns a disjoint,
precomputed slice — workers never contend.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import struct
import sys
import threading
import time
from collections import deque, namedtuple
from contextlib import contextmanager
from dataclasses import replace
from multiprocessing import connection, resource_tracker
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs as _obs
from repro.config import DSConfig
from repro.errors import ReproError
from repro.simgpu.stream import Stream
from repro.stream.codec import revive_ops
from repro.stream.engine import (
    STREAMABLE_OPS,
    ShardDone,
    _out_cols,
    normalize_chain,
    run_shard_chain,
)
from repro.stream.plan import Shard
from repro.stream.source import DSSource, MemmapSource, SharedMemorySource

__all__ = ["pool_shards", "fork_unavailable_reason", "start_resource_tracker",
           "input_descriptor", "attach_input"]

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

#: Shards a worker holds at once: the one it runs and the next one.
_IN_FLIGHT = 2

#: The environment variables a kernel launch reads at call time that no
#: DSConfig field carries; they cross with each call.
_CALL_ENV = ("REPRO_BENCH_FULL",)


def fork_unavailable_reason() -> Optional[str]:
    """Why forked workers are impossible here (``None`` when they work)."""
    try:
        import multiprocessing.shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - exotic platforms
        return "multiprocessing.shared_memory is unavailable"
    if "fork" not in multiprocessing.get_all_start_methods():
        return "the worker pool needs the 'fork' start method"
    return None


def start_resource_tracker() -> None:
    """Start this process's multiprocessing resource tracker; call it
    before every fork.

    A child forked while no tracker runs starts one of its own at its
    first segment attach (which registers the name before Python
    3.13).  Its owner's unlinks never reach that tracker, so at exit it
    reports every segment the child saw as leaked and fails to unlink
    each one.  A tracker started before the fork is inherited and
    shared.  (Not from an at-fork hook: the tracker's lock, held across
    the fork above, is not reentrant on Python 3.10.)
    """
    resource_tracker.ensure_running()


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
    # workers attach by name.  The data is already resident, so this
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


# -- the worker side ----------------------------------------------------------


class _Job:
    """One call as a worker sees it: the revived chain, the call's
    segments, and a fresh stream."""

    def __init__(self, frozen, in_desc, out_name: str, out_dtype: str,
                 row_elems: Optional[int], config: DSConfig, device,
                 env: dict) -> None:
        from multiprocessing import shared_memory

        for name, value in env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        self.stages = normalize_chain(revive_ops(frozen))
        self.row_elems = row_elems
        self.config = config
        self.stream = Stream(device, seed=config.seed)
        self.flat, self._in_shm = _attach_input(in_desc)
        self._out_shm = shared_memory.SharedMemory(name=out_name)
        dtype = np.dtype(out_dtype)
        self.out = np.ndarray((self._out_shm.size // dtype.itemsize,),
                              dtype=dtype, buffer=self._out_shm.buf)

    def run(self, k: int, lo: int, hi: int, out_lo: int) -> tuple:
        """Run shard ``k`` into the output region; the reply carries its
        output length, its chain result (without the output, whose
        bytes are in the shared region) and its stage stamps."""
        try:
            t0 = time.perf_counter_ns()
            arr = np.asarray(self.flat[lo:hi])
            if self.row_elems is not None:
                arr = arr.reshape(-1, self.row_elems)
            t1 = time.perf_counter_ns()
            res = run_shard_chain(self.stages, arr, self.stream,
                                  self.config)
            t2 = time.perf_counter_ns()
            out = np.asarray(res.output).reshape(-1)
            self.out[out_lo:out_lo + out.size] = out
            t3 = time.perf_counter_ns()
            return ("ok", k, int(out.size), replace(res, output=None),
                    (t0, t1, t2, t3))
        except BaseException as exc:
            return ("error", k, repr(exc))

    def release(self) -> None:
        """Unmap the call's segments (the arrays over them go first)."""
        self.flat = self.out = None
        for shm in (self._in_shm, self._out_shm):
            if shm is not None:
                shm.close()


def _worker_main(conn, parent_end) -> None:
    """A pool worker as forked: it serves its first call at once, on the
    modules the fork copied, then re-executes itself (:func:`_reexec`)."""
    parent_end.close()
    # Ctrl-C is for the caller, whose exit ends the workers.  (An
    # ignored signal stays ignored across the re-exec.)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The tracer inherited from the fork belongs to the parent.
    _obs.install(None)
    _serve(conn, forked=True)


def _serve(conn, forked: bool = False) -> None:
    """Serve calls until the pool's end of the pipe closes or the
    process that started this one is gone."""
    parent = os.getppid()
    job = None
    while True:
        while not conn.poll(1.0):
            if os.getppid() != parent:
                return
        try:
            msg = conn.recv()
        except EOFError:
            return
        kind = msg[0]
        if kind == "shard":
            conn.send(job.run(*msg[1:]) if job is not None else
                      ("error", msg[1], "the worker has no call attached"))
        elif kind == "job":
            try:
                job = _Job(*msg[1:])
            except BaseException as exc:
                conn.send(("fatal", repr(exc)))
        else:  # "end": the call is over
            if job is not None:
                job.release()
                job = None
            if forked:
                _reexec(conn)  # returns only if the exec failed
                forked = False
            conn.send(("released",))


def _reexec(conn) -> None:
    """Replace this forked worker with a fresh interpreter serving the
    same pipe.

    A fork copies its caller whole: every segment and file the caller
    had mapped, every object holding them, its locks.  A worker that
    kept the copy would hold a caller's segment mapped long after its
    owner unlinked it.  So a worker serves only its first call as
    forked, where the copied modules spare it an import, then sheds the
    copy here.  The new interpreter writes the ``released`` reply,
    pre-framed as ``Connection.send`` frames it, before any import, so
    the copy is gone by the time the caller reads that reply.  It
    registers the segments it attaches with its caller's resource
    tracker, as the forked worker did.
    """
    from multiprocessing.util import _args_from_interpreter_flags

    if not sys.executable:
        return
    reply = pickle.dumps(("released",))
    frame = struct.pack("!i", len(reply)) + reply
    fd, tracker_fd = conn.fileno(), resource_tracker.getfd()
    os.set_inheritable(fd, True)
    os.set_inheritable(tracker_fd, True)
    code = (f"import os, sys; os.write({fd}, {frame!r}); "
            f"sys.path[:] = {sys.path!r}; "
            f"from repro.stream.pool import _reborn; "
            f"_reborn({fd}, {tracker_fd})")
    try:
        os.execv(sys.executable, [sys.executable,
                                  *_args_from_interpreter_flags(),
                                  "-S", "-c", code])
    except OSError:
        pass


def _reborn(fd: int, tracker_fd: int) -> None:
    """Entry point of a re-executed worker (see :func:`_reexec`)."""
    resource_tracker._resource_tracker._fd = tracker_fd
    _serve(connection.Connection(fd))


# -- the pool -----------------------------------------------------------------


#: One pool worker: its position in the pool (the ``worker`` of its
#: shard records), its process and the pool's end of its pipe.
_Worker = namedtuple("_Worker", "index process conn")


_POOL: List[_Worker] = []
_POOL_LOCK = threading.Lock()


def _forget_pool() -> None:
    """In a freshly forked child: the parent's workers are not ours.
    Out of multiprocessing's set of children too, or the child's exit
    would terminate them and then fail to join them."""
    global _POOL_LOCK
    for w in _POOL:
        w.conn.close()
        multiprocessing.process._children.discard(w.process)
    _POOL.clear()
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _grow(n_workers: int) -> List[_Worker]:
    """The first ``n_workers`` workers, forking the missing ones."""
    if len(_POOL) < n_workers:
        start_resource_tracker()
    ctx = multiprocessing.get_context("fork")
    while len(_POOL) < n_workers:
        index = len(_POOL)
        parent_end, child_end = ctx.Pipe()
        proc = ctx.Process(target=_worker_main,
                           args=(child_end, parent_end),
                           name=f"repro-shard-{index}", daemon=True)
        proc.start()
        child_end.close()
        _POOL.append(_Worker(index, proc, parent_end))
    return _POOL[:n_workers]


def _discard_pool() -> None:
    """Kill every worker; the next pooled call forks afresh."""
    for w in _POOL:
        w.process.kill()
    for w in _POOL:
        w.process.join()
        w.conn.close()
    _POOL.clear()


def _died(w: _Worker) -> ReproError:
    w.process.join(1.0)
    return ReproError(f"stream pool worker {w.index} died "
                      f"(exit code {w.process.exitcode})")


def _send(w: _Worker, msg: tuple) -> None:
    try:
        w.conn.send(msg)
    except OSError:
        raise _died(w) from None


def _next_message(workers: List[_Worker]) -> Tuple[_Worker, tuple]:
    """The next reply from any of ``workers``; a worker that died
    raises :class:`ReproError`.  (Its pipe is the witness: a worker
    holds the only other end, and a re-exec keeps it open.)"""
    ready = connection.wait([w.conn for w in workers])
    w = next(w for w in workers if w.conn in ready)
    try:
        return w, w.conn.recv()
    except (EOFError, OSError):
        raise _died(w) from None


def _release(workers: List[_Worker]) -> None:
    """End the call on each worker and wait until it unmapped the
    call's segments."""
    for w in workers:
        _send(w, ("end",))
    for w in workers:
        while _next_message([w])[1][0] != "released":
            pass


@contextmanager
def pool_shards(stages, source: DSSource, shards: List[Shard], *,
                frozen: list, stream, config: DSConfig, n_workers: int,
                row_elems: Optional[int]) -> Iterator[Iterator[ShardDone]]:
    """Run ``shards`` on ``n_workers`` pool workers; the ``with`` block
    receives an iterator of their :class:`ShardDone` records.

    ``frozen`` is ``stages`` as :func:`repro.stream.codec.freeze_ops`
    froze them.  Preconditions (enforced by
    :func:`~repro.stream.engine.stream_run`): the chain is streamable,
    pool-compatible (``unique`` final-only) and frozen, the source is
    sized and ``fork`` is available.  The records' outputs are views of
    the shared output region, so they are valid until the block exits;
    the segments are unlinked on exit.
    """
    from multiprocessing import shared_memory

    out_total, out_offsets = _out_layout(stages, source, shards, row_elems)
    out_dtype = np.dtype(source.dtype)
    # Resolved here: a worker's environment is its fork's snapshot.
    config = config.replace(backend=config.resolved_backend())
    env = {name: os.environ.get(name) for name in _CALL_ENV}
    with _POOL_LOCK:
        scratch = out_shm = None
        ok = False
        try:
            # Fork first, so no worker inherits this call's mappings.
            workers = _grow(n_workers)
            in_desc, scratch = _input_descriptor(source)
            out_shm = shared_memory.SharedMemory(
                create=True, size=max(1, out_total * out_dtype.itemsize))
            out_arr = np.ndarray((out_total,), dtype=out_dtype,
                                 buffer=out_shm.buf)
            job = ("job", frozen, in_desc, out_shm.name, str(out_dtype),
                   row_elems, config, stream.device, env)
            for w in workers:
                _send(w, job)
            last = len(stages) - 1
            final_unique = (last if STREAMABLE_OPS[stages[last][0].name]
                            == "unique" else None)
            out_cols = None if row_elems is None else _out_cols(stages,
                                                                 row_elems)
            yield _records(workers, shards, out_arr, out_offsets, out_cols,
                           final_unique)
            _release(workers)
            ok = True
        finally:
            if not ok:
                _discard_pool()
            for shm in (out_shm, scratch):
                if shm is not None:
                    shm.close()
                    shm.unlink()


def _records(workers: List[_Worker], shards: List[Shard],
             out_arr: np.ndarray, out_offsets: Dict[int, int],
             out_cols: Optional[int],
             final_unique: Optional[int]) -> Iterator[ShardDone]:
    """Feed ``shards`` to ``workers`` in ascending order, at most
    :data:`_IN_FLIGHT` per worker, and yield their results as
    :class:`ShardDone` records in completion order — except under a
    final ``unique`` (stage ``final_unique``), whose boundary drop
    needs the predecessor's edge: those records are held back until
    every lower shard has arrived, then released in ascending order
    with the drop applied."""
    todo = deque(shards)

    def feed(w: _Worker) -> None:
        s = todo.popleft()
        _send(w, ("shard", s.index, s.lo, s.hi, out_offsets[s.index]))

    for _ in range(_IN_FLIGHT):
        for w in workers:
            if todo:
                feed(w)
    held: Dict[int, ShardDone] = {}
    next_k = 0
    prev_last = None
    for _ in shards:
        w, (status, *payload) = _next_message(workers)
        if status == "fatal":
            raise ReproError(
                f"stream pool worker {w.index} could not attach the "
                f"call: {payload[0]}")
        if status == "error":
            raise ReproError(f"shard {payload[0]} failed: {payload[1]}")
        if todo:
            feed(w)
        k, n_out, result, t_ns = payload
        lo = out_offsets[k]
        result.output = out_arr[lo:lo + n_out]
        if out_cols is not None:
            result.output = result.output.reshape(-1, out_cols)
        rec = ShardDone(k, shards[k].n_elems, result, t_ns, w.index)
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
