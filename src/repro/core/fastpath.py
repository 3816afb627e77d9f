"""Vectorized (tile-granularity) executors for the DS kernels.

Each function here is the fast-path twin of one generator kernel in
:mod:`repro.core.regular`, :mod:`repro.core.irregular` or
:mod:`repro.simgpu.kernels`: it performs the
same in-place data movement as a few whole-array NumPy operations and
derives the :class:`~repro.simgpu.counters.LaunchCounters` the
event-level scheduler would have produced (see
:mod:`repro.simgpu.vectorized` for the arithmetic and its
justification).  The side structures of a launch — the flag chain and
the dynamic-ID cursor — are left in their post-kernel state, so host
code that reads the compacted size back from the flags works unchanged.

Correctness of the batched movement relies on two properties of the DS
algorithms themselves:

* adjacent synchronization guarantees every work-group's loads observe
  *pristine* input, so evaluating predicates/remaps on the untouched
  array is exactly what the simulated kernels compute;
* a NumPy fancy-index gather copies, so gather-then-scatter tolerates
  the overlapping source/destination ranges of in-place slides.  Each
  launch gathers every output before its first store, so it never
  snapshots its input.

The irregular launches gather through ``flatnonzero`` positions (a
boolean-mask gather branches per element and is several times slower
on irregular masks) and take their per-round kept counts from those
positions by binary search
(:func:`~repro.simgpu.vectorized.round_kept_counts`).

Schedule-dependent quantities (``n_spins``, ``steps``,
``peak_resident``) are reported for the idealized schedule: zero failed
polls and maximal admission.  Everything else — bytes, transactions,
event, atomic and barrier counts — is schedule-invariant and matches
the simulated backend exactly (asserted by
``tests/primitives/test_backend_parity.py``).

The launch counters are the only record of a launch's traffic: the
buffers keep no ledger of their own.  A traced launch records only what
it ran — its launch span on the host track with two host-phase children,
``movement`` (the gathers and stores) and ``accounting`` (counters and
side structures) — whatever the grid size.  There are no work-groups
here to time, so no ``wg:`` tracks: per-work-group phases and
``sync_wait`` spans come from the event-level simulator alone.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import obs as _obs
from repro.core.coarsening import LaunchGeometry
from repro.core.flags import FLAG_SET
from repro.core.offsets import RegularRemap
from repro.core.predicates import Predicate
from repro.simgpu.buffers import Buffer
from repro.simgpu.counters import LaunchCounters
from repro.simgpu.stream import Stream
from repro.simgpu.vectorized import (
    contiguous_range_txns,
    contiguous_round_txns,
    remapped_store_txns,
    round_kept_counts,
    workgroup_kept_counts,
)

__all__ = [
    "vectorized_regular_launch",
    "vectorized_irregular_launch",
    "vectorized_copy_launch",
]


def _trace_begin(kernel_name: str, grid: int, wg_size: int, stream: Stream):
    """Open the launch span for a fast-path launch (or ``(None, None)``
    when tracing is off — the entire per-launch tracing cost)."""
    tracer = _obs.active()
    if tracer is None:
        return None, None
    span_args = {"backend": "vectorized", "grid_size": grid,
                 "wg_size": wg_size, "device": stream.device.name}
    # Correlation attributes (request_id, batch_id) from obs.annotate —
    # launch spans carry them, phase spans never do.
    annotations = _obs.current_annotations()
    if annotations:
        span_args.update(annotations)
    sp = tracer.span(kernel_name, cat="launch", args=span_args)
    return tracer, sp


def _base_counters(
    kernel_name: str, grid: int, wg_size: int, stream: Stream
) -> LaunchCounters:
    c = LaunchCounters(kernel_name=kernel_name, grid_size=grid, wg_size=wg_size)
    limit = (
        stream.resident_limit
        if stream.resident_limit is not None
        else stream.device.max_resident_wgs
    )
    c.peak_resident = min(limit, grid)
    c.completed_wgs = grid
    return c


def _record_launch(
    stream: Stream, c: LaunchCounters, tracer, launch_span, t0: float, t1: float
) -> LaunchCounters:
    """Finish ``c`` and record it on ``stream``.  When tracing, close the
    launch span with the two host phases the launch ran: ``movement``
    (the gathers and stores, ``[t0, t1]``) and ``accounting`` (counters
    and side structures, ``[t1, now]``)."""
    # One scheduler step per event plus the StopIteration step that
    # retires each work-group; the vectorized schedule has no spins.
    c.steps = c.n_loads + c.n_stores + c.n_atomics + c.n_barriers + c.grid_size
    c.extras["vectorized"] = 1.0
    stream.record(c)
    if tracer is not None:
        t2 = tracer.now_us()
        for name, start, end in (("movement", t0, t1), ("accounting", t1, t2)):
            tracer.add_span(name, track=_obs.HOST_TRACK, start_us=start,
                            end_us=end, cat="phase", parent=launch_span)
        launch_span.set(
            steps=c.steps, n_spins=c.n_spins, peak_resident=c.peak_resident,
        ).finish()
    return c


def _finalize_sync_structures(
    flags: Buffer, wg_counter: Buffer, grid: int, flag_values: np.ndarray
) -> None:
    """Leave the flag chain and ID cursor as the kernel would."""
    flags.data[1 : grid + 1] = flag_values
    wg_counter.data[0] = grid


def vectorized_regular_launch(
    array: Buffer,
    flags: Buffer,
    wg_counter: Buffer,
    remap: RegularRemap,
    geometry: LaunchGeometry,
    stream: Stream,
) -> LaunchCounters:
    """Fast-path twin of :func:`repro.core.regular.regular_ds_kernel`."""
    grid, W, cf = geometry.n_workgroups, geometry.wg_size, geometry.coarsening
    total = remap.total_in
    tracer, launch_span = _trace_begin(
        f"regular_ds[{remap.name}]", grid, W, stream)
    t0 = tracer.now_us() if tracer is not None else 0.0
    positions = np.arange(total, dtype=np.int64)
    keep, out_pos = remap(positions)
    kept_pos = positions[keep]
    dest = out_pos[keep]
    array.data[dest] = array.data[kept_pos]  # gather copies: overlap-safe
    t1 = tracer.now_us() if tracer is not None else 0.0

    c = _base_counters(f"regular_ds[{remap.name}]", grid, W, stream)
    itemsize, txb = array.itemsize, array.transaction_bytes
    c.n_loads = grid * cf
    c.bytes_loaded = total * itemsize
    c.n_stores = (total + W - 1) // W  # one store per non-empty round
    c.bytes_stored = int(kept_pos.size) * itemsize
    if array.count_transactions:
        c.load_transactions = contiguous_round_txns(total, W, itemsize, txb)
        c.store_transactions = remapped_store_txns(kept_pos, dest, W, itemsize, txb)
    c.n_atomics = 3 * grid  # ID claim + successful poll + flag set
    c.n_barriers = 3 * grid  # ID broadcast + sync local + sync global

    _finalize_sync_structures(
        flags, wg_counter, grid, np.full(grid, FLAG_SET, dtype=flags.data.dtype)
    )
    return _record_launch(stream, c, tracer, launch_span, t0, t1)


def _evaluate_keep(
    vals: np.ndarray, predicate: Optional[Predicate], stencil_unique: bool
) -> np.ndarray:
    if stencil_unique:
        keep = np.empty(vals.shape, dtype=bool)
        if vals.size:
            keep[0] = True
            keep[1:] = vals[1:] != vals[:-1]
        return keep
    return np.asarray(predicate(vals), dtype=bool)


def _contiguous_store_accounting(
    c: LaunchCounters, buf: Buffer, kt: np.ndarray, bases: np.ndarray, n_elems: int
) -> None:
    """Charge per-round stores of contiguous ranges ``[bases, bases+kt)``
    of ``buf`` to ``c``."""
    c.bytes_stored += n_elems * buf.itemsize
    if buf.count_transactions:
        c.store_transactions += contiguous_range_txns(
            bases, bases + kt, buf.itemsize, buf.transaction_bytes
        )


def _tile_load_accounting(
    c: LaunchCounters, buf: Buffer, total: int, W: int, stencil_loads: int = 0
) -> None:
    """Charge the coarsened tile loads of ``buf`` over ``total`` elements
    (plus any single-element stencil neighbour loads) to ``c``."""
    c.bytes_loaded += (total + stencil_loads) * buf.itemsize
    if buf.count_transactions:
        # One-element stencil loads cost one transaction each.
        c.load_transactions += stencil_loads + contiguous_round_txns(
            total, W, buf.itemsize, buf.transaction_bytes
        )


def vectorized_irregular_launch(
    array: Buffer,
    out: Buffer,
    flags: Buffer,
    wg_counter: Buffer,
    predicate: Optional[Predicate],
    geometry: LaunchGeometry,
    total: int,
    stream: Stream,
    *,
    false_out: Optional[Buffer] = None,
    payloads: Sequence[Buffer] = (),
    stencil_unique: bool = False,
    kernel_name: str = "irregular_ds",
) -> LaunchCounters:
    """Fast-path twin of :func:`repro.core.irregular.irregular_ds_kernel`."""
    grid, W, cf = geometry.n_workgroups, geometry.wg_size, geometry.coarsening
    n = int(total)
    tracer, launch_span = _trace_begin(kernel_name, grid, W, stream)
    t0 = tracer.now_us() if tracer is not None else 0.0
    vals = array.data[:n]  # pristine until the first store below
    keep = _evaluate_keep(vals, predicate, stencil_unique)
    kept_pos = np.flatnonzero(keep)
    n_true = int(kept_pos.size)
    kt = round_kept_counts(kept_pos, n, W)  # kept per global round
    # Gather every output before the first store: the gathers copy, so
    # partition's true and false halves both see the pristine input.
    kept = vals[kept_pos]
    falses = vals[np.flatnonzero(~keep)] if false_out is not None else None
    payloads_kept = [p.data[:n][kept_pos] for p in payloads]
    out.data[:n_true] = kept
    if falses is not None:
        false_out.data[: n - n_true] = falses
    for p, p_kept in zip(payloads, payloads_kept):
        p.data[:n_true] = p_kept
    t1 = tracer.now_us() if tracer is not None else 0.0

    kept_before = np.cumsum(kt) - kt
    n_act = kt.size  # ceil(n / W): rounds with any active lane

    c = _base_counters(kernel_name, grid, W, stream)
    stencil_loads = grid - 1 if stencil_unique else 0
    columns = 1 + len(payloads)
    c.n_loads = grid * cf * columns + stencil_loads
    _tile_load_accounting(c, array, n, W, stencil_loads)
    for p in payloads:
        _tile_load_accounting(c, p, n, W)

    # The kept-store events fire even for empty rounds, once per column.
    c.n_stores = n_act * columns
    _contiguous_store_accounting(c, out, kt, kept_before, n_true)
    for p in payloads:
        _contiguous_store_accounting(c, p, kt, kept_before, n_true)
    if false_out is not None:
        sizes = np.full(n_act, W, dtype=np.int64)
        sizes[-1] = n - (n_act - 1) * W
        ft = sizes - kt
        false_before = np.cumsum(ft) - ft
        c.n_stores += int((ft > 0).sum())  # false stores only when needed
        _contiguous_store_accounting(c, false_out, ft, false_before, n - n_true)

    c.n_atomics = 3 * grid
    c.n_barriers = 3 * grid

    _finalize_sync_structures(
        flags,
        wg_counter,
        grid,
        np.cumsum(workgroup_kept_counts(kt, cf)) + 1,  # encode_count, vector-wide
    )
    return _record_launch(stream, c, tracer, launch_span, t0, t1)


def vectorized_copy_launch(
    src: Buffer,
    dst: Buffer,
    n: int,
    src_base: int,
    dst_base: int,
    wg_size: int,
    coarsening: int,
    stream: Stream,
    *,
    kernel_name: str = "copy",
) -> LaunchCounters:
    """Fast-path twin of :func:`repro.simgpu.kernels.copy_kernel` (used
    by the in-place partition's false-tail copy-back)."""
    tile = wg_size * coarsening
    grid = (n + tile - 1) // tile
    tracer, launch_span = _trace_begin(kernel_name, grid, wg_size, stream)
    t0 = tracer.now_us() if tracer is not None else 0.0
    dst.data[dst_base : dst_base + n] = src.data[src_base : src_base + n]
    t1 = tracer.now_us() if tracer is not None else 0.0

    c = _base_counters(kernel_name, grid, wg_size, stream)
    n_act = (n + wg_size - 1) // wg_size
    c.n_loads = c.n_stores = n_act  # copy rounds skip empty tiles entirely
    c.bytes_loaded = n * src.itemsize
    c.bytes_stored = n * dst.itemsize
    if src.count_transactions:
        c.load_transactions = contiguous_round_txns(
            n, wg_size, src.itemsize, src.transaction_bytes, base=src_base
        )
    if dst.count_transactions:
        c.store_transactions = contiguous_round_txns(
            n, wg_size, dst.itemsize, dst.transaction_bytes, base=dst_base
        )
    return _record_launch(stream, c, tracer, launch_span, t0, t1)
