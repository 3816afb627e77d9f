"""Keyed irregular Data Sliding: one key stream decides, payloads follow.

A natural generalization of Algorithm 2 the paper's framework supports
directly: the predicate (or the unique stencil) is evaluated on a *key*
array, and any number of same-length *payload* arrays slide by the same
offsets — the structure-of-arrays layout of real relational tables and
particle systems.  One launch compacts the whole record set, in place,
stably, with a single flag chain (offsets depend only on the keys, so
the payload buffers need no extra synchronization: every buffer shrinks
with identical source/destination indices, and the head-first chain
argument of :mod:`repro.core.regular` applies to each buffer
independently).

Used by :func:`repro.primitives.unique_by_key.ds_unique_by_key` and
:func:`repro.primitives.records.ds_compact_records`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

import numpy as np

from repro.collectives.reduction import reduce_workgroup
from repro.collectives.scan import binary_exclusive_scan
from repro.core.adjacent_sync import adjacent_sync_irregular
from repro.core.coarsening import LaunchGeometry, launch_geometry
from repro.core.dynamic_id import dynamic_wg_id
from repro.core.fastpath import vectorized_keyed_launch
from repro.core.flags import make_flags, make_wg_counter
from repro.core.predicates import Predicate
from repro.errors import LaunchError
from repro.simgpu.vectorized import resolve_backend
from repro.perfmodel.collective_cost import collective_rounds_per_wg
from repro.simgpu.buffers import Buffer
from repro.simgpu.counters import LaunchCounters
from repro.simgpu.events import Event
from repro.simgpu.stream import Stream
from repro.simgpu.workgroup import WorkGroup

__all__ = ["keyed_irregular_ds_kernel", "run_keyed_irregular_ds",
           "KeyedDSResult"]


def keyed_irregular_ds_kernel(
    wg: WorkGroup,
    keys: Buffer,
    payloads: Sequence[Buffer],
    flags: Buffer,
    wg_counter: Buffer,
    predicate: Optional[Predicate],
    geometry: LaunchGeometry,
    total: int,
    *,
    stencil_unique: bool = False,
    reduction_variant: str = "tree",
    scan_variant: str = "tree",
) -> Generator[Event, None, None]:
    """Algorithm 2 over (key, payload...) records.

    Identical control structure to
    :func:`repro.core.irregular.irregular_ds_kernel`; the only
    difference is that the loading and storing stages touch one key
    tile plus one tile per payload buffer.
    """
    wg_id = yield from dynamic_wg_id(wg, wg_counter)
    base = wg_id * geometry.tile_size

    tile_positions = base + np.arange(geometry.tile_size, dtype=np.int64)
    tile_positions = tile_positions[tile_positions < total]
    wg.declare_reads(keys, tile_positions)
    for p in payloads:
        wg.declare_reads(p, tile_positions)

    left_neighbor = None
    if stencil_unique and base > 0:
        vals = yield from wg.load(keys, np.asarray([base - 1], dtype=np.int64))
        left_neighbor = vals[0]

    with wg.phase("load", rounds=geometry.coarsening):
        staged: List[tuple] = []
        lane_counts = np.zeros(wg.size, dtype=np.int64)
        pos = base + wg.wi_id
        prev_last = left_neighbor
        for _ in range(geometry.coarsening):
            lane_active = pos < total
            active = pos[lane_active]
            key_vals = yield from wg.load(keys, active)
            payload_vals = []
            for p in payloads:
                vals = yield from wg.load(p, active)
                payload_vals.append(vals)
            if stencil_unique:
                keep = np.empty(key_vals.shape, dtype=bool)
                if key_vals.size:
                    keep[1:] = key_vals[1:] != key_vals[:-1]
                    keep[0] = True if prev_last is None else key_vals[0] != prev_last
                    prev_last = key_vals[-1]
            else:
                keep = predicate(key_vals)
            lane_counts[lane_active] += keep
            staged.append((active, key_vals, payload_vals, keep))
            pos = pos + wg.size

    with wg.phase("reduce", variant=reduction_variant):
        local_count, _ = reduce_workgroup(lane_counts, reduction_variant,
                                          wg.warp_size)
    with wg.phase("sync", wg_id=wg_id):
        previous_total = yield from adjacent_sync_irregular(
            wg, flags, wg_id, local_count)

    with wg.phase("store"):
        running = previous_total
        for active, key_vals, payload_vals, keep in staged:
            if active.size == 0:
                continue
            full_pred = np.zeros(wg.size, dtype=bool)
            full_pred[: active.size] = keep
            with wg.phase("scan", variant=scan_variant):
                ranks, _ = binary_exclusive_scan(
                    full_pred, scan_variant, wg.warp_size)
            out_pos = running + ranks[: active.size][keep]
            yield from wg.store(keys, out_pos, key_vals[keep])
            for p, vals in zip(payloads, payload_vals):
                yield from wg.store(p, out_pos, vals[keep])
            running += int(keep.sum())


@dataclass
class KeyedDSResult:
    """Host-visible outcome of one keyed irregular DS launch."""

    counters: LaunchCounters
    geometry: LaunchGeometry
    n_true: int


def run_keyed_irregular_ds(
    keys: Buffer,
    payloads: Sequence[Buffer],
    predicate: Optional[Predicate],
    stream: Stream,
    *,
    total: Optional[int] = None,
    wg_size: int = 256,
    coarsening: Optional[int] = None,
    stencil_unique: bool = False,
    reduction_variant: str = "tree",
    scan_variant: str = "tree",
    race_tracking: bool = False,
    backend: Optional[str] = None,
) -> KeyedDSResult:
    """Compact (key, payload...) records in place by key predicate or
    key-uniqueness stencil.  All buffers must have at least ``total``
    elements; after the call the first ``n_true`` entries of every
    buffer hold the surviving records, in their original order.

    ``backend`` selects the event-level scheduler (``"simulated"``) or
    the tile-granularity fast path (``"vectorized"``); ``None`` defers
    to ``REPRO_BACKEND``.  ``race_tracking`` forces the simulated path.
    """
    if predicate is None and not stencil_unique:
        raise LaunchError("a predicate is required unless stencil_unique is set")
    n = total if total is not None else keys.size
    if n <= 0:
        raise LaunchError(f"input size must be positive, got {n}")
    for buf in (keys, *payloads):
        if buf.size < n:
            raise LaunchError(
                f"buffer {buf.name!r} has {buf.size} elements, needs {n}")
    geometry = launch_geometry(n, stream.device, keys.itemsize,
                               wg_size=wg_size, coarsening=coarsening)
    flags = make_flags(geometry.n_workgroups)
    counter = make_wg_counter()
    kernel_name = (
        f"keyed_ds[{'unique' if stencil_unique else predicate.name}"
        f" x{len(payloads)} payloads]")
    resolved = resolve_backend(backend)
    if race_tracking:
        resolved = "simulated"
    if resolved == "vectorized":
        counters = vectorized_keyed_launch(
            keys, list(payloads), flags, counter, predicate, geometry, n,
            stream, stencil_unique=stencil_unique, kernel_name=kernel_name,
        )
    else:
        if race_tracking:
            keys.arm_race_tracking()
            for p in payloads:
                p.arm_race_tracking()
        try:
            counters = stream.launch(
                keyed_irregular_ds_kernel,
                grid_size=geometry.n_workgroups,
                wg_size=geometry.wg_size,
                args=(keys, list(payloads), flags, counter, predicate,
                      geometry, n),
                kwargs={
                    "stencil_unique": stencil_unique,
                    "reduction_variant": reduction_variant,
                    "scan_variant": scan_variant,
                },
                kernel_name=kernel_name,
            )
        finally:
            if race_tracking:
                keys.disarm_race_tracking()
                for p in payloads:
                    p.disarm_race_tracking()
    n_true = int(flags.data[geometry.n_workgroups]) - 1
    counters.extras["irregular"] = 1.0
    counters.extras["adjacent_syncs"] = float(geometry.n_workgroups)
    counters.extras["collective_rounds"] = collective_rounds_per_wg(
        geometry.wg_size, stream.device.warp_size, geometry.coarsening,
        reduction_variant, scan_variant)
    counters.extras["opt_collectives"] = (
        1.0 if (scan_variant != "tree" or reduction_variant != "tree") else 0.0)
    return KeyedDSResult(counters=counters, geometry=geometry, n_true=n_true)
