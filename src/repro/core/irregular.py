"""Algorithm 2 — the generic irregular Data Sliding kernel.

Irregular DS algorithms slide each element by a **data-dependent**
offset: the number of preceding elements removed (select, stream
compaction, unique) decides where a kept element lands.  Algorithm 2
extends the regular kernel with three steps:

1. during the loading stage every work-item counts its predicate-true
   elements (``local_count``);
2. a work-group **reduction** totals the counts *before* the adjacent
   synchronization, so only the total travels the critical path — the
   paper notes (after [14], [16]) that reducing first and scanning after
   the synchronization shortens the inter-group dependency chain; the
   ``scan_first=True`` flag implements the alternative order for the
   ablation benchmark;
3. the modified adjacent synchronization (Figure 7) both orders the
   groups **and** delivers the cumulative count of all preceding groups,
   which is the group's global output base; a **binary prefix sum** then
   ranks each true element within the group for the storing stage.

Stability falls out of the construction: rounds are scanned in element
order and ranks are added to a running intra-group offset, so kept
elements retain their relative input order — a property the test suite
asserts for every primitive built on this kernel.

The kernel writes kept elements to ``out``; with ``out is array`` the
operation is in place (the compaction direction is shrinking, so the
head-first chain makes it safe — see :mod:`repro.core.regular`).
An optional ``false_out`` receives the predicate-false elements (used
by partition); their destination needs **no second chain**, because the
number of false elements before global position *g* is simply
``g - trues_before(g)``.

Keyed launches (``payloads``) evaluate the predicate, or the unique
stencil, on the *key* array and slide any number of same-length payload
buffers by the same offsets, in place: the structure-of-arrays layout
of relational tables (:func:`~repro.primitives.records.ds_compact_records`,
:func:`~repro.primitives.unique_by_key.ds_unique_by_key`).  The flag
chain is shared; every payload shrinks with the key's source and
destination indices, so the head-first argument covers each buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

import numpy as np

from repro.collectives.reduction import reduce_workgroup
from repro.collectives.scan import binary_exclusive_scan
from repro.core.adjacent_sync import adjacent_sync_irregular
from repro.core.coarsening import LaunchGeometry, launch_geometry
from repro.core.dynamic_id import dynamic_wg_id, static_wg_id
from repro.core.fastpath import vectorized_irregular_launch
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

__all__ = ["irregular_ds_kernel", "run_irregular_ds", "IrregularDSResult"]


def irregular_ds_kernel(
    wg: WorkGroup,
    array: Buffer,
    out: Buffer,
    flags: Buffer,
    wg_counter: Buffer,
    predicate: Predicate,
    geometry: LaunchGeometry,
    total: int,
    *,
    false_out: Optional[Buffer] = None,
    payloads: Sequence[Buffer] = (),
    stencil_unique: bool = False,
    reduction_variant: str = "tree",
    scan_variant: str = "tree",
    scan_first: bool = False,
    sync: bool = True,
    id_allocation: str = "dynamic",
) -> Generator[Event, None, None]:
    """One work-group's execution of Algorithm 2.

    ``stencil_unique`` switches the predicate evaluation to the *unique*
    stencil: an element is "true" (kept) when it differs from its left
    neighbour; the neighbour of a tile's first element is read directly
    from global memory during the loading stage, as the paper describes
    (Section IV-C).  In that mode ``predicate`` is ignored.  Each round
    loads every ``payloads`` tile after the key tile and stores it, in
    place, after the key store.
    """
    allocator = dynamic_wg_id if id_allocation == "dynamic" else static_wg_id
    wg_id = yield from allocator(wg, wg_counter)

    tile_index = wg_id  # shrinking slide: head-first chain
    base = tile_index * geometry.tile_size

    tile_positions = base + np.arange(geometry.tile_size, dtype=np.int64)
    tile_positions = tile_positions[tile_positions < total]
    wg.declare_reads(array, tile_positions)
    for p in payloads:
        wg.declare_reads(p, tile_positions)

    # The unique stencil needs the element just before the tile.  It is
    # loaded during the loading stage; an earlier-chained group may have
    # already compacted into that location, but only ever with the same
    # value (outputs to the left of our tile replicate the kept prefix),
    # so the read is benign — the paper reads it straight from global
    # memory for the same reason.
    left_neighbor = None
    if stencil_unique and base > 0:
        vals = yield from wg.load(array, np.asarray([base - 1], dtype=np.int64))
        left_neighbor = vals[0]

    # -- Loading stage with per-work-item counting. ---------------------------
    with wg.phase("load", rounds=geometry.coarsening):
        staged: list[tuple[np.ndarray, np.ndarray, np.ndarray, list]] = []
        lane_counts = np.zeros(wg.size, dtype=np.int64)
        pos = base + wg.wi_id
        prev_round_last = left_neighbor
        for _ in range(geometry.coarsening):
            lane_active = pos < total
            active = pos[lane_active]
            values = yield from wg.load(array, active)
            payload_values = []
            for p in payloads:
                payload_values.append((yield from wg.load(p, active)))
            if stencil_unique:
                flags_true = np.empty(values.shape, dtype=bool)
                if values.size:
                    flags_true[1:] = values[1:] != values[:-1]
                    if prev_round_last is None:  # very first element of the array
                        flags_true[0] = True
                    else:
                        flags_true[0] = values[0] != prev_round_last
                    prev_round_last = values[-1]
            else:
                flags_true = predicate(values)
            lane_counts[lane_active] += flags_true
            staged.append((active, values, flags_true, payload_values))
            pos = pos + wg.size

    # -- Reduction before the synchronization (default, shorter chain). -------
    # The paper (after [14], [16]) prefers reduce-then-sync-then-scan: only
    # the cheap reduction sits on the inter-group critical path.  The
    # scan_first ablation computes every rank *before* synchronizing, the
    # longer-critical-path ordering Algorithm 2 also allows.
    with wg.phase("reduce", variant=reduction_variant):
        precomputed_ranks: list[np.ndarray] = []
        if scan_first:
            for active, _values, flags_true, _payload in staged:
                full_pred = np.zeros(wg.size, dtype=bool)
                full_pred[: active.size] = flags_true
                with wg.phase("scan", variant=scan_variant):
                    ranks, _ = binary_exclusive_scan(
                        full_pred, scan_variant, wg.warp_size)
                precomputed_ranks.append(ranks)
        local_count, _rounds = reduce_workgroup(
            lane_counts, reduction_variant, wg.warp_size)

    # -- Modified adjacent synchronization (Figure 7). -------------------------
    # wg_id in the span args is the *dynamic* ID: it lets the trace
    # analyzer map this hardware slot's track onto the sync chain.
    with wg.phase("sync", wg_id=wg_id):
        if sync:
            previous_total = yield from adjacent_sync_irregular(
                wg, flags, wg_id, local_count)
        else:
            # Fault-injection mode: the host pre-filled the flag array with the
            # correct cumulative counts (as a two-pass scan would), so offsets
            # are right but the *ordering* guarantee is gone — stores may now
            # clobber tiles other groups have not loaded, which is exactly the
            # hazard the race tracker exists to expose.
            yield from wg.barrier("local")
            previous_total = max(0, int(flags.data[wg_id]) - 1)

    # -- Storing stage: binary prefix sum ranks each true element. ------------
    with wg.phase("store"):
        running = previous_total
        for round_idx, staged_round in enumerate(staged):
            active, values, flags_true, payload_values = staged_round
            if active.size == 0:
                continue
            if scan_first:
                ranks = precomputed_ranks[round_idx]
            else:
                full_pred = np.zeros(wg.size, dtype=bool)
                full_pred[: active.size] = flags_true  # active lanes are a prefix
                with wg.phase("scan", variant=scan_variant):
                    ranks, _ = binary_exclusive_scan(
                        full_pred, scan_variant, wg.warp_size)
            true_ranks = ranks[: active.size][flags_true]
            out_pos = running + true_ranks
            yield from wg.store(out, out_pos, values[flags_true])
            for p, vals in zip(payloads, payload_values):
                yield from wg.store(p, out_pos, vals[flags_true])
            if false_out is not None and (~flags_true).any():
                false_mask = ~flags_true
                g = active[false_mask]  # absolute input positions
                trues_before = running + ranks[: active.size][false_mask]
                yield from wg.store(false_out, g - trues_before, values[false_mask])
            running += int(flags_true.sum())


@dataclass
class IrregularDSResult:
    """Host-visible outcome of one irregular DS launch."""

    counters: LaunchCounters
    geometry: LaunchGeometry
    n_true: int
    n_false: int

    @property
    def output_size(self) -> int:
        return self.n_true


def run_irregular_ds(
    array: Buffer,
    predicate: Optional[Predicate],
    stream: Stream,
    *,
    out: Optional[Buffer] = None,
    false_out: Optional[Buffer] = None,
    payloads: Optional[Sequence[Buffer]] = None,
    total: Optional[int] = None,
    wg_size: int = 256,
    coarsening: Optional[int] = None,
    stencil_unique: bool = False,
    reduction_variant: str = "tree",
    scan_variant: str = "tree",
    scan_first: bool = False,
    sync: bool = True,
    id_allocation: str = "dynamic",
    race_tracking: bool = False,
    backend: Optional[str] = None,
) -> IrregularDSResult:
    """Execute an irregular Data Sliding operation.

    With ``out=None`` the slide is **in place** on ``array`` (the
    paper's DS Remove_if / Stream Compaction / Unique); passing a
    distinct ``out`` gives the out-of-place DS Copy_if.  ``false_out``
    additionally collects the predicate-false elements (partition).
    ``payloads`` makes the launch keyed: each payload buffer (at least
    ``total`` elements) slides in place to its key's position.

    ``backend`` selects the event-level scheduler (``"simulated"``) or
    the tile-granularity fast path (``"vectorized"``); ``None`` defers
    to the ``REPRO_BACKEND`` environment variable.  The fault-injection
    hooks (``race_tracking``, ``sync=False``, static ID allocation)
    force the simulated backend.

    Returns counts of true/false elements (read back from the flag
    chain's final entry, exactly how a host retrieves the compacted size
    on a real device).
    """
    if predicate is None and not stencil_unique:
        raise LaunchError("a predicate is required unless stencil_unique is set")
    n = total if total is not None else array.size
    if n <= 0:
        raise LaunchError(f"input size must be positive, got {n}")
    if n > array.size:
        raise LaunchError(f"total {n} exceeds buffer {array.name!r} size {array.size}")
    label = "unique" if stencil_unique else predicate.name
    if payloads is None:
        payloads = []
        kernel_name = f"irregular_ds[{label}]"
    else:
        payloads = list(payloads)
        kernel_name = f"keyed_ds[{label} x{len(payloads)} payloads]"
    for buf in payloads:
        if buf.size < n:
            raise LaunchError(
                f"buffer {buf.name!r} has {buf.size} elements, needs {n}")
    destination = out if out is not None else array
    geometry = launch_geometry(
        n, stream.device, array.itemsize, wg_size=wg_size, coarsening=coarsening
    )
    flags = make_flags(geometry.n_workgroups)
    counter = make_wg_counter()
    resolved = resolve_backend(backend)
    if race_tracking or not sync or id_allocation != "dynamic":
        resolved = "simulated"
    if resolved == "vectorized":
        counters = vectorized_irregular_launch(
            array, destination, flags, counter, predicate, geometry, n, stream,
            false_out=false_out,
            payloads=payloads,
            stencil_unique=stencil_unique,
            kernel_name=kernel_name,
        )
    else:
        tracked = [array, *payloads] if race_tracking else []
        for buf in tracked:
            buf.arm_race_tracking()
        try:
            counters = stream.launch(
                irregular_ds_kernel,
                grid_size=geometry.n_workgroups,
                wg_size=geometry.wg_size,
                args=(array, destination, flags, counter,
                      predicate if predicate is not None else _NULL_PREDICATE,
                      geometry, n),
                kwargs={
                    "false_out": false_out,
                    "payloads": payloads,
                    "stencil_unique": stencil_unique,
                    "reduction_variant": reduction_variant,
                    "scan_variant": scan_variant,
                    "scan_first": scan_first,
                    "sync": sync,
                    "id_allocation": id_allocation,
                },
                kernel_name=kernel_name,
            )
        finally:
            for buf in tracked:
                buf.disarm_race_tracking()
    n_true = int(flags.data[geometry.n_workgroups]) - 1
    counters.extras["coarsening"] = geometry.coarsening
    counters.extras["spilled"] = float(geometry.spilled)
    counters.extras["adjacent_syncs"] = float(geometry.n_workgroups if sync else 0)
    counters.extras["irregular"] = 1.0
    counters.extras["collective_rounds"] = collective_rounds_per_wg(
        geometry.wg_size, stream.device.warp_size, geometry.coarsening,
        reduction_variant, scan_variant,
    )
    counters.extras["opt_collectives"] = (
        1.0
        if (scan_variant != "tree" or reduction_variant != "tree")
        else 0.0
    )
    counters.extras["scan_first"] = 1.0 if scan_first else 0.0
    return IrregularDSResult(
        counters=counters, geometry=geometry, n_true=n_true, n_false=n - n_true
    )


from repro.core.predicates import always_true as _always_true  # noqa: E402

_NULL_PREDICATE = _always_true()
