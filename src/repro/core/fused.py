"""Fused execution of chained irregular DS operations.

The paper prices a multi-primitive workload (the Table I pipelines) as
a chain of kernels on one stream: each pass re-loads the whole array,
re-runs a fresh adjacent-synchronization chain and re-stores the
survivors.  When consecutive ops are in-place filters over the *same*
buffer — ``compact`` then ``unique``, say — the chain can instead run
as **one** launch whose load stage evaluates every stage's predicate
and whose flag chain carries, alongside the cumulative kept count, the
boundary value the ``unique`` stencil needs.  That is the pseudo-
streaming idea of arXiv:1608.07200 applied to the DS kernels: the
intermediate array is never materialized in global memory.

A fused chain is a list of :class:`FuseStage` values applied in
sequence, with implicit compaction between stages:

* ``pred`` stages keep elements satisfying an elementwise predicate —
  chains of these AND together, so any number can fuse;
* at most **one** ``stencil`` (unique) stage: an element survives it
  iff it differs from the *previous survivor of the preceding stages*.
  Inside a work-group that previous survivor is tracked locally; at
  tile boundaries it travels down the adjacent-synchronization chain
  in a small carry buffer published just before the flag — so the
  second op's load phase reuses the first op's flag chain instead of
  launching again.

The one inter-group subtlety: a group's kept count depends on its
predecessor's carry (the group's first pre-stencil survivor is dropped
when it equals the carry).  The modified synchronization therefore
*adjusts* the reduced local count after the poll delivers the carry,
then publishes ``previous + adjusted`` exactly like Figure 7.  No
cascade is possible with a single stencil stage: dropping the first
survivor never changes which element is the group's *last* survivor,
so the outgoing carry is unaffected.

Both backends implement the fusion: :func:`run_fused_irregular`
dispatches to a generator kernel on the event-level scheduler or to a
closed-form fast path.  The fast path does a constant number of
whole-array passes per launch, whatever the grid size:
:func:`fused_survivors` runs each stage once, over the survivors of
the previous stage — one predicate (or stencil) pass, one
``flatnonzero`` and one gather — and the last stage gathers straight
into the device buffer.  Counters (arithmetic in
:func:`repro.simgpu.vectorized.fused_chain_accounting`), the flag
chain and the carry chain all derive from one small record: the
survivors of each stage prefix before every round boundary, one binary
search per round.  The schedule-invariant counters and the side
structures match across backends like every other primitive's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.collectives.reduction import reduce_workgroup
from repro.collectives.scan import binary_exclusive_scan
from repro.core.coarsening import LaunchGeometry, launch_geometry
from repro.core.dynamic_id import dynamic_wg_id
from repro.core.fastpath import (
    _base_counters,
    _evaluate_keep,
    _finalize_sync_structures,
    _record_launch,
    _trace_begin,
)
from repro.core.flags import decode_count, encode_count, make_flags, make_wg_counter
from repro.core.predicates import Predicate
from repro.errors import LaunchError
from repro.perfmodel.collective_cost import collective_rounds_per_wg
from repro.simgpu.buffers import Buffer
from repro.simgpu.counters import LaunchCounters
from repro.simgpu.events import Event
from repro.simgpu.stream import Stream
from repro.simgpu.vectorized import (
    fused_chain_accounting,
    resolve_backend,
    round_bounds,
    workgroup_kept_counts,
)
from repro.simgpu.workgroup import WorkGroup

__all__ = [
    "FuseStage",
    "FusedSurvivors",
    "FusedResult",
    "fused_survivors",
    "chain_kernel_name",
    "run_fused_irregular",
]


@dataclass(frozen=True)
class FuseStage:
    """One stage of a fused chain: an elementwise predicate filter or
    the unique stencil."""

    kind: str  # "pred" | "stencil"
    predicate: Optional[Predicate] = None

    def __post_init__(self) -> None:
        if self.kind not in ("pred", "stencil"):
            raise LaunchError(f"unknown fuse stage kind {self.kind!r}")
        if self.kind == "pred" and self.predicate is None:
            raise LaunchError("pred fuse stage requires a predicate")

    @property
    def label(self) -> str:
        return "unique" if self.kind == "stencil" else self.predicate.name


def chain_kernel_name(stages: Sequence[FuseStage]) -> str:
    return "fused_ds[" + "+".join(s.label for s in stages) + "]"


def _split_stages(
    stages: Sequence[FuseStage],
) -> Tuple[List[Predicate], bool, List[Predicate]]:
    """Split into (predicates before the stencil, stencil?, predicates
    after).  More than one stencil stage cannot fuse — the carry chain
    holds a single boundary value."""
    if len(stages) < 2:
        raise LaunchError("a fused chain needs at least two stages")
    pre: List[Predicate] = []
    post: List[Predicate] = []
    has_stencil = False
    for stage in stages:
        if stage.kind == "stencil":
            if has_stencil:
                raise LaunchError(
                    "fused chains support at most one unique stage")
            has_stencil = True
        elif has_stencil:
            post.append(stage.predicate)
        else:
            pre.append(stage.predicate)
    return pre, has_stencil, post


def _and_preds(vals: np.ndarray, preds: Sequence[Predicate]) -> np.ndarray:
    mask = np.ones(vals.shape, dtype=bool)
    for p in preds:
        mask &= np.asarray(p(vals), dtype=bool)
    return mask


@dataclass(frozen=True)
class FusedSurvivors:
    """The elements surviving each stage of a fused chain.

    Stage ``i`` runs on the survivors of stage ``i - 1`` (stage 0 on the
    input).  ``values[i]`` holds the survivors of stages ``0..i`` — the
    output of the op the stage stands for — for every stage but the
    last; ``kept`` indexes the last stage's input at its survivors, which
    the launch gathers straight into the device buffer.  ``below[i]``
    counts the survivors of the first ``i`` stages before every global
    round boundary (:func:`~repro.simgpu.vectorized.round_bounds`): the
    one per-round record the counters, the flag chain and the carry
    chain derive from.  ``stencil_at`` is the index of the stencil stage
    (``-1`` without one).
    """

    values: List[np.ndarray]
    kept: np.ndarray
    below: List[np.ndarray]
    stencil_at: int = -1


def fused_survivors(
    vals: np.ndarray, stages: Sequence[FuseStage], wg_size: int
) -> FusedSurvivors:
    """Run the chain's stages over ``vals``, each on the survivors of the
    previous one.

    ``fused_survivors(v, stages, w).values[i]`` holds exactly the
    elements the sequential execution of stages ``0..i`` would have
    kept.  A stage is one predicate (or stencil) pass, one
    ``flatnonzero`` and one gather over the previous stage's survivors,
    so the work shrinks from stage to stage; its round-boundary counts
    are one binary search per round.  ``vals`` is only read and every
    value array is a copy, so the result stays valid after the launch
    overwrites ``vals``.
    """
    cur = np.asarray(vals)
    below = [round_bounds(cur.size, wg_size)]
    values: List[np.ndarray] = []
    stencil_at = -1
    for i, stage in enumerate(stages):
        if stage.kind == "stencil":
            stencil_at = i
        pick = np.flatnonzero(
            _evaluate_keep(cur, stage.predicate, stage.kind == "stencil"))
        below.append(np.searchsorted(pick, below[-1]))
        if i < len(stages) - 1:
            cur = cur[pick]
            values.append(cur)
            del pick  # free it first: fresh pages cost faults at 1M
    return FusedSurvivors(values, pick, below, stencil_at)


@dataclass
class FusedResult:
    """Host-visible outcome of one fused launch.  ``intermediates`` are
    the outputs of the ops fused away — the survivors of every stage but
    the last (:attr:`FusedSurvivors.values`), read from the pristine
    input."""

    counters: LaunchCounters
    geometry: LaunchGeometry
    n_true: int
    n_false: int
    intermediates: List[np.ndarray]

    @property
    def output_size(self) -> int:
        return self.n_true


# ---------------------------------------------------------------------------
# Event-level (simulated) fused kernel.
# ---------------------------------------------------------------------------


def fused_irregular_kernel(
    wg: WorkGroup,
    array: Buffer,
    flags: Buffer,
    wg_counter: Buffer,
    carry: Buffer,
    carry_valid: Buffer,
    stages: Sequence[FuseStage],
    geometry: LaunchGeometry,
    total: int,
    *,
    reduction_variant: str = "tree",
    scan_variant: str = "tree",
) -> Generator[Event, None, None]:
    """One work-group's execution of the fused chain (in place).

    Structure mirrors Algorithm 2 — load/count, reduce, modified
    adjacent sync, scan+store — with two changes: the load stage
    evaluates the whole stage chain, and the sync additionally reads
    the predecessor's carry (last pre-stencil survivor), adjusts the
    local count, and publishes its own carry *before* setting the flag
    so the successor's reads are ordered by the flag poll.
    """
    pre, has_stencil, post = _split_stages(stages)
    wg_id = yield from dynamic_wg_id(wg, wg_counter)

    tile_index = wg_id  # shrinking slide: head-first chain
    base = tile_index * geometry.tile_size
    tile_positions = base + np.arange(geometry.tile_size, dtype=np.int64)
    tile_positions = tile_positions[tile_positions < total]
    wg.declare_reads(array, tile_positions)

    # -- Loading stage: evaluate the full stage chain per round. --------------
    with wg.phase("load", rounds=geometry.coarsening):
        staged: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        lane_counts = np.zeros(wg.size, dtype=np.int64)
        pos = base + wg.wi_id
        last_p_value = None        # last pre-stencil survivor seen so far
        first_p: Optional[tuple] = None  # (round_idx, idx, value, kept)
        for round_idx in range(geometry.coarsening):
            lane_active = pos < total
            active = pos[lane_active]
            values = yield from wg.load(array, active)
            pmask = _and_preds(values, pre)
            if has_stencil:
                smask = pmask.copy()
                p_idx = np.flatnonzero(pmask)
                if p_idx.size:
                    sv = values[p_idx]
                    keep = np.empty(sv.size, dtype=bool)
                    # The group's very first survivor is tentatively
                    # kept; the sync stage may drop it against the
                    # predecessor's carry.
                    keep[0] = (last_p_value is None
                               or sv[0] != last_p_value)
                    keep[1:] = sv[1:] != sv[:-1]
                    if first_p is None:
                        keep[0] = True
                    smask[p_idx[~keep]] = False
                    last_p_value = sv[-1]
            else:
                smask = pmask
            final = smask & _and_preds(values, post)
            if has_stencil and first_p is None:
                p_idx = np.flatnonzero(pmask)
                if p_idx.size:
                    i = int(p_idx[0])
                    first_p = (round_idx, i, values[i], bool(final[i]))
            lane_counts[lane_active] += final
            staged.append((active, values, final))
            pos = pos + wg.size

    # -- Reduction before the synchronization. --------------------------------
    with wg.phase("reduce", variant=reduction_variant):
        local_count, _rounds = reduce_workgroup(
            lane_counts, reduction_variant, wg.warp_size)

    # -- Modified adjacent synchronization with carry. ------------------------
    with wg.phase("sync", wg_id=wg_id):
        yield from wg.barrier("local")
        flag_value = yield from wg.spin_until(flags, wg_id, lambda v: v != 0,
                                              waits_on=wg_id - 1 if wg_id > 0
                                              else None)
        previous_total = decode_count(flag_value)
        in_valid = yield from wg.load(
            carry_valid, np.asarray([wg_id], dtype=np.int64))
        in_carry = yield from wg.load(
            carry, np.asarray([wg_id], dtype=np.int64))
        if (has_stencil and first_p is not None and int(in_valid[0])
                and in_carry[0] == first_p[2]):
            round_idx, i, _value, kept = first_p
            if kept:
                staged[round_idx][2][i] = False
                local_count -= 1
        if last_p_value is not None:
            out_carry, out_valid = last_p_value, 1
        else:
            out_carry, out_valid = in_carry[0], int(in_valid[0])
        yield from wg.store(carry, np.asarray([wg_id + 1], dtype=np.int64),
                            np.asarray([out_carry]))
        yield from wg.store(carry_valid,
                            np.asarray([wg_id + 1], dtype=np.int64),
                            np.asarray([out_valid], dtype=np.int64))
        yield from wg.atomic_or(
            flags, wg_id + 1, encode_count(previous_total + int(local_count)))
        yield from wg.barrier("global")

    # -- Storing stage: binary prefix sum ranks each survivor. ----------------
    with wg.phase("store"):
        running = previous_total
        for active, values, final in staged:
            if active.size == 0:
                continue
            full_pred = np.zeros(wg.size, dtype=bool)
            full_pred[: active.size] = final  # active lanes are a prefix
            with wg.phase("scan", variant=scan_variant):
                ranks, _ = binary_exclusive_scan(
                    full_pred, scan_variant, wg.warp_size)
            true_ranks = ranks[: active.size][final]
            yield from wg.store(array, running + true_ranks, values[final])
            running += int(final.sum())


# ---------------------------------------------------------------------------
# Vectorized (closed-form) fused launch.
# ---------------------------------------------------------------------------


def _vectorized_fused_launch(
    array: Buffer,
    stages: Sequence[FuseStage],
    carry: Buffer,
    carry_valid: Buffer,
    flags: Buffer,
    wg_counter: Buffer,
    geometry: LaunchGeometry,
    total: int,
    stream: Stream,
    kernel_name: str,
) -> Tuple[LaunchCounters, List[np.ndarray]]:
    """Fast-path twin of :func:`fused_irregular_kernel`.

    Every value the launch needs — each stage's survivors and the carry
    values — is read from the pristine input before the one in-place
    store (the gathers copy, so no snapshot is taken).  Returns the
    launch record and the outputs of the ops fused away, which the
    pipeline resolves their futures with.
    """
    grid, W, cf = geometry.n_workgroups, geometry.wg_size, geometry.coarsening
    n = int(total)
    tracer, launch_span = _trace_begin(kernel_name, grid, W, stream)
    t0 = tracer.now_us() if tracer is not None else 0.0
    vals = array.data[:n]  # pristine until the store below
    survivors = fused_survivors(vals, stages, W)
    kt = np.diff(survivors.below[-1])  # kept per global round
    n_true = int(survivors.kept.size)
    s = survivors.stencil_at
    if s >= 0:
        # Group g's carry is the last pre-stencil survivor before its
        # tile end, global round (g + 1) * cf.  Read it before the
        # store: with the stencil first, the pre-stencil survivors are
        # the input itself.
        pre_below = survivors.below[s]
        below = pre_below[np.minimum(np.arange(1, grid + 1) * cf,
                                     pre_below.size - 1)]
        slots = np.flatnonzero(below)
        carry_vals = (survivors.values[s - 1] if s else vals)[below[slots] - 1]
    # The last stage's input is a gathered copy, never ``vals``: gather
    # straight into the device buffer ("clip": the indices are in range,
    # and "raise" would buffer the output).
    np.take(survivors.values[-1], survivors.kept, out=array.data[:n_true],
            mode="clip")
    t1 = tracer.now_us() if tracer is not None else 0.0

    c = _base_counters(kernel_name, grid, W, stream)
    acct = fused_chain_accounting(
        n, kt, W, grid, cf,
        itemsize=array.itemsize,
        carry_itemsize=carry.itemsize,
        valid_itemsize=carry_valid.itemsize,
        transaction_bytes=array.transaction_bytes,
        count_transactions=array.count_transactions,
    )
    c.n_loads = acct["n_loads"]
    c.n_stores = acct["n_stores"]
    c.bytes_loaded = acct["bytes_loaded"]
    c.bytes_stored = acct["bytes_stored"]
    c.load_transactions = acct["load_transactions"]
    c.store_transactions = acct["store_transactions"]
    c.n_atomics = 3 * grid
    c.n_barriers = 3 * grid

    # Leave the side structures as the kernel would: the flag chain
    # carries cumulative kept counts, the carry chain each group's last
    # pre-stencil survivor so far (a tile without one passes its
    # predecessor's through).  A stencil-free chain only passes the zero
    # carry along.
    _finalize_sync_structures(flags, wg_counter, grid,
                              np.cumsum(workgroup_kept_counts(kt, cf)) + 1)
    if s >= 0:
        carry.data[slots + 1] = carry_vals
        carry_valid.data[slots + 1] = 1

    rec = _record_launch(stream, c, tracer, launch_span, t0, t1)
    return rec, survivors.values


# ---------------------------------------------------------------------------
# Host entry point.
# ---------------------------------------------------------------------------


def run_fused_irregular(
    array: Buffer,
    stages: Sequence[FuseStage],
    stream: Stream,
    *,
    total: Optional[int] = None,
    wg_size: int = 256,
    coarsening: Optional[int] = None,
    reduction_variant: str = "tree",
    scan_variant: str = "tree",
    backend: Optional[str] = None,
) -> FusedResult:
    """Execute a fused in-place filter chain on ``array``.

    Semantically identical to running each stage's primitive in
    sequence, but a **single** kernel launch: one load of the input,
    one flag chain (carry-augmented), one store of the final
    survivors.  Returns counts exactly like
    :func:`repro.core.irregular.run_irregular_ds`.
    """
    n = total if total is not None else array.size
    if n <= 0:
        raise LaunchError(f"input size must be positive, got {n}")
    if n > array.size:
        raise LaunchError(
            f"total {n} exceeds buffer {array.name!r} size {array.size}")
    _split_stages(stages)  # validate the chain shape up front
    geometry = launch_geometry(
        n, stream.device, array.itemsize, wg_size=wg_size,
        coarsening=coarsening)
    flags = make_flags(geometry.n_workgroups)
    counter = make_wg_counter()
    carry = Buffer(np.zeros(geometry.n_workgroups + 1, dtype=array.data.dtype),
                   "fuse_carry")
    carry_valid = Buffer(
        np.zeros(geometry.n_workgroups + 1, dtype=np.int64), "fuse_carry_valid")
    kernel_name = chain_kernel_name(stages)
    if resolve_backend(backend) == "vectorized":
        counters, intermediates = _vectorized_fused_launch(
            array, stages, carry, carry_valid, flags, counter, geometry, n,
            stream, kernel_name)
    else:
        # Read the survivors before the kernel overwrites its input.
        intermediates = fused_survivors(
            array.data[:n], stages, geometry.wg_size).values
        counters = stream.launch(
            fused_irregular_kernel,
            grid_size=geometry.n_workgroups,
            wg_size=geometry.wg_size,
            args=(array, flags, counter, carry, carry_valid, stages,
                  geometry, n),
            kwargs={
                "reduction_variant": reduction_variant,
                "scan_variant": scan_variant,
            },
            kernel_name=kernel_name,
        )
    n_true = int(flags.data[geometry.n_workgroups]) - 1
    counters.extras["coarsening"] = geometry.coarsening
    counters.extras["spilled"] = float(geometry.spilled)
    counters.extras["adjacent_syncs"] = float(geometry.n_workgroups)
    counters.extras["irregular"] = 1.0
    counters.extras["fused_stages"] = float(len(stages))
    counters.extras["collective_rounds"] = collective_rounds_per_wg(
        geometry.wg_size, stream.device.warp_size, geometry.coarsening,
        reduction_variant, scan_variant,
    )
    return FusedResult(
        counters=counters, geometry=geometry, n_true=n_true,
        n_false=n - n_true, intermediates=intermediates,
    )
