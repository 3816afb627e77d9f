"""Algorithm 1 — the generic regular Data Sliding kernel.

Structure (quoting the paper's pseudocode):

1. ``Dynamic_work_group_id_allocation()`` (Figure 4);
2. loading stage — each work-item loads ``coarsening`` elements of the
   work-group's tile into on-chip memory;
3. ``Adjacent_wg_synchronization`` (Figure 3);
4. storing stage — the staged elements are written to their remapped
   output positions.

The kernel is *oblivious to row boundaries*: work-groups tile the flat
element range and the :class:`~repro.core.offsets.RegularRemap` computes
each element's destination (and whether it survives, for unpadding).

**Direction and safety.**  The chain invariant of adjacent
synchronization is: when work-group *i* stores, every group with logical
ID < *i* has finished loading.  Tiles are therefore walked from the tail
for expanding slides and from the head for shrinking slides (see
:mod:`repro.core.offsets`), which makes every store land either inside
the group's own (already loaded) tile or on the already-loaded side of
it — never on data a later-chained group still needs.  Fault-injection
tests disable the synchronization and watch
:class:`repro.errors.DataRaceError` fire under the same schedules.

The host-side entry point :func:`run_regular_ds` validates the
configuration, builds flags/counters, launches the kernel through a
:class:`~repro.simgpu.stream.Stream` and returns the launch geometry and
counters for the performance model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from repro.core.adjacent_sync import adjacent_sync_regular
from repro.core.coarsening import LaunchGeometry, launch_geometry
from repro.core.dynamic_id import dynamic_wg_id, static_wg_id
from repro.core.fastpath import vectorized_regular_launch
from repro.core.flags import make_flags, make_wg_counter
from repro.core.offsets import RegularRemap
from repro.errors import LaunchError
from repro.simgpu.vectorized import resolve_backend
from repro.simgpu.buffers import Buffer
from repro.simgpu.counters import LaunchCounters
from repro.simgpu.events import Event
from repro.simgpu.stream import Stream
from repro.simgpu.workgroup import WorkGroup

__all__ = ["regular_ds_kernel", "run_regular_ds", "RegularDSResult"]


def regular_ds_kernel(
    wg: WorkGroup,
    array: Buffer,
    flags: Buffer,
    wg_counter: Buffer,
    remap: RegularRemap,
    geometry: LaunchGeometry,
    *,
    sync: bool = True,
    id_allocation: str = "dynamic",
) -> Generator[Event, None, None]:
    """One work-group's execution of Algorithm 1.

    ``sync=False`` and ``id_allocation="static"`` are fault-injection
    hooks used by tests and the ablation benchmarks; production callers
    never pass them.
    """
    allocator = dynamic_wg_id if id_allocation == "dynamic" else static_wg_id
    wg_id = yield from allocator(wg, wg_counter)

    # Tile selection honours the sliding direction (see module docstring).
    if remap.direction == "expand":
        tile_index = geometry.n_workgroups - 1 - wg_id
    else:
        tile_index = wg_id
    base = tile_index * geometry.tile_size
    total = remap.total_in

    # Register the whole input tile with the race tracker before loading.
    tile_positions = base + np.arange(geometry.tile_size, dtype=np.int64)
    tile_positions = tile_positions[tile_positions < total]
    wg.declare_reads(array, tile_positions)

    # -- Loading stage: coarsening strided rounds into "registers". ----------
    with wg.phase("load", rounds=geometry.coarsening):
        staged: list[tuple[np.ndarray, np.ndarray]] = []
        pos = base + wg.wi_id
        for _ in range(geometry.coarsening):
            active = pos[pos < total]
            values = yield from wg.load(array, active)
            staged.append((active, values))
            pos = pos + wg.size

    # -- Adjacent work-group synchronization (Figure 3). ---------------------
    # wg_id is the dynamic ID — trace analyzers use it to map this
    # hardware slot's track onto the sync chain.
    with wg.phase("sync", wg_id=wg_id):
        if sync:
            yield from adjacent_sync_regular(wg, flags, wg_id)
        else:
            yield from wg.barrier("local")

    # -- Storing stage: remapped positions. -----------------------------------
    with wg.phase("store"):
        for in_pos, values in staged:
            if in_pos.size == 0:
                continue
            keep, out_pos = remap(in_pos)
            yield from wg.store(array, out_pos[keep], values[keep])


@dataclass
class RegularDSResult:
    """Host-visible outcome of one regular DS launch."""

    counters: LaunchCounters
    geometry: LaunchGeometry
    remap: RegularRemap

    @property
    def bytes_useful(self) -> int:
        """Bytes of payload actually slid (loads + stores of kept
        elements) — the paper's effective-throughput numerator."""
        return self.counters.bytes_loaded + self.counters.bytes_stored


def run_regular_ds(
    array: Buffer,
    remap: RegularRemap,
    stream: Stream,
    *,
    wg_size: int = 256,
    coarsening: Optional[int] = None,
    sync: bool = True,
    id_allocation: str = "dynamic",
    race_tracking: bool = False,
    backend: Optional[str] = None,
) -> RegularDSResult:
    """Execute a regular Data Sliding operation in place on ``array``.

    Parameters
    ----------
    array:
        The buffer holding the input; must be large enough for
        ``remap.total_out`` elements (padding needs pre-allocated room,
        as the paper notes in Section II-A).
    remap:
        The position mapping (e.g. :func:`repro.core.offsets.pad_remap`).
    stream:
        Device stream; its device decides geometry defaults and the
        recorded counters.
    wg_size, coarsening:
        Launch tuning; defaults follow :mod:`repro.core.coarsening`.
    sync, id_allocation, race_tracking:
        Fault-injection and verification hooks for tests/ablations.
        Any of them being engaged forces the simulated backend (they
        exist to exercise the event-level machinery).
    backend:
        ``"simulated"`` (event-level scheduler) or ``"vectorized"``
        (tile-granularity fast path with closed-form counters); ``None``
        defers to the ``REPRO_BACKEND`` environment variable.
    """
    needed = max(remap.total_in, remap.total_out)
    if array.size < needed:
        raise LaunchError(
            f"buffer {array.name!r} has {array.size} elements but the slide "
            f"{remap.name} needs room for {needed}"
        )
    geometry = launch_geometry(
        remap.total_in,
        stream.device,
        array.itemsize,
        wg_size=wg_size,
        coarsening=coarsening,
    )
    flags = make_flags(geometry.n_workgroups)
    counter = make_wg_counter()
    resolved = resolve_backend(backend)
    if race_tracking or not sync or id_allocation != "dynamic":
        resolved = "simulated"
    if resolved == "vectorized":
        counters = vectorized_regular_launch(
            array, flags, counter, remap, geometry, stream
        )
    else:
        if race_tracking:
            array.arm_race_tracking()
        try:
            counters = stream.launch(
                regular_ds_kernel,
                grid_size=geometry.n_workgroups,
                wg_size=geometry.wg_size,
                args=(array, flags, counter, remap, geometry),
                kwargs={"sync": sync, "id_allocation": id_allocation},
                kernel_name=f"regular_ds[{remap.name}]",
            )
        finally:
            if race_tracking:
                array.disarm_race_tracking()
    counters.extras["coarsening"] = geometry.coarsening
    counters.extras["spilled"] = float(geometry.spilled)
    counters.extras["adjacent_syncs"] = float(geometry.n_workgroups if sync else 0)
    return RegularDSResult(counters=counters, geometry=geometry, remap=remap)
