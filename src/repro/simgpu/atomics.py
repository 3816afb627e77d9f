"""Atomic read-modify-write operations on global buffers.

The paper's synchronization machinery rests on three atomics:

* ``atom_add`` on a global counter implements dynamic work-group ID
  allocation (Figure 4);
* ``atom_or`` polls and sets the adjacent-synchronization flags for
  regular DS algorithms (Figure 3);
* ``atom_add`` on the flag array passes the accumulated sliding offset
  to the next work-group for irregular DS algorithms (Figure 7).

In the simulator, one scheduler step is atomic by construction (the
operation completes before the event token is yielded), so these
functions perform the update eagerly and return the *old* value, exactly
like their OpenCL counterparts.  They are free functions rather than
:class:`~repro.simgpu.buffers.Buffer` methods so the buffer stays a pure
storage abstraction and so the unstable atomic-compaction baselines can
reuse them for bulk (vectorized) atomics.
"""

from __future__ import annotations

import numpy as np

from repro.simgpu.buffers import Buffer

__all__ = [
    "atomic_add",
    "atomic_or",
    "atomic_max",
    "atomic_cas",
    "atomic_exchange",
    "atomic_read",
    "bulk_atomic_add",
]


def atomic_add(buf: Buffer, index: int, value) -> int:
    """``old = buf[index]; buf[index] += value; return old`` atomically."""
    old = buf.data[index]
    buf.data[index] = old + value
    return old.item() if hasattr(old, "item") else old


def atomic_or(buf: Buffer, index: int, value) -> int:
    """``old = buf[index]; buf[index] |= value; return old`` atomically.

    With ``value == 0`` this is the atomic *read* the paper's spin loop
    uses (``atom_or(&flags[wg_id_ - 1], 0)``).
    """
    old = int(buf.data[index])
    buf.data[index] = old | int(value)
    return old


def atomic_max(buf: Buffer, index: int, value) -> int:
    """``old = buf[index]; buf[index] = max(old, value); return old``."""
    old = buf.data[index]
    if value > old:
        buf.data[index] = value
    return old.item() if hasattr(old, "item") else old


def atomic_cas(buf: Buffer, index: int, compare, value) -> int:
    """Compare-and-swap; returns the old value regardless of success."""
    old = buf.data[index]
    if old == compare:
        buf.data[index] = value
    return old.item() if hasattr(old, "item") else old


def atomic_exchange(buf: Buffer, index: int, value) -> int:
    """Unconditionally swap in ``value``; return the old value."""
    old = buf.data[index]
    buf.data[index] = value
    return old.item() if hasattr(old, "item") else old


def atomic_read(buf: Buffer, index: int) -> int:
    """Atomic read, implemented as ``atomic_or(buf, index, 0)`` for
    integer buffers, as the paper does in its spin loops."""
    return atomic_or(buf, index, 0)


def bulk_atomic_add(buf: Buffer, index: int, count: int) -> int:
    """Reserve ``count`` consecutive slots from a global cursor.

    Models a *warp-aggregated* atomic: one transaction reserves space for
    many work-items (the optimization of the unstable compaction
    baselines in Figure 13).  Returns the base of the reservation.
    """
    old = int(buf.data[index])
    buf.data[index] = old + int(count)
    return old


def simd_atomic_add(buf: Buffer, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-lane atomics issued by one lock-step vector instruction.

    Each lane performs an independent atomic add; lanes hitting the same
    location serialize, which ``np.add.at`` models correctly.  Returns
    the per-lane *old* values (the value observed before that lane's own
    update, assuming lane-index order within the vector, which is how
    GPU hardware resolves intra-warp atomic conflicts deterministically
    on the devices the paper targets).
    """
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values)
    old = np.empty(values.shape, dtype=buf.data.dtype)
    # Lane-ordered serialization: replay conflicts in lane order.
    # Sort by index, stable, so equal indices keep lane order.
    order = np.argsort(indices, kind="stable")
    inv = np.empty_like(order)
    inv[order] = np.arange(order.size)
    sorted_idx = indices[order]
    sorted_val = values[order]
    base = buf.data[sorted_idx]
    # prefix within equal-index runs
    boundaries = np.empty(sorted_idx.size, dtype=bool)
    if sorted_idx.size:
        boundaries[0] = True
        boundaries[1:] = sorted_idx[1:] != sorted_idx[:-1]
    run_id = np.cumsum(boundaries) - 1
    csum = np.cumsum(sorted_val)
    run_start = np.zeros(run_id.max() + 1 if sorted_idx.size else 0, dtype=csum.dtype)
    if sorted_idx.size:
        starts = np.flatnonzero(boundaries)
        run_start = csum[starts] - sorted_val[starts]
        prefix_in_run = csum - run_start[run_id] - sorted_val
        old_sorted = base + prefix_in_run
        old[order] = old_sorted.astype(buf.data.dtype, copy=False)
        np.add.at(buf.data, sorted_idx, sorted_val)
    return old


__all__.append("simd_atomic_add")
