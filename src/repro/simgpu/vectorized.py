"""Closed-form accounting for the vectorized execution backend.

The simulated scheduler executes every work-group as a generator and
prices memory traffic one event at a time; for large inputs the Python
interpreter, not the algorithm, dominates the wall clock.  The
vectorized backend (see :mod:`repro.core.fastpath`) performs each DS
primitive as a handful of whole-array NumPy operations and *derives*
the :class:`~repro.simgpu.counters.LaunchCounters` the simulated
scheduler would have produced, using the arithmetic in this module.

The derivations rest on structural facts of the DS kernels that do not
depend on the schedule:

* every work-group issues exactly ``coarsening`` tile-round loads, and
  one store per non-empty round, over *contiguous* index ranges
  ``[k * wg_size, min((k+1) * wg_size, total))`` for the global round
  ``k`` (coalescing of a contiguous range is a two-term formula);
* adjacent synchronization and dynamic ID allocation contribute a fixed
  three atomics and three barriers per work-group;
* spin iterations, interleaving steps and residency are the *only*
  schedule-dependent quantities, and the backend reports the idealized
  schedule (zero failed polls, maximal admission).

This module also owns backend *selection*: it sits below both
``repro.core`` and ``repro.primitives``, so either layer can resolve
the ``backend=`` argument (and the ``REPRO_BACKEND`` environment
override) without import cycles.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.errors import LaunchError

__all__ = [
    "resolve_backend",
    "BACKENDS",
    "contiguous_round_txns",
    "contiguous_range_txns",
    "remapped_store_txns",
    "round_bounds",
    "round_kept_counts",
    "workgroup_kept_counts",
    "fused_chain_accounting",
]

BACKENDS = ("simulated", "vectorized")
"""The two execution tiers every DS primitive accepts."""

_ALIASES = {
    "simulated": "simulated",
    "sim": "simulated",
    "vectorized": "vectorized",
    "vec": "vectorized",
}

REMOVED_BACKENDS = ("compiled", "jit", "numba")
"""Spellings of the deleted compiled (Numba) tier, rejected with
:data:`REMOVED_NOTE` rather than the generic unknown-backend message."""

REMOVED_NOTE = ("the compiled (Numba) tier was removed; use 'vectorized', "
                "the fast tier")

ENV_VAR = "REPRO_BACKEND"


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a ``backend=`` argument to one of :data:`BACKENDS`.

    ``None`` defers to the ``REPRO_BACKEND`` environment variable and
    falls back to ``"simulated"``.  ``"sim"`` and ``"vec"`` are accepted
    as shorthand.  Unknown spellings — including ``"compiled"``,
    ``"jit"`` and ``"numba"``, the removed Numba tier — raise
    :class:`~repro.errors.LaunchError` when passed explicitly and
    :class:`ValueError` naming ``REPRO_BACKEND`` when they came from the
    environment.  Callers apply their own forcing rules on top (race
    tracking and fault-injection hooks require the event-level
    simulator).
    """
    from_env = False
    if backend is None:
        raw = os.environ.get(ENV_VAR, "").strip()
        if raw:
            backend, from_env = raw, True
        else:
            backend = "simulated"
    resolved = _ALIASES.get(str(backend).lower())
    if resolved is None:
        detail = f"expected one of {BACKENDS} (or the 'sim'/'vec' shorthands)"
        if str(backend).lower() in REMOVED_BACKENDS:
            detail = REMOVED_NOTE
        if from_env:
            raise ValueError(
                f"{ENV_VAR}={backend!r}: unknown backend; {detail}")
        raise LaunchError(f"unknown backend {backend!r}; {detail}")
    return resolved


def _per_txn(itemsize: int, transaction_bytes: int) -> int:
    return max(1, int(transaction_bytes) // int(itemsize))


def contiguous_round_txns(
    total: int, wg_size: int, itemsize: int, transaction_bytes: int, base: int = 0
) -> int:
    """Transactions for the DS loading pattern over ``total`` elements.

    Global round ``k`` touches the contiguous range
    ``[base + k * wg_size, base + min((k+1) * wg_size, total))``; a
    contiguous range costs ``last_segment - first_segment + 1``
    transactions.  Empty rounds cost nothing.
    """
    if total <= 0:
        return 0
    per = _per_txn(itemsize, transaction_bytes)
    n_rounds = (total + wg_size - 1) // wg_size
    lo = base + np.arange(n_rounds, dtype=np.int64) * wg_size
    hi = np.minimum(lo + wg_size, base + total)
    return int(((hi - 1) // per - lo // per + 1).sum())


def contiguous_range_txns(
    lo: np.ndarray, hi: np.ndarray, itemsize: int, transaction_bytes: int
) -> int:
    """Transactions for per-round stores to contiguous ranges
    ``[lo[k], hi[k])`` (the irregular kernels' output pattern).  Empty
    ranges (``hi <= lo``) are skipped — they emit a store event but
    touch no segment."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    mask = hi > lo
    if not mask.any():
        return 0
    per = _per_txn(itemsize, transaction_bytes)
    lo = lo[mask]
    hi = hi[mask]
    return int(((hi - 1) // per - lo // per + 1).sum())


def remapped_store_txns(
    kept_pos: np.ndarray,
    out_pos: np.ndarray,
    wg_size: int,
    itemsize: int,
    transaction_bytes: int,
) -> int:
    """Transactions for the regular kernel's storing stage.

    ``kept_pos`` are the surviving input positions (ascending) and
    ``out_pos`` their remapped destinations.  The simulated kernel
    issues one store per round (``round = kept_pos // wg_size``) and
    each store costs the number of distinct ``transaction_bytes``
    segments it touches, so the total is the number of distinct
    ``(round, segment)`` pairs.  All shipped remaps are monotonic
    within a round, making the pairs lexicographically sorted and the
    count a boundary sum; a non-monotonic remap falls back to an
    explicit lexicographic sort.
    """
    kept_pos = np.asarray(kept_pos, dtype=np.int64)
    if kept_pos.size == 0:
        return 0
    per = _per_txn(itemsize, transaction_bytes)
    rid = kept_pos // wg_size
    seg = np.asarray(out_pos, dtype=np.int64) // per
    dr = np.diff(rid)
    ds = np.diff(seg)
    if (ds[dr == 0] < 0).any():  # non-monotonic remap within a round
        order = np.lexsort((seg, rid))
        rid = rid[order]
        seg = seg[order]
        dr = np.diff(rid)
        ds = np.diff(seg)
    return int(((dr != 0) | (ds != 0)).sum()) + 1


def round_bounds(total: int, wg_size: int) -> np.ndarray:
    """The first position of every global round, then ``total``: the
    boundaries per-round counts are taken between (the last round may
    be partial)."""
    bounds = np.arange(0, total + wg_size, wg_size, dtype=np.int64)
    bounds[-1] = total
    return bounds


def round_kept_counts(kept_pos: np.ndarray, total: int, wg_size: int) -> np.ndarray:
    """Kept elements per global round, for the irregular kernels'
    contiguous output ranges, from the ascending positions of the kept
    elements: one binary search per round boundary, never a pass over
    the input."""
    return np.diff(np.searchsorted(kept_pos, round_bounds(total, wg_size)))


def workgroup_kept_counts(kt: np.ndarray, coarsening: int) -> np.ndarray:
    """Kept elements per work-group from the per-round counts ``kt``:
    work-group ``g``'s tile is global rounds ``g * coarsening`` up to
    ``(g + 1) * coarsening``, so its count is the sum of those rounds."""
    return np.add.reduceat(kt, np.arange(0, kt.size, coarsening))


def fused_chain_accounting(
    total: int,
    kt: np.ndarray,
    wg_size: int,
    grid: int,
    coarsening: int,
    *,
    itemsize: int,
    carry_itemsize: int,
    valid_itemsize: int,
    transaction_bytes: int,
    count_transactions: bool,
) -> dict:
    """Closed-form counters of one fused irregular chain launch.

    A fused launch (:mod:`repro.core.fused`) behaves like one irregular
    DS launch — coarsened tile loads, per-round contiguous kept stores
    — plus the carry chain: every work-group loads its predecessor's
    ``(carry, carry_valid)`` pair and stores its own, four
    single-element accesses per group, each touching one transaction
    segment.  ``kt`` holds the final survivors per global round
    (:func:`round_kept_counts`); the structural facts this arithmetic
    relies on are the same schedule-invariant ones the per-primitive
    fast paths use.
    """
    n = int(total)
    n_true = int(kt.sum())
    kept_before = np.cumsum(kt) - kt
    n_act = kt.size
    side_bytes = grid * (carry_itemsize + valid_itemsize)
    out = {
        "n_loads": grid * coarsening + 2 * grid,
        "n_stores": n_act + 2 * grid,
        "bytes_loaded": n * itemsize + side_bytes,
        "bytes_stored": n_true * itemsize + side_bytes,
        "load_transactions": 0,
        "store_transactions": 0,
    }
    if count_transactions:
        out["load_transactions"] = 2 * grid + contiguous_round_txns(
            n, wg_size, itemsize, transaction_bytes)
        out["store_transactions"] = 2 * grid + contiguous_range_txns(
            kept_before, kept_before + kt, itemsize, transaction_bytes)
    return out
