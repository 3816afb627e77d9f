"""The sharding planner: split one logical input into device-sized shards.

A :class:`Shard` is a half-open element range ``[lo, hi)`` of the flat
input — the unit the streaming engine loads, computes and stores as one
stage, and the unit the worker pool hands to one process.  Shard size is the configured device capacity
(``DSConfig.shard_elems`` / ``REPRO_SHARD_ELEMS``); the last shard
carries the remainder.

For the regular matrix primitives (pad/unpad) shards must be
**row-aligned**: DS Padding shifts row *i* by ``i x pad`` elements, so a
shard boundary inside a row would split one row's slide across two
kernel launches.  ``plan_shards(..., row_elems=cols)`` rounds the shard
size down to a whole number of rows (and refuses a device capacity
smaller than one row).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ReproError

__all__ = ["Shard", "plan_shards"]


@dataclass(frozen=True)
class Shard:
    """One planned slice of the input stream."""

    index: int
    lo: int
    hi: int

    @property
    def n_elems(self) -> int:
        return self.hi - self.lo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Shard(#{self.index} [{self.lo}, {self.hi}))"


def plan_shards(n_elems: int, shard_elems: int, *,
                row_elems: Optional[int] = None) -> List[Shard]:
    """Split ``n_elems`` into contiguous shards of at most
    ``shard_elems`` elements.

    With ``row_elems`` (the flattened length of one matrix row) every
    shard boundary lands on a row boundary, so the regular primitives
    can treat each shard as an independent sub-matrix.
    """
    n_elems = int(n_elems)
    shard_elems = int(shard_elems)
    if n_elems < 0:
        raise ReproError(f"n_elems must be >= 0, got {n_elems}")
    if shard_elems <= 0:
        raise ReproError(
            f"shard_elems must be positive, got {shard_elems} "
            f"(set DSConfig.shard_elems / REPRO_SHARD_ELEMS)")
    if row_elems is not None:
        row_elems = int(row_elems)
        if row_elems <= 0:
            raise ReproError(f"row_elems must be positive, got {row_elems}")
        if n_elems % row_elems:
            raise ReproError(
                f"n_elems={n_elems} is not a whole number of "
                f"{row_elems}-element rows")
        if shard_elems < row_elems:
            raise ReproError(
                f"shard_elems={shard_elems} is smaller than one row "
                f"({row_elems} elements); raise REPRO_SHARD_ELEMS or "
                f"DSConfig.shard_elems")
        # Round down to whole rows so no row straddles two shards.
        shard_elems -= shard_elems % row_elems
    shards: List[Shard] = []
    lo = 0
    while lo < n_elems:
        hi = min(lo + shard_elems, n_elems)
        shards.append(Shard(index=len(shards), lo=lo, hi=hi))
        lo = hi
    return shards
