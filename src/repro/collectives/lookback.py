"""Single-pass decoupled-lookback scan (the LightScan formulation).

The three existing scan variants (:mod:`repro.collectives.scan`) are
*multi-pass over their input*: the tree scan walks ``2·log2(n)``
barrier-separated levels, and the ballot/shuffle variants still stage
per-warp totals through a second cross-warp scan.  LightScan
(arXiv:1604.04815) observes that the paper's adjacent-synchronization
flag protocol extends to the scan collective itself: each **tile**
publishes its local aggregate immediately, then *looks back* along the
tile chain, accumulating predecessor aggregates until it finds a tile
that has already published its **inclusive prefix** — at which point it
can resolve its own prefix and publish it, unblocking every later tile.
One pass over the data, and the inter-tile dependency chain carries a
single value exactly like the Figure 7 flags in
:mod:`repro.core.adjacent_sync`.

Each tile's flag is a tiny state machine:

* :data:`TILE_INVALID` — nothing published yet (lookback must wait);
* :data:`TILE_AGGREGATE` — the tile's local sum is available;
* :data:`TILE_PREFIX` — the tile's inclusive prefix is available
  (lookback terminates here).

Three faces of the same algorithm live in this module:

* :func:`decoupled_lookback_scan` — device-level exclusive scan of an
  arbitrary integer vector, the whole-array reference the tests hold
  the stepwise simulator to;
* :func:`lookback_exclusive_scan` — the work-group *binary* scan with
  the ``(scan, rounds)`` signature of the other ``SCAN_VARIANTS``, so
  ``scan_variant="lookback"`` plugs into every irregular kernel;
* :class:`LookbackScanSim` — a stepwise simulator that processes tiles
  in an **arbitrary order** with explicit spin/retry on ``INVALID``
  predecessors, used by the tests to drive the state machine through
  genuinely out-of-order schedules.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LaunchError

__all__ = [
    "TILE_INVALID",
    "TILE_AGGREGATE",
    "TILE_PREFIX",
    "LOOKBACK_ROUNDS",
    "decoupled_lookback_scan",
    "lookback_exclusive_scan",
    "LookbackScanSim",
]

TILE_INVALID = 0
"""Tile flag state: nothing published yet."""

TILE_AGGREGATE = 1
"""Tile flag state: the local aggregate is published."""

TILE_PREFIX = 2
"""Tile flag state: the inclusive prefix is published."""

LOOKBACK_ROUNDS = 2
"""Barrier-separated rounds one tile spends in the scan: publish the
aggregate, then resolve-and-publish the prefix.  The lookback loop
itself is a spin on the inter-tile chain (priced like the adjacent
synchronization), not a work-group barrier round — which is exactly why
the variant is single-pass."""


def decoupled_lookback_scan(
    values: np.ndarray, tile_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Exclusive scan of ``values`` via per-tile aggregate/prefix states.

    Returns ``(scan, tile_prefix)`` where ``scan`` is the element-wise
    exclusive prefix sum and ``tile_prefix[t]`` the inclusive prefix
    through tile ``t`` — the value a real device would read back from
    the last tile's flag.  Tiles are processed in ascending order here
    (the sequential schedule); :class:`LookbackScanSim` exercises the
    out-of-order schedules.
    """
    if tile_size <= 0:
        raise LaunchError(f"tile size must be positive, got {tile_size}")
    values = np.asarray(values, dtype=np.int64)
    n = values.size
    n_tiles = max(0, -(-n // tile_size))
    state = np.full(n_tiles, TILE_INVALID, dtype=np.int8)
    aggregate = np.zeros(n_tiles, dtype=np.int64)
    tile_prefix = np.zeros(n_tiles, dtype=np.int64)
    scan = np.zeros(n, dtype=np.int64)
    for t in range(n_tiles):
        lo, hi = t * tile_size, min((t + 1) * tile_size, n)
        local = values[lo:hi]
        aggregate[t] = int(local.sum())
        state[t] = TILE_AGGREGATE
        # Lookback: walk predecessors, accumulating aggregates, until a
        # published prefix terminates the walk (tile 0 starts at 0).
        exclusive = 0
        p = t - 1
        while p >= 0:
            if state[p] == TILE_PREFIX:
                exclusive += int(tile_prefix[p])
                break
            # Sequential schedule: predecessors are never INVALID.
            exclusive += int(aggregate[p])
            p -= 1
        tile_prefix[t] = exclusive + aggregate[t]
        state[t] = TILE_PREFIX
        scan[lo:hi] = exclusive + np.cumsum(local) - local
    return scan, tile_prefix


def lookback_exclusive_scan(
    predicate: np.ndarray, warp_size: int = 32
) -> Tuple[np.ndarray, int]:
    """Binary exclusive scan with warp-sized tiles and decoupled lookback.

    Same ``(scan, rounds)`` contract as the other variants in
    :mod:`repro.collectives.scan`; the reported rounds are the constant
    :data:`LOOKBACK_ROUNDS` (publish + resolve), independent of the
    work-group width — the whole point of the single-pass formulation.
    """
    pred = np.asarray(predicate, dtype=bool)
    if pred.size % warp_size:
        raise LaunchError(
            f"scan width {pred.size} is not a multiple of warp size {warp_size}"
        )
    scan, _ = decoupled_lookback_scan(pred.astype(np.int64), warp_size)
    return scan, LOOKBACK_ROUNDS


class LookbackScanSim:
    """Stepwise out-of-order execution of the decoupled-lookback scan.

    Tiles run in the caller-supplied ``order``; each step advances one
    tile by one phase.  A tile whose lookback reaches an ``INVALID``
    predecessor *spins* (the step is counted and retried later), exactly
    like a work-group polling an unset Figure 7 flag.  The simulator
    records every state transition so tests can assert that prefixes
    resolve correctly even when successors publish aggregates long
    before their predecessors run.
    """

    def __init__(self, values: np.ndarray, tile_size: int) -> None:
        if tile_size <= 0:
            raise LaunchError(f"tile size must be positive, got {tile_size}")
        self.values = np.asarray(values, dtype=np.int64)
        self.tile_size = int(tile_size)
        self.n_tiles = max(0, -(-self.values.size // tile_size))
        self.state = np.full(self.n_tiles, TILE_INVALID, dtype=np.int8)
        self.aggregate = np.zeros(self.n_tiles, dtype=np.int64)
        self.tile_prefix = np.zeros(self.n_tiles, dtype=np.int64)
        self.scan = np.zeros(self.values.size, dtype=np.int64)
        self.n_spins = 0
        self.events: List[Tuple[str, int]] = []

    def _tile_slice(self, t: int) -> slice:
        return slice(t * self.tile_size,
                     min((t + 1) * self.tile_size, self.values.size))

    def publish_aggregate(self, t: int) -> None:
        local = self.values[self._tile_slice(t)]
        self.aggregate[t] = int(local.sum())
        self.state[t] = TILE_AGGREGATE
        self.events.append(("aggregate", t))

    def try_resolve(self, t: int) -> bool:
        """One lookback attempt for tile ``t``.  Returns ``False`` (and
        counts a spin) when an ``INVALID`` predecessor blocks it."""
        if self.state[t] != TILE_AGGREGATE:
            raise LaunchError(
                f"tile {t} must publish its aggregate before resolving")
        exclusive = 0
        p = t - 1
        while p >= 0:
            if self.state[p] == TILE_PREFIX:
                exclusive += int(self.tile_prefix[p])
                break
            if self.state[p] == TILE_INVALID:
                self.n_spins += 1
                self.events.append(("spin", t))
                return False
            exclusive += int(self.aggregate[p])
            p -= 1
        self.tile_prefix[t] = exclusive + self.aggregate[t]
        self.state[t] = TILE_PREFIX
        sl = self._tile_slice(t)
        local = self.values[sl]
        self.scan[sl] = exclusive + np.cumsum(local) - local
        self.events.append(("prefix", t))
        return True

    def run(self, order: Optional[Sequence[int]] = None) -> np.ndarray:
        """Execute every tile, publishing aggregates in ``order`` (default
        ascending) and retrying blocked lookbacks round-robin until all
        prefixes resolve.  Returns the exclusive scan."""
        order = list(range(self.n_tiles)) if order is None else list(order)
        if sorted(order) != list(range(self.n_tiles)):
            raise LaunchError(
                f"order must be a permutation of 0..{self.n_tiles - 1}")
        for t in order:
            self.publish_aggregate(t)
            self.try_resolve(t)
        pending = [t for t in order if self.state[t] != TILE_PREFIX]
        guard = 0
        while pending:
            pending = [t for t in pending if not self.try_resolve(t)]
            guard += 1
            if guard > self.n_tiles + 1:  # pragma: no cover - defensive
                raise LaunchError("lookback failed to make progress")
        return self.scan
