"""``ShardLedger`` — inter-shard offset propagation, one level up.

Between work-groups the paper chains the irregular primitives with the
Figure 7 flags: each group publishes its cumulative count of
predicate-true elements, and its successor spins until the flag is set.
Between *shards* the streaming engine needs exactly the same value —
"how many elements did every earlier shard keep?" — to know where shard
*k*'s output lands in the global result.

The ledger carries that value with the decoupled-lookback state machine
of :mod:`repro.collectives.lookback` (LightScan), reusing its
:data:`~repro.collectives.lookback.TILE_INVALID` /
:data:`~repro.collectives.lookback.TILE_AGGREGATE` /
:data:`~repro.collectives.lookback.TILE_PREFIX` states per shard:

* a shard that finishes computing **publishes its aggregate** (its own
  kept count) immediately — pool workers finish out of order, exactly
  like tiles under an unfair scheduler;
* resolving shard *k*'s **exclusive prefix** (its output offset) walks
  predecessors, summing aggregates until a published prefix terminates
  the walk; an ``INVALID`` predecessor means "not yet" — the caller
  retries, like a work-group polling an unset flag;
* once resolved, the prefix is published, unblocking every later shard
  in one step.

The streaming engine's one stitcher drives it for both execution
modes, publishing shards in the order they finish (ascending
in-process, completion order under the worker pool); it is also
thread-safe, and :meth:`LookbackScanSim`-style
``publish``/``try_resolve`` naming keeps the correspondence with the
in-kernel state machine explicit.
"""

from __future__ import annotations

import threading
from typing import List, Optional

from repro.collectives.lookback import (
    TILE_AGGREGATE,
    TILE_INVALID,
    TILE_PREFIX,
)
from repro.errors import ReproError

__all__ = ["ShardLedger"]


class ShardLedger:
    """Decoupled-lookback offset ledger over ``n_shards`` shards."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 0:
            raise ReproError(f"n_shards must be >= 0, got {n_shards}")
        self.n_shards = int(n_shards)
        self._state: List[int] = [TILE_INVALID] * self.n_shards
        self._aggregate: List[int] = [0] * self.n_shards
        self._prefix: List[int] = [0] * self.n_shards  # inclusive
        self._lock = threading.Lock()
        self.n_spins = 0

    def grow(self, n: int = 1) -> None:
        """Append ``n`` INVALID shard slots — unsized iterator streams
        discover their shard count on the fly."""
        if n < 0:
            raise ReproError(f"cannot grow by {n} shards")
        with self._lock:
            self.n_shards += int(n)
            self._state.extend([TILE_INVALID] * n)
            self._aggregate.extend([0] * n)
            self._prefix.extend([0] * n)

    def _check(self, k: int) -> None:
        if not 0 <= k < self.n_shards:
            raise ReproError(
                f"shard {k} out of range [0, {self.n_shards})")

    def publish(self, k: int, count: int) -> None:
        """Shard ``k`` finished computing: publish its aggregate (its
        own kept-element count).  Order-independent."""
        self._check(k)
        if count < 0:
            raise ReproError(f"shard {k}: negative count {count}")
        with self._lock:
            if self._state[k] != TILE_INVALID:
                raise ReproError(f"shard {k} already published")
            self._aggregate[k] = int(count)
            self._state[k] = TILE_AGGREGATE

    def try_resolve(self, k: int) -> Optional[int]:
        """One lookback attempt for shard ``k``.

        Returns the shard's **exclusive prefix** (its global output
        offset) when every needed predecessor has published, else
        ``None`` (a spin — retry after more shards publish)."""
        self._check(k)
        with self._lock:
            if self._state[k] == TILE_PREFIX:
                return self._prefix[k] - self._aggregate[k]
            if self._state[k] != TILE_AGGREGATE:
                raise ReproError(
                    f"shard {k} must publish before resolving")
            exclusive = 0
            p = k - 1
            while p >= 0:
                if self._state[p] == TILE_PREFIX:
                    exclusive += self._prefix[p]
                    break
                if self._state[p] == TILE_INVALID:
                    self.n_spins += 1
                    return None
                exclusive += self._aggregate[p]
                p -= 1
            self._prefix[k] = exclusive + self._aggregate[k]
            self._state[k] = TILE_PREFIX
            return exclusive

    def resolve(self, k: int) -> int:
        """The exclusive prefix of shard ``k``; raises if a predecessor
        has not published (callers that can spin use
        :meth:`try_resolve`)."""
        offset = self.try_resolve(k)
        if offset is None:
            raise ReproError(
                f"shard {k} blocked on an unpublished predecessor")
        return offset

    def offsets(self) -> List[int]:
        """Every shard's exclusive prefix, resolving in ascending order
        (all shards must have published)."""
        return [self.resolve(k) for k in range(self.n_shards)]

    def total(self) -> int:
        """The grand total across all shards (resolves the last shard's
        inclusive prefix)."""
        if self.n_shards == 0:
            return 0
        last = self.n_shards - 1
        exclusive = self.resolve(last)
        with self._lock:
            return exclusive + self._aggregate[last]

    def aggregate(self, k: int) -> int:
        self._check(k)
        with self._lock:
            if self._state[k] == TILE_INVALID:
                raise ReproError(f"shard {k} has not published")
            return self._aggregate[k]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            states = "".join(".AP"[s] for s in self._state)
        return f"ShardLedger({states})"
