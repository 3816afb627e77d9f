"""Global-memory buffers with a transaction model and data-race tracking.

A :class:`Buffer` wraps a flat NumPy array that plays the role of device
global memory.  All Data Sliding kernels operate **in place** on these
arrays, so a synchronization bug corrupts real data and is caught by the
test oracles.  On top of raw storage the buffer provides:

* **the transaction model** — coalescing: the indices touched by one
  vector access are grouped into aligned segments of
  ``transaction_bytes`` and each distinct segment costs one transaction.
  :meth:`WorkGroup.load <repro.simgpu.workgroup.WorkGroup.load>` and
  ``store`` count each access once and put the count on the event, which
  the scheduler sums into the launch's
  :class:`~repro.simgpu.counters.LaunchCounters` — the one record of a
  launch's traffic, from which the performance model prices it and
  tests assert, e.g., that the regular DS kernel moves each element
  exactly twice (one load, one store).  The buffer keeps no ledger.
* **read-before-overwrite tracking** — the heart of the paper is that
  adjacent work-group synchronization prevents a work-group from storing
  into a region another work-group has not yet *loaded*.  When tracking
  is armed, each element carries the ID of the work-group still expected
  to read it; a store to an element whose expected reader is a different,
  unfinished work-group raises :class:`repro.errors.DataRaceError`.
  Fault-injection tests arm the tracker and remove the synchronization to
  demonstrate the hazard is real; the full primitives run with the
  tracker armed in the test suite and never trip it.
"""

from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np

from repro.errors import DataRaceError, LaunchError

__all__ = ["Buffer", "default_count_transactions"]

ArrayLike = Union[np.ndarray, list, tuple]


def default_count_transactions() -> bool:
    """Default for :class:`Buffer`'s ``count_transactions``.

    Full-scale benchmark runs (``REPRO_BENCH_FULL=1``) disable per-access
    transaction accounting: at 16M elements the segment arithmetic is a
    measurable fraction of the wall clock, and the closed-form counters
    of the vectorized backend cover the accounting there.
    """
    return not bool(int(os.environ.get("REPRO_BENCH_FULL", "0") or "0"))


class Buffer:
    """A named global-memory buffer backed by a flat NumPy array.

    Parameters
    ----------
    data:
        Initial contents.  Multidimensional input is flattened with a
        *copy* so that the buffer owns its storage — device memory never
        aliases host arrays by accident.  Pass an ``np.ndarray`` you are
        happy to share by calling with ``copy=False`` (1-D contiguous
        arrays only).
    name:
        Diagnostic name used in traces and error messages.
    transaction_bytes:
        Coalescing granularity of the memory system (128 on the GPUs the
        paper uses).
    count_transactions:
        Transaction counting costs a sort + segment diff per access;
        disable it for pure-correctness runs on big inputs.  ``None``
        (the default) resolves to ``True`` except under
        ``REPRO_BENCH_FULL=1``, where counting is off so full-scale
        benchmarks measure the algorithm rather than the accounting.
    """

    def __init__(
        self,
        data: ArrayLike,
        name: str = "buf",
        *,
        copy: bool = True,
        transaction_bytes: int = 128,
        count_transactions: Optional[bool] = None,
    ) -> None:
        arr = np.asarray(data)
        if copy:
            arr = arr.reshape(-1).copy()
        else:
            if arr.ndim != 1 or not arr.flags.c_contiguous:
                raise LaunchError(
                    f"buffer {name!r}: copy=False requires a 1-D contiguous array"
                )
        self.data: np.ndarray = arr
        self.name = name
        self.transaction_bytes = int(transaction_bytes)
        self.count_transactions = (
            default_count_transactions()
            if count_transactions is None
            else bool(count_transactions)
        )
        self._expected_reader: Optional[np.ndarray] = None
        if self.transaction_bytes <= 0:
            raise LaunchError(f"buffer {name!r}: transaction_bytes must be positive")

    # -- basic properties ---------------------------------------------------

    @property
    def size(self) -> int:
        """Number of elements."""
        return int(self.data.size)

    @property
    def itemsize(self) -> int:
        """Bytes per element."""
        return int(self.data.itemsize)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def to_numpy(self) -> np.ndarray:
        """A *copy* of the current contents (host read-back)."""
        return self.data.copy()

    # -- transaction model --------------------------------------------------

    def _transactions(self, idx: np.ndarray) -> int:
        """Number of aligned ``transaction_bytes`` segments covering ``idx``."""
        if not self.count_transactions or idx.size == 0:
            return 0
        per_txn = max(1, self.transaction_bytes // self.itemsize)
        segments = idx // per_txn
        if segments.size == 1:
            return 1
        deltas = np.diff(segments)
        if (deltas >= 0).all():
            # The DS kernels issue sorted index vectors; counting segment
            # boundaries is ~4x cheaper than np.unique (profiled on the
            # 16M-element benchmarks).
            return int((deltas != 0).sum()) + 1
        # Rare unsorted access: sort-then-diff still beats np.unique,
        # which sorts *and* materializes the unique values.
        ordered = np.sort(segments)
        return int((np.diff(ordered) != 0).sum()) + 1

    # -- read-before-overwrite tracking --------------------------------------

    def arm_race_tracking(self) -> None:
        """Start tracking expected readers.  Each element may have at most
        one outstanding reader, which matches the DS kernels (every input
        element is loaded by exactly one work-group)."""
        self._expected_reader = np.full(self.size, -1, dtype=np.int64)

    def disarm_race_tracking(self) -> None:
        self._expected_reader = None

    @property
    def race_tracking_armed(self) -> bool:
        return self._expected_reader is not None

    def expect_reads(self, reader_id: int, idx: np.ndarray) -> None:
        """Declare that work-group ``reader_id`` still has to read ``idx``.

        The DS kernels declare their whole input tile as soon as the
        dynamic work-group ID is known, before the first load.
        """
        if self._expected_reader is None:
            return
        self._expected_reader[idx] = reader_id

    def _fulfill_reads(self, idx: np.ndarray) -> None:
        if self._expected_reader is None:
            return
        self._expected_reader[idx] = -1

    def _check_store_race(self, idx: np.ndarray, writer_id: int) -> None:
        if self._expected_reader is None or idx.size == 0:
            return
        expected = self._expected_reader[idx]
        conflict = (expected != -1) & (expected != writer_id)
        if conflict.any():
            where = int(np.argmax(conflict))
            raise DataRaceError(
                f"buffer {self.name!r}: work-group {writer_id} stored to element "
                f"{int(idx[where])} before work-group {int(expected[where])} loaded it "
                "(adjacent synchronization violated)",
                index=int(idx[where]),
                writer=writer_id,
            )

    # -- raw vector access (used by the WorkGroup context) --------------------

    def gather(self, idx: np.ndarray, *, reader_id: int = -1) -> np.ndarray:
        """Vector load.  Returns the values at ``idx`` and marks them read
        for the race tracker."""
        idx = np.asarray(idx, dtype=np.int64)
        values = self.data[idx]
        self._fulfill_reads(idx)
        return values

    def scatter(self, idx: np.ndarray, values: np.ndarray, *, writer_id: int = -1) -> None:
        """Vector store.  Raises :class:`DataRaceError` when tracking is
        armed and the store clobbers an unread element."""
        idx = np.asarray(idx, dtype=np.int64)
        self._check_store_race(idx, writer_id)
        self.data[idx] = values

    def fill(self, value) -> None:
        """Host-side fill (not counted as device traffic)."""
        self.data[:] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Buffer({self.name!r}, size={self.size}, dtype={self.data.dtype})"
