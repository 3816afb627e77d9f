"""``DSSource`` — the unified input protocol of every DS front door.

A source is *where the elements live*: an in-memory array, a
file-backed memmap, a shared-memory segment another process filled, or
a lazy iterator of chunks.  The three entry surfaces (:func:`repro.ds`,
:class:`~repro.pipeline.engine.Pipeline` enqueue methods,
:meth:`repro.serve.Server.submit`) all normalize their input through
:func:`as_source`, so out-of-core inputs are a first-class front-door
type rather than a side channel:

* a plain ``np.ndarray`` becomes an :class:`ArraySource` and executes
  exactly as before (in-core, zero behavioural change);
* an ``np.memmap`` becomes a :class:`MemmapSource` and is **streamed**
  shard-by-shard when it exceeds the configured device capacity
  (``DSConfig.shard_elems`` / ``REPRO_SHARD_ELEMS``);
* a ``multiprocessing.shared_memory.SharedMemory`` handle (wrapped
  with its dtype) becomes a :class:`SharedMemorySource` — the zero-copy
  hand-off format of the worker pool;
* an iterator/generator of ``np.ndarray`` chunks becomes a
  :class:`ShardIterSource` (unsized; streamed sequentially).

Anything else that ``np.asarray`` can coerce (lists, tuples, scalars)
still works, but the implicit coercion is **deprecated** — one
:class:`DeprecationWarning` per call site — because a silently
materialized input is exactly the raw-ndarray-only assumption this
protocol replaces.
"""

from __future__ import annotations

import sys
import warnings
from abc import ABC, abstractmethod
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import ReproError

__all__ = [
    "DSSource",
    "ArraySource",
    "MemmapSource",
    "SharedMemorySource",
    "ShardIterSource",
    "as_source",
]


class DSSource(ABC):
    """One logical 1-D (row-major) element stream of known dtype.

    The contract is deliberately small: a source knows its element
    count (``None`` for unsized iterators), its dtype, and how to
    produce a contiguous slice of elements.  Matrix-shaped inputs keep
    their geometry in :attr:`shape` so the regular primitives
    (pad/unpad) can shard on row boundaries.
    """

    #: Short adapter tag (``"array"``, ``"memmap"``, ``"shm"``, ``"iter"``).
    kind: str = "source"

    #: Whether the payload already lives in this process's heap.  Only
    #: in-core ndarray inputs take the legacy eager path; everything
    #: else is a streaming candidate.
    in_core: bool = False

    @property
    @abstractmethod
    def n_elems(self) -> Optional[int]:
        """Total element count, or ``None`` when unknown (iterators)."""

    @property
    @abstractmethod
    def dtype(self) -> np.dtype:
        """Element dtype."""

    @abstractmethod
    def read(self, lo: int, hi: int) -> np.ndarray:
        """Elements ``[lo, hi)`` as a contiguous 1-D array (a view when
        the storage allows it; callers must not mutate)."""

    @property
    def shape(self) -> Tuple[int, ...]:
        """Logical geometry; ``(n_elems,)`` unless the adapter carries
        a matrix shape."""
        n = self.n_elems
        return (int(n),) if n is not None else ()

    @property
    def sized(self) -> bool:
        return self.n_elems is not None

    def signature(self) -> tuple:
        """The (kind-independent) cache/batch-key contribution: element
        count and dtype, exactly like
        :func:`~repro.primitives.opspec.array_signature`."""
        n = self.n_elems
        return (int(n) if n is not None else None, str(self.dtype))

    def materialize(self) -> np.ndarray:
        """The whole payload as one in-core array (the degraded /
        legacy path; O(n) memory by definition)."""
        if not self.sized:
            raise ReproError(
                f"{type(self).__name__} is unsized; drain it through the "
                f"streaming engine instead of materializing")
        return np.ascontiguousarray(self.read(0, int(self.n_elems)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(n={self.n_elems}, "
                f"dtype={self.dtype}, shape={self.shape})")


class ArraySource(DSSource):
    """An in-memory ``np.ndarray`` (the legacy fast path)."""

    kind = "array"
    in_core = True

    def __init__(self, values: np.ndarray) -> None:
        self._array = np.asarray(values)
        self._flat = self._array.reshape(-1)

    @property
    def n_elems(self) -> int:
        return int(self._flat.size)

    @property
    def dtype(self) -> np.dtype:
        return self._flat.dtype

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(int(s) for s in self._array.shape)

    @property
    def array(self) -> np.ndarray:
        """The wrapped array with its original shape."""
        return self._array

    def read(self, lo: int, hi: int) -> np.ndarray:
        return self._flat[lo:hi]

    def materialize(self) -> np.ndarray:
        return self._array


class MemmapSource(DSSource):
    """A file-backed ``np.memmap`` — the canonical out-of-core input.

    Workers in the process pool reopen the mapping from ``path`` (mode
    ``"r"``), so shards stream through the OS page cache without ever
    copying the file into anonymous memory.
    """

    kind = "memmap"
    in_core = False

    def __init__(self, mm: np.ndarray) -> None:
        if not isinstance(mm, np.memmap):
            raise ReproError(
                f"MemmapSource expects an np.memmap, got {type(mm).__name__}")
        self._mm = mm
        self._flat = mm.reshape(-1)

    @property
    def n_elems(self) -> int:
        return int(self._flat.size)

    @property
    def dtype(self) -> np.dtype:
        return self._flat.dtype

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(int(s) for s in self._mm.shape)

    @property
    def path(self) -> Optional[str]:
        """Backing filename, when the memmap carries one."""
        name = getattr(self._mm, "filename", None)
        return str(name) if name else None

    @property
    def offset_bytes(self) -> int:
        return int(getattr(self._mm, "offset", 0) or 0)

    def read(self, lo: int, hi: int) -> np.ndarray:
        # np.asarray drops the memmap wrapper so downstream kernels see
        # a plain (lazily paged) array view.
        return np.asarray(self._flat[lo:hi])


class SharedMemorySource(DSSource):
    """A ``multiprocessing.shared_memory`` segment plus its dtype/shape.

    The raw handle carries no type information, so wrapping is explicit:
    ``SharedMemorySource(shm, dtype=np.float32)`` (or pass ``dtype=`` /
    ``shape=`` through :func:`as_source`).  ``name`` lets pool workers
    re-attach zero-copy.
    """

    kind = "shm"
    in_core = False

    def __init__(self, shm, dtype, n_elems: Optional[int] = None,
                 shape: Optional[Tuple[int, ...]] = None) -> None:
        self._shm = shm
        dt = np.dtype(dtype)
        if n_elems is None:
            n_elems = shm.size // dt.itemsize
        self._n = int(n_elems)
        self._shape = (tuple(int(s) for s in shape)
                       if shape is not None else (self._n,))
        if int(np.prod(self._shape, dtype=np.int64)) != self._n:
            raise ReproError(
                f"shared-memory shape {self._shape} does not cover "
                f"n_elems={self._n}")
        self._flat = np.ndarray((self._n,), dtype=dt, buffer=shm.buf)

    @property
    def n_elems(self) -> int:
        return self._n

    @property
    def dtype(self) -> np.dtype:
        return self._flat.dtype

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def name(self) -> str:
        """The segment name workers attach to."""
        return self._shm.name

    def read(self, lo: int, hi: int) -> np.ndarray:
        return self._flat[lo:hi]


class ShardIterSource(DSSource):
    """A lazy iterator/generator of ``np.ndarray`` chunks.

    Unsized: ``n_elems`` is ``None`` until the iterator is exhausted,
    so iterator inputs always stream (sequentially, single-process) and
    cannot be batch-planned by size.  ``read`` supports the engine's
    strictly forward access pattern; random access raises.
    """

    kind = "iter"
    in_core = False

    def __init__(self, chunks: Iterator, dtype=None) -> None:
        self._chunks = iter(chunks)
        self._buffer = np.empty(0, dtype=dtype if dtype is not None
                                else np.float64)
        self._have_dtype = dtype is not None
        self._consumed = 0  # elements before the buffer's first element
        self._exhausted = False

    @property
    def n_elems(self) -> Optional[int]:
        if self._exhausted:
            return self._consumed + int(self._buffer.size)
        return None

    @property
    def dtype(self) -> np.dtype:
        if not self._have_dtype:
            self._fill(1)
        return self._buffer.dtype

    def _fill(self, need: int) -> None:
        """Pull chunks until the buffer holds ``need`` elements (or the
        iterator ends)."""
        while self._buffer.size < need and not self._exhausted:
            try:
                chunk = np.asarray(next(self._chunks)).reshape(-1)
            except StopIteration:
                self._exhausted = True
                return
            if not self._have_dtype:
                self._buffer = self._buffer.astype(chunk.dtype)
                self._have_dtype = True
            self._buffer = np.concatenate([self._buffer, chunk])

    def read(self, lo: int, hi: int) -> np.ndarray:
        if lo < self._consumed:
            raise ReproError(
                f"ShardIterSource is forward-only: read([{lo}, {hi})) "
                f"after {self._consumed} elements were already consumed")
        self._fill(hi - self._consumed)
        start = lo - self._consumed
        out = self._buffer[start:hi - self._consumed]
        # Drop everything before lo: the engine never looks back.
        self._buffer = self._buffer[start + out.size:]
        self._consumed = lo + int(out.size)
        return out

    def materialize(self) -> np.ndarray:
        parts = []
        while True:
            chunk = self.next_shard(1 << 20)
            if chunk is None:
                break
            parts.append(chunk)
        if not parts:
            return np.empty(0, dtype=self.dtype)
        return np.concatenate(parts)

    def next_shard(self, max_elems: int) -> Optional[np.ndarray]:
        """The next up-to-``max_elems`` elements, or ``None`` at the
        end — the engine's access primitive for unsized sources."""
        self._fill(max_elems)
        if self._buffer.size == 0:
            return None
        take = min(int(self._buffer.size), int(max_elems))
        out = self._buffer[:take]
        self._buffer = self._buffer[take:]
        self._consumed += take
        return out


def _user_stack_level() -> int:
    """The ``warnings.warn`` stacklevel of the first frame *outside* the
    ``repro`` package.

    The front doors reach :func:`as_source` through different call
    depths (``repro.ds`` calls it directly, ``Server.submit`` goes
    through ``_admit``), so no fixed stacklevel can name the user's
    call site for all of them.  Walking the live stack until the module
    name leaves ``repro`` pins the warning on the caller's own line —
    never on dispatch internals.
    """
    level = 1  # stacklevel=1 inside as_source == the warnings.warn call
    frame = sys._getframe(1)  # as_source's frame
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module != "repro" and not module.startswith("repro."):
            return level
        frame = frame.f_back
        level += 1
    return level


def _is_shared_memory(obj) -> bool:
    # Lazy check: multiprocessing.shared_memory may be unavailable on
    # exotic platforms, and we only need the type when one is passed.
    mod = type(obj).__module__
    return (type(obj).__name__ == "SharedMemory"
            and mod.endswith("shared_memory"))


def as_source(values, *, dtype=None, shape=None,
              site: Optional[str] = None) -> DSSource:
    """Normalize any accepted input into a :class:`DSSource`.

    ``site`` names the public call site (``"repro.ds"``,
    ``"Pipeline.enqueue"``, ``"Server.submit"``) for the deprecation
    warning emitted when a non-array input is implicitly coerced
    through ``np.asarray`` — the legacy raw-ndarray-only behaviour.
    """
    if isinstance(values, DSSource):
        return values
    if isinstance(values, np.memmap):
        return MemmapSource(values)
    if isinstance(values, np.ndarray):
        return ArraySource(values)
    if _is_shared_memory(values):
        if dtype is None:
            raise ReproError(
                "a raw SharedMemory handle carries no dtype; pass "
                "as_source(shm, dtype=...) or wrap it in "
                "SharedMemorySource(shm, dtype)")
        return SharedMemorySource(values, dtype, shape=shape)
    if hasattr(values, "__next__"):
        return ShardIterSource(values, dtype=dtype)
    where = site or "as_source"
    warnings.warn(
        f"{where}: implicit np.asarray coercion of "
        f"{type(values).__name__} inputs is deprecated; pass a NumPy "
        f"array, an np.memmap, or a repro.stream.DSSource",
        DeprecationWarning,
        stacklevel=_user_stack_level(),
    )
    return ArraySource(np.asarray(values))
