"""The multi-process worker pool: shared-memory shards, one per process.

Pool execution must be observably identical to sequential streaming —
same bytes, same extras schema, same per-shard kernel counters — with
``n_workers`` the only difference.  Where the pool cannot honor the
protocol (unique not last, unsized sources, no fork), it must *fall
back loudly* to the sequential path, never silently corrupt.
"""

import multiprocessing
import threading
import time
import warnings

import numpy as np
import pytest

from repro import DSConfig
from repro.core.predicates import less_than
from repro.stream import MemmapSource, stream_run
from repro.stream.pool import fork_unavailable_reason

pytestmark = pytest.mark.skipif(
    fork_unavailable_reason() is not None,
    reason=f"fork start method unavailable: {fork_unavailable_reason()}")


def _cfg(shard_elems, **kw):
    return DSConfig(wg_size=32, coarsening=2, backend="vectorized",
                    shard_elems=shard_elems, **kw)


@pytest.fixture
def mm(rng, tmp_path):
    values = rng.integers(0, 12, 2000).astype(np.float32)
    starts = rng.integers(0, 1990, 40)
    for s in starts:
        values[s:s + 8] = values[s]
    path = tmp_path / "pool_in.dat"
    values.tofile(path)
    return np.memmap(path, dtype=np.float32, mode="r")


class TestPoolParity:
    def test_memmap_chain_matches_sequential(self, mm):
        config = _cfg(307)
        chain = [("compact", 0.0), "unique"]
        seq = stream_run(chain, MemmapSource(mm), config=config, workers=0)
        par = stream_run(chain, MemmapSource(mm), config=config, workers=3)
        np.testing.assert_array_equal(par.output, seq.output)
        assert par.extras["n_workers"] == 3
        assert seq.extras["n_workers"] == 0
        assert par.extras["shards"] == seq.extras["shards"] > 1
        assert par.extras["n_kept"] == seq.extras["n_kept"]
        assert par.extras["n_removed"] == seq.extras["n_removed"]
        assert par.extras["boundary_drops"] == seq.extras["boundary_drops"]

    def test_counters_identical_to_sequential(self, mm):
        config = _cfg(401)
        seq = stream_run([("compact", 0.0)], MemmapSource(mm),
                         config=config, workers=0)
        par = stream_run([("compact", 0.0)], MemmapSource(mm),
                         config=config, workers=2)
        assert len(par.counters) == len(seq.counters)
        for a, b in zip(par.counters, seq.counters):
            assert a.kernel_name == b.kernel_name
            assert a.bytes_moved == b.bytes_moved

    def test_in_core_input_through_scratch_shm(self, rng):
        values = rng.integers(0, 30, 1500).astype(np.float32)
        config = _cfg(256)
        seq = stream_run([("remove_if", less_than(10.0))], values,
                         config=config, workers=0)
        par = stream_run([("remove_if", less_than(10.0))], values,
                         config=config, workers=2)
        np.testing.assert_array_equal(par.output, seq.output)

    def test_partition_chain(self, mm):
        config = _cfg(333)
        chain = [("compact", 0.0), ("partition", less_than(6.0))]
        seq = stream_run(chain, MemmapSource(mm), config=config, workers=0)
        par = stream_run(chain, MemmapSource(mm), config=config, workers=2)
        np.testing.assert_array_equal(par.output, seq.output)
        assert par.extras["n_true"] == seq.extras["n_true"]

    def test_config_shard_workers_default(self, mm):
        config = _cfg(307, shard_workers=2)
        res = stream_run([("compact", 0.0)], MemmapSource(mm),
                         config=config)  # workers from config
        assert res.extras["n_workers"] == 2


class TestPoolFallbacks:
    def test_unique_mid_chain_falls_back_sequential(self, mm):
        config = _cfg(307)
        chain = ["unique", ("compact", 0.0)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            par = stream_run(chain, MemmapSource(mm), config=config,
                             workers=2)
        assert any("unique" in str(w.message) for w in caught
                   if issubclass(w.category, RuntimeWarning))
        seq = stream_run(chain, MemmapSource(mm), config=config, workers=0)
        np.testing.assert_array_equal(par.output, seq.output)
        assert par.extras["n_workers"] == 0  # it ran sequentially

    def test_unsized_source_falls_back_sequential(self, rng):
        values = rng.integers(0, 9, 600).astype(np.float32)
        config = _cfg(128)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = stream_run([("compact", 0.0)],
                             iter(np.array_split(values, 5)),
                             config=config, workers=2)
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        ref = stream_run([("compact", 0.0)], values, config=config)
        np.testing.assert_array_equal(res.output, ref.output)
        assert res.extras["n_workers"] == 0


def _attach_and_close(name):
    from multiprocessing import shared_memory

    shared_memory.SharedMemory(name=name).close()


class TestForkSafety:
    def test_fork_while_another_thread_holds_the_tracker_lock(self):
        """A worker forked while another thread holds the resource
        tracker's lock (the fleet collector attaching and unlinking
        segments) must not inherit it held: its first attach would
        block forever."""
        from multiprocessing import resource_tracker, shared_memory

        seg = shared_memory.SharedMemory(create=True, size=64)
        lock = resource_tracker._resource_tracker._lock
        held = threading.Event()

        def hold():
            with lock:
                held.set()
                time.sleep(0.2)

        holder = threading.Thread(target=hold)
        holder.start()
        child = None
        try:
            assert held.wait(10.0)
            child = multiprocessing.get_context("fork").Process(
                target=_attach_and_close, args=(seg.name,))
            with warnings.catch_warnings():
                # Python 3.12+ warns on a fork with threads alive, which
                # is the situation under test.
                warnings.simplefilter("ignore", DeprecationWarning)
                child.start()
            child.join(10.0)
            hung = child.is_alive()
            assert not hung, "forked child hung attaching shared memory"
            assert child.exitcode == 0
        finally:
            if child is not None and child.is_alive():
                child.kill()
                child.join()
            holder.join()
            seg.close()
            seg.unlink()
