"""The multi-process worker pool: shared-memory shards, one per process.

Pool execution must be observably identical to sequential streaming —
same bytes, same extras schema, same per-shard kernel counters — with
``n_workers`` the only difference.  Where the pool cannot honor the
protocol (unique not last, unsized sources, no fork), it must *fall
back loudly* to the sequential path, never silently corrupt.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import DSConfig
from repro import obs
from repro.core.predicates import less_than
from repro.core.predicates import Predicate, equal_to
from repro.errors import ReproError
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


# -- the persistent pool ------------------------------------------------------

SRC = Path(__file__).resolve().parents[2] / "src"

# Runs in a fresh, thread-free interpreter, so its pool starts empty.
# Its first pooled call streams a segment and a memmap the caller mapped
# before any worker existed; both are gone from the caller afterwards.
LIFECYCLE = """
import gc, json, multiprocessing, os, sys, threading
import numpy as np
from multiprocessing import shared_memory
from repro import DSConfig
from repro.stream import MemmapSource, SharedMemorySource, stream_run

forks = []
os.register_at_fork(
    after_in_parent=lambda: forks.append(threading.active_count()))
values = (np.arange(1 << 14) % 5).astype(np.float32)
config = DSConfig(backend="vectorized", shard_elems=1 << 11)
chain = [("compact", 0.0), "unique"]
expected = stream_run(chain, values, config=config, workers=0).output
seg = shared_memory.SharedMemory(create=True, size=values.nbytes)
path = sys.argv[1]
values.tofile(path)
sources = [SharedMemorySource(seg, dtype=values.dtype),
           MemmapSource(np.memmap(path, dtype=values.dtype, mode="r"))]
sources[0].read(0, values.size)[:] = values
threads_before = threading.active_count()
correct = []
for i in range(5):
    res = stream_run(chain, sources[i] if i < 2 else values, config=config,
                     workers=2)
    correct.append(bool(np.array_equal(res.output, expected))
                   and res.extras["n_workers"] == 2)
pool_forks = len(forks)
del sources, res
gc.collect()
seg.close()
seg.unlink()
os.unlink(path)
workers = {p.pid: p.is_alive() for p in multiprocessing.active_children()}
maps = {pid: open(f"/proc/{pid}/maps").read() for pid in workers}
psm = {pid: text.count("psm_") for pid, text in maps.items()}
held = {pid: path in text for pid, text in maps.items()}


def child(conn):
    child_forks = []
    os.register_at_fork(after_in_parent=lambda: child_forks.append(1))
    res = stream_run(chain, values, config=config, workers=2)
    conn.send((bool(np.array_equal(res.output, expected)),
               len(child_forks)))


ctx = multiprocessing.get_context("fork")
parent_end, child_end = ctx.Pipe()
proc = ctx.Process(target=child, args=(child_end,))
proc.start()
child_correct, child_forks = parent_end.recv()
proc.join()
after_child = {p.pid: p.is_alive() for p in multiprocessing.active_children()}
# A plain fork whose child exits through the interpreter's exit handlers.
pid = os.fork()
if pid == 0:
    sys.exit(0)
os.waitpid(pid, 0)
try:
    again = stream_run(chain, values, config=config, workers=2).output
except Exception as exc:
    again = repr(exc)
print(json.dumps({
    "pool_forks": pool_forks, "fork_threads": forks[:2],
    "threads_before": threads_before,
    "threads_after": threading.active_count(), "correct": correct,
    "workers": workers, "psm_maps": psm, "memmap_held": held,
    "child_correct": child_correct, "child_forks": child_forks,
    "after_child": after_child,
    "again_correct": (again if isinstance(again, str)
                      else bool(np.array_equal(again, expected))),
    "again_workers": {p.pid: p.is_alive()
                      for p in multiprocessing.active_children()},
}))
"""


def _python(script: str, *args: str, **kw) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-c", script, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **kw)


@pytest.fixture(scope="module")
def lifecycle(tmp_path_factory):
    """One fresh interpreter's report: five ``workers=2`` calls, then a
    forked child's own pooled call, then a plain ``os.fork`` child's
    exit, then one more call of its own."""
    if not os.path.isdir("/proc/self"):
        pytest.skip("reads worker mappings from /proc")
    path = tmp_path_factory.mktemp("lifecycle") / "first_call.f32"
    proc = _python(LIFECYCLE, str(path))
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


class TestPersistentPool:
    def test_five_calls_fork_two_workers(self, lifecycle):
        assert lifecycle["correct"] == [True] * 5
        assert lifecycle["pool_forks"] == 2
        assert len(lifecycle["workers"]) == 2
        assert all(lifecycle["workers"].values())

    def test_the_caller_starts_no_thread(self, lifecycle):
        assert lifecycle["fork_threads"] == [1, 1]
        assert lifecycle["threads_after"] == lifecycle["threads_before"]

    def test_an_idle_pool_maps_no_segment(self, lifecycle):
        # Not even the segment and the file the caller had mapped when
        # the workers were forked, once the caller let them go.
        assert lifecycle["psm_maps"] == {pid: 0
                                         for pid in lifecycle["workers"]}
        assert lifecycle["memmap_held"] == {pid: False
                                            for pid in lifecycle["workers"]}

    def test_a_forked_child_forks_its_own_pool(self, lifecycle):
        assert lifecycle["child_correct"] is True
        assert lifecycle["child_forks"] == 2
        # The child never touched its parent's workers.
        assert lifecycle["after_child"] == lifecycle["workers"]

    def test_a_plain_fork_child_leaves_the_workers_alone(self, lifecycle):
        assert lifecycle["again_correct"] is True
        assert lifecycle["again_workers"] == lifecycle["workers"]

    def test_threads_are_not_started_in_process(self, mm):
        config = _cfg(307)
        stream_run([("compact", 0.0)], MemmapSource(mm), config=config,
                   workers=2)
        before = threading.active_count()
        for _ in range(3):
            stream_run([("compact", 0.0)], MemmapSource(mm), config=config,
                       workers=2)
        assert threading.active_count() == before

    def test_a_smaller_call_runs_on_a_subset(self, mm):
        config = _cfg(211)
        chain = [("compact", 0.0), "unique"]
        stream_run(chain, MemmapSource(mm), config=config, workers=3)
        tracer = obs.enable("spans")
        try:
            res = stream_run(chain, MemmapSource(mm), config=config,
                             workers=2)
        finally:
            obs.disable()
        ids = {sp.args["worker"] for track in tracer.tracks
               if track.startswith("shard:") for sp in tracer.roots(track)}
        assert res.extras["n_workers"] == 2
        assert len(ids) == 2

    def test_a_failed_shard_raises_and_the_next_call_is_clean(self, mm):
        chain = [("compact", 0.0), "unique"]
        too_wide = DSConfig(backend="vectorized", shard_elems=307,
                            wg_size=4096)  # above the device's limit
        with pytest.raises(ReproError, match="shard .* failed"):
            stream_run(chain, MemmapSource(mm), config=too_wide, workers=2)
        config = _cfg(307)
        seq = stream_run(chain, MemmapSource(mm), config=config, workers=0)
        par = stream_run(chain, MemmapSource(mm), config=config, workers=2)
        np.testing.assert_array_equal(par.output, seq.output)
        assert par.extras["n_workers"] == 2

    def test_concurrent_calls_serialize(self, mm):
        config = _cfg(257)
        chain = [("compact", 0.0), "unique"]
        seq = stream_run(chain, MemmapSource(mm), config=config, workers=0)
        # Grown first, so no thread below forks.
        stream_run(chain, MemmapSource(mm), config=config, workers=2)
        results = {}

        def call(i):
            for _ in range(3):
                results.setdefault(i, []).append(stream_run(
                    chain, MemmapSource(mm), config=config, workers=2))

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert sorted(results) == [0, 1]
        for runs in results.values():
            for res in runs:
                np.testing.assert_array_equal(res.output, seq.output)
                assert res.extras["n_workers"] == 2

    def test_an_unnamed_predicate_streams_in_process(self, mm):
        config = _cfg(307)
        chain = [("remove_if", Predicate(lambda v: v < 2, "probe"))]
        with pytest.warns(RuntimeWarning, match="probe"):
            par = stream_run(chain, MemmapSource(mm), config=config,
                             workers=2)
        seq = stream_run(chain, MemmapSource(mm), config=config, workers=0)
        np.testing.assert_array_equal(par.output, seq.output)
        assert par.extras["n_workers"] == 0

    def test_numpy_scalar_arguments_keep_their_type(self):
        # float32 data compared with np.float64(0.1) is promoted to
        # float64, so no element matches; compared with the Python
        # float 0.1 it is not, and a third of them would.
        values = np.full(3000, np.float32(0.1))
        values[::3] = 1.0
        config = _cfg(256)
        chain = [("compact", np.float64(0.1))]
        seq = stream_run(chain, values, config=config, workers=0)
        par = stream_run(chain, values, config=config, workers=2)
        assert seq.output.size == values.size
        np.testing.assert_array_equal(par.output, seq.output)
        assert par.extras["n_workers"] == 2

    @pytest.mark.parametrize("pred, value", [
        (equal_to(np.float64(0.1)), 0.1),
        (less_than(np.float64(0.7)), 0.7),
    ])
    def test_a_numpy_operand_the_name_loses_streams_in_process(
            self, pred, value):
        # The original compares float32 data in float64; revived from
        # its name, the operand is a Python float compared in float32.
        values = np.full(3000, np.float32(value))
        values[::3] = 1.0
        config = _cfg(256)
        chain = [("remove_if", pred)]
        seq = stream_run(chain, values, config=config, workers=0)
        with pytest.warns(RuntimeWarning, match="float32"):
            par = stream_run(chain, values, config=config, workers=2)
        np.testing.assert_array_equal(par.output, seq.output)
        assert par.extras["n_workers"] == 0

    def test_workers_run_the_callers_environment(self, mm, monkeypatch):
        config = DSConfig(wg_size=32, coarsening=2, shard_elems=401)
        chain = [("compact", 0.0)]

        def launches(res):
            return [(c.kernel_name, c.bytes_moved, c.transactions,
                     c.extras.get("vectorized")) for c in res.counters]

        for backend, full in (("vectorized", "0"), ("simulated", "0"),
                              ("vectorized", "1")):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            monkeypatch.setenv("REPRO_BENCH_FULL", full)
            par = stream_run(chain, MemmapSource(mm), config=config,
                             workers=2)
            seq = stream_run(chain, MemmapSource(mm), config=config,
                             workers=0)
            assert launches(par) == launches(seq)
            np.testing.assert_array_equal(par.output, seq.output)

    def test_workers_exit_when_their_parent_is_killed(self):
        if not os.path.isdir("/proc/self"):
            pytest.skip("reads worker states from /proc")
        proc = _python(
            "import multiprocessing, sys, time\n"
            "import numpy as np\n"
            "from repro import DSConfig\n"
            "from repro.stream import stream_run\n"
            "stream_run([('compact', 0.0)], np.ones(4096, np.float32),\n"
            "           config=DSConfig(backend='vectorized',\n"
            "                           shard_elems=1024), workers=2)\n"
            "print(*[p.pid for p in multiprocessing.active_children()])\n"
            "sys.stdout.flush()\n"
            "time.sleep(60)\n")
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.communicate()
        assert len(pids) == 2

        def alive(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 5.0
        while any(map(alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(alive, pids))
