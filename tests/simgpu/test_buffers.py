"""Buffer storage, the transaction model of a work-group's accesses,
and read-before-overwrite tracking."""

import numpy as np
import pytest

from repro.config import DSConfig
from repro.errors import DataRaceError, LaunchError
from repro.primitives import ds_stream_compact
from repro.simgpu.buffers import Buffer
from repro.simgpu.device import MAXWELL
from repro.simgpu.events import GlobalLoad, GlobalStore
from repro.simgpu.workgroup import WorkGroup
from repro.workloads import compaction_array


class TestStorage:
    def test_copies_and_flattens_input(self):
        src = np.arange(12, dtype=np.float32).reshape(3, 4)
        buf = Buffer(src, "b")
        assert buf.size == 12 and buf.data.ndim == 1
        src[0, 0] = 99  # the buffer must own its storage
        assert buf.data[0] == 0

    def test_copy_false_shares_storage(self):
        src = np.arange(8, dtype=np.float32)
        buf = Buffer(src, "b", copy=False)
        buf.data[0] = 42
        assert src[0] == 42

    def test_copy_false_rejects_noncontiguous(self):
        src = np.arange(16, dtype=np.float32)[::2]
        with pytest.raises(LaunchError, match="contiguous"):
            Buffer(src, "b", copy=False)

    def test_copy_false_rejects_2d(self):
        with pytest.raises(LaunchError):
            Buffer(np.zeros((2, 2)), "b", copy=False)

    def test_properties(self):
        buf = Buffer(np.zeros(10, dtype=np.float64), "b")
        assert buf.itemsize == 8 and buf.nbytes == 80

    def test_to_numpy_is_a_copy(self):
        buf = Buffer(np.arange(4), "b")
        out = buf.to_numpy()
        out[0] = 99
        assert buf.data[0] == 0

    def test_rejects_bad_transaction_bytes(self):
        with pytest.raises(LaunchError):
            Buffer(np.zeros(4), "b", transaction_bytes=0)


def load_event(buf, idx):
    """The one ``GlobalLoad`` event ``WorkGroup.load`` yields for an
    access of ``idx``, and the values it returns."""
    access = WorkGroup(0, 64, MAXWELL).load(buf, np.asarray(idx))
    event = next(access)
    with pytest.raises(StopIteration) as done:
        next(access)
    return event, done.value.value


def store_event(buf, idx, values):
    """The one ``GlobalStore`` event ``WorkGroup.store`` yields."""
    access = WorkGroup(0, 64, MAXWELL).store(buf, np.asarray(idx), values)
    event = next(access)
    with pytest.raises(StopIteration):
        next(access)
    return event


class TestAccounting:
    def test_gather_counts_elements(self):
        buf = Buffer(np.arange(100, dtype=np.float32), "b")
        out = buf.gather(np.arange(10))
        assert np.array_equal(out, np.arange(10, dtype=np.float32))
        event, values = load_event(buf, np.arange(10))
        assert isinstance(event, GlobalLoad)
        assert event.bytes == 10 * buf.itemsize and event.buffer_name == "b"
        assert np.array_equal(values, out)

    def test_scatter_counts_elements(self):
        buf = Buffer(np.zeros(100, dtype=np.float32), "b")
        buf.scatter(np.arange(5), np.ones(5, dtype=np.float32))
        assert np.array_equal(buf.data[:5], np.ones(5))
        event = store_event(buf, np.arange(5, 10), np.ones(5, np.float32))
        assert isinstance(event, GlobalStore)
        assert event.bytes == 5 * buf.itemsize
        assert np.array_equal(buf.data[:10], np.ones(10))

    def test_contiguous_access_transactions(self):
        # 128-byte transactions over f32: 32 elements per transaction.
        buf = Buffer(np.zeros(256, dtype=np.float32), "b")
        assert load_event(buf, np.arange(64))[0].transactions == 2
        assert store_event(buf, np.arange(64), np.zeros(64)).transactions == 2

    def test_strided_access_inflates_transactions(self):
        buf = Buffer(np.zeros(2048, dtype=np.float32), "b")
        # one element per segment
        assert load_event(buf, np.arange(0, 2048, 32))[0].transactions == 64

    def test_transaction_counting_can_be_disabled(self):
        buf = Buffer(np.zeros(64, dtype=np.float32), "b",
                     count_transactions=False)
        event, _ = load_event(buf, np.arange(64))
        assert event.transactions == 0
        assert event.bytes == 64 * buf.itemsize

    def test_empty_access_is_free(self):
        buf = Buffer(np.zeros(8, dtype=np.float32), "b")
        event, _ = load_event(buf, np.asarray([], dtype=np.int64))
        assert event.bytes == 0 and event.transactions == 0

    def test_each_access_counts_its_transactions_once(self, monkeypatch):
        calls = []
        count = Buffer._transactions

        def counted(buf, idx):
            calls.append(idx.size)
            return count(buf, idx)

        monkeypatch.setattr(Buffer, "_transactions", counted)
        result = ds_stream_compact(
            compaction_array(4096, 0.5, seed=8), 0.0,
            config=DSConfig(wg_size=64, backend="simulated"))
        (c,) = result.counters
        assert c.n_loads and c.n_stores
        assert len(calls) == c.n_loads + c.n_stores


class TestRaceTracking:
    def test_store_to_unread_element_raises(self):
        buf = Buffer(np.arange(16, dtype=np.float32), "b")
        buf.arm_race_tracking()
        buf.expect_reads(reader_id=1, idx=np.arange(8))
        with pytest.raises(DataRaceError) as exc:
            buf.scatter(np.asarray([3]), np.asarray([9.0]), writer_id=2)
        assert exc.value.index == 3
        assert exc.value.writer == 2

    def test_store_after_read_is_fine(self):
        buf = Buffer(np.arange(16, dtype=np.float32), "b")
        buf.arm_race_tracking()
        buf.expect_reads(reader_id=1, idx=np.arange(8))
        buf.gather(np.arange(8), reader_id=1)
        buf.scatter(np.asarray([3]), np.asarray([9.0]), writer_id=2)  # no raise

    def test_own_writes_are_allowed(self):
        # A work-group may overwrite its own not-yet-loaded region (the
        # DS kernels never do, but the tracker is per-reader).
        buf = Buffer(np.arange(16, dtype=np.float32), "b")
        buf.arm_race_tracking()
        buf.expect_reads(reader_id=7, idx=np.arange(8))
        buf.scatter(np.asarray([2]), np.asarray([1.0]), writer_id=7)  # no raise

    def test_disarm_stops_tracking(self):
        buf = Buffer(np.arange(16, dtype=np.float32), "b")
        buf.arm_race_tracking()
        buf.expect_reads(reader_id=1, idx=np.arange(8))
        buf.disarm_race_tracking()
        buf.scatter(np.asarray([0]), np.asarray([5.0]), writer_id=2)  # no raise
        assert not buf.race_tracking_armed

    def test_expect_reads_noop_when_disarmed(self):
        buf = Buffer(np.arange(4, dtype=np.float32), "b")
        buf.expect_reads(reader_id=1, idx=np.arange(2))
        buf.scatter(np.asarray([0]), np.asarray([5.0]), writer_id=2)  # no raise


class TestTransactionCountingSwitch:
    def test_default_follows_bench_full_env(self, monkeypatch):
        from repro.simgpu.buffers import default_count_transactions
        monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
        assert default_count_transactions() is True
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        assert default_count_transactions() is False
        monkeypatch.setenv("REPRO_BENCH_FULL", "0")
        assert default_count_transactions() is True

    def test_disabled_counting_reports_zero_transactions(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        buf = Buffer(np.arange(64, dtype=np.float32), "b")
        assert buf._transactions(np.arange(32)) == 0

    def test_explicit_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        buf = Buffer(np.arange(64, dtype=np.float32), "b",
                     count_transactions=True)
        assert buf._transactions(np.arange(32)) > 0
