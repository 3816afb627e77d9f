"""The robustness ring: deadlines, cancellation, retries, the circuit
breaker and sequential-baseline degradation.

The invariant under test everywhere: a request either completes with
**correct** bytes or fails with a **typed** error — never silently
wrong, never lost.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.predicates import less_than
from repro.errors import (
    DeadlineExceeded,
    LaunchError,
    RequestCancelled,
)
from repro.reference import (
    compact_ref,
    copy_if_ref,
    erase_range_ref,
    insert_gap_ref,
    partition_ref,
    remove_if_ref,
    unique_by_key_ref,
    unique_ref,
)
from repro.serve import CircuitBreaker, ServeConfig, Server
from repro.serve.degrade import SEQUENTIAL_BASELINES


def _cfg(**kw):
    kw.setdefault("max_wait_ms", 1.0)
    kw.setdefault("num_workers", 1)
    return ServeConfig(**kw)


@pytest.fixture
def data(rng):
    return rng.integers(0, 4, 256).astype(np.float64)


class TestDeadlines:
    def test_expired_queued_request_never_executes(self, data):
        srv = Server(_cfg(), autostart=False)
        fut = srv.submit("compact", data, 0.0, deadline_ms=1.0)
        time.sleep(0.01)  # expire while the server is not even running
        srv.start()
        with pytest.raises(DeadlineExceeded):
            fut.result(timeout=10)
        srv.close()
        assert fut.state == "expired"
        assert srv.metrics.get("serve.expired").value == 1
        assert srv.metrics.get("serve.batch_size") is None  # no batch ran

    def test_default_deadline_from_config(self, data):
        srv = Server(_cfg(default_deadline_ms=1.0), autostart=False)
        fut = srv.submit("compact", data, 0.0)
        time.sleep(0.01)
        srv.start()
        assert isinstance(fut.exception(timeout=10), DeadlineExceeded)
        srv.close()

    def test_generous_deadline_completes(self, data):
        with Server(_cfg()) as srv:
            out = srv.submit("compact", data, 0.0,
                             deadline_ms=30_000).output
        assert np.array_equal(out, data[data != 0.0])


class TestCancellation:
    def test_cancel_queued_request(self, data):
        srv = Server(_cfg(), autostart=False)
        fut = srv.submit("compact", data, 0.0)
        assert fut.cancel() is True
        assert fut.cancel() is False  # idempotent: already cancelled
        with pytest.raises(RequestCancelled):
            fut.result(timeout=5)
        assert srv.metrics.get("serve.cancelled").value == 1
        srv.start()
        srv.close()  # drains cleanly; the cancelled request is gone

    def test_cancel_after_completion_fails(self, data):
        with Server(_cfg()) as srv:
            fut = srv.submit("compact", data, 0.0)
            fut.result(timeout=30)
            assert fut.cancel() is False

    def test_cancelled_request_releases_queue_slot(self, data):
        srv = Server(_cfg(max_queue_depth=1), autostart=False)
        srv.submit("compact", data, 0.0).cancel()
        srv.submit("compact", data, 0.0)  # slot is free again
        srv.start()
        srv.close()


class TestEmptyInput:
    def test_empty_chain_request_is_served_not_failed(self, data):
        """An empty input is a normal request: it must not fail the
        fast path, retry, or open its chain's breaker, so the next
        request of that chain still runs on the fast path."""
        chain = [("compact", 0.0), "unique"]
        with Server(_cfg()) as srv:
            empty = srv.submit_chain(
                chain, np.empty(0, dtype=np.float64)).result(timeout=30)
            after = srv.submit_chain(chain, data).result(timeout=30)
        assert empty.output.size == 0
        assert empty.normalized_extras["degraded"] is False
        assert srv.metrics.get("serve.fast_failures") is None
        assert srv.metrics.get("serve.retries") is None
        assert srv.breaker.state(("ds_stream_compact", "ds_unique")) \
            == "closed"
        assert after.normalized_extras["degraded"] is False
        assert after.counters
        assert np.array_equal(after.output,
                              unique_ref(compact_ref(data, 0.0)))


class TestRetries:
    def test_transient_fault_is_retried_to_success(self, data):
        calls = {"n": 0}

        def flaky(batch):
            calls["n"] += 1
            if calls["n"] == 1:
                raise LaunchError("injected transient fault")

        with Server(_cfg(max_retries=2, retry_backoff_ms=0.0),
                    fault_hook=flaky) as srv:
            out = srv.submit("compact", data, 0.0).output
        assert np.array_equal(out, data[data != 0.0])
        assert srv.metrics.get("serve.retries").value == 1
        assert srv.metrics.get("serve.degraded") is None

    def test_exhausted_retries_degrade(self, data):
        def always_fail(batch):
            raise LaunchError("injected permanent fault")

        with Server(_cfg(max_retries=1, retry_backoff_ms=0.0,
                         breaker_threshold=10),
                    fault_hook=always_fail) as srv:
            res = srv.submit("compact", data, 0.0).result()
        assert np.array_equal(res.output, data[data != 0.0])
        assert res.extras["degraded"] is True
        assert srv.metrics.get("serve.degraded").value == 1


class TestCircuitBreaker:
    def test_threshold_opens_and_cooldown_reprobes(self):
        t = {"now": 0.0}
        br = CircuitBreaker(threshold=2, cooldown_ms=50,
                            clock=lambda: t["now"])
        key = ("ds_stream_compact",)
        assert br.allows(key)
        br.record_failure(key)
        assert br.state(key) == "closed"
        assert br.record_failure(key) is True  # threshold crossed
        assert br.state(key) == "open"
        assert not br.allows(key)
        t["now"] = 0.06  # past cooldown: one probe slot
        assert br.allows(key)
        assert not br.allows(key)  # second caller is still shut out
        br.record_success(key)
        assert br.state(key) == "closed" and br.allows(key)

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        t = {"now": 0.0}
        br = CircuitBreaker(threshold=1, cooldown_ms=50,
                            clock=lambda: t["now"])
        key = ("ds_unique",)
        br.record_failure(key)
        t["now"] = 0.06
        assert br.allows(key)              # probe
        assert br.record_failure(key) is True
        assert not br.allows(key)          # cooldown restarted at 0.06
        t["now"] = 0.13
        assert br.allows(key)

    def test_open_breaker_serves_degraded_then_recovers(self, data):
        healthy = threading.Event()

        def fail_until_healthy(batch):
            if not healthy.is_set():
                raise LaunchError("injected outage")

        with Server(_cfg(max_retries=0, retry_backoff_ms=0.0,
                         breaker_threshold=1, breaker_cooldown_ms=1.0),
                    fault_hook=fail_until_healthy) as srv:
            expected = data[data != 0.0]
            # Outage: first request opens the breaker, both degrade.
            r1 = srv.submit("compact", data, 0.0).result()
            r2 = srv.submit("compact", data, 0.0).result()
            assert r1.extras["degraded"] and r2.extras["degraded"]
            assert np.array_equal(r1.output, expected)
            assert srv.breaker.state(("ds_stream_compact",)) != "closed"
            # Recovery: cooldown elapses, the probe succeeds, the fast
            # path returns (degraded flag gone, launch counters back).
            healthy.set()
            time.sleep(0.005)
            r3 = srv.submit("compact", data, 0.0).result()
            assert not r3.extras.get("degraded")
            assert r3.counters  # real launches again
            assert np.array_equal(r3.output, expected)
            assert srv.breaker.state(("ds_stream_compact",)) == "closed"

    def test_breaker_is_per_op_chain(self, data):
        with Server(_cfg(max_retries=0, breaker_threshold=1,
                         breaker_cooldown_ms=60_000)) as srv:
            srv.breaker.force_open(("ds_stream_compact",))
            deg = srv.submit("compact", data, 0.0).result()
            ok = srv.submit("unique", data).result()
        assert deg.extras["degraded"]
        assert not ok.extras.get("degraded")  # other ops unaffected


class TestDegradationCorrectness:
    """Every degradable op must return exactly what the fast path
    would, so flipping the breaker is invisible to clients (modulo
    latency and the ``degraded`` extra)."""

    def _degraded(self, srv, op, data, *args, **kwargs):
        srv.breaker.force_open((dict(
            compact="ds_stream_compact", unique="ds_unique",
            remove_if="ds_remove_if", copy_if="ds_copy_if",
            partition="ds_partition", insert_gap="ds_insert_gap",
            erase_range="ds_erase_range", pad="ds_pad",
            unpad="ds_unpad", unique_by_key="ds_unique_by_key")[op],))
        res = srv.submit(op, data, *args, **kwargs).result()
        assert res.extras["degraded"]
        return res.output

    @pytest.fixture
    def srv(self):
        with Server(_cfg(max_retries=0, breaker_threshold=1,
                         breaker_cooldown_ms=60_000)) as s:
            yield s

    def test_compact(self, srv, data):
        out = self._degraded(srv, "compact", data, 0.0)
        assert np.array_equal(out, data[data != 0.0])

    def test_unique(self, srv, data):
        runs = np.repeat(data, 2)
        assert np.array_equal(self._degraded(srv, "unique", runs),
                              unique_ref(runs))

    def test_remove_if_and_copy_if(self, srv, rng):
        x = rng.random(200)
        pred = less_than(0.5)
        assert np.array_equal(self._degraded(srv, "remove_if", x, pred),
                              remove_if_ref(x, pred))
        assert np.array_equal(self._degraded(srv, "copy_if", x, pred),
                              copy_if_ref(x, pred))

    def test_partition(self, srv, rng):
        x = rng.random(200)
        pred = less_than(0.5)
        expected, _ = partition_ref(x, pred)
        assert np.array_equal(self._degraded(srv, "partition", x, pred),
                              expected)

    def test_slide_ops(self, srv, rng):
        x = rng.random(64)
        assert np.array_equal(
            self._degraded(srv, "insert_gap", x, 10, 6, fill=-1.0),
            insert_gap_ref(x, 10, 6, fill=-1.0))
        assert np.array_equal(
            self._degraded(srv, "erase_range", x, 10, 6),
            erase_range_ref(x, 10, 6))

    def test_pad_roundtrip(self, srv, rng):
        x = rng.random((6, 10))
        padded = self._degraded(srv, "pad", x, 3, fill=0.0)
        assert padded.shape == (6, 13)
        assert np.array_equal(self._degraded(srv, "unpad", padded, 3), x)

    def test_unique_by_key(self, srv, rng):
        keys = np.repeat(rng.integers(0, 20, 40), 3).astype(np.float64)
        vals = rng.random(keys.size)
        out = self._degraded(srv, "unique_by_key", keys, vals)
        ek, ev = unique_by_key_ref(keys, vals)
        assert np.array_equal(out[0], ek) and np.array_equal(out[1], ev)

    def test_every_baseline_has_a_registered_op(self):
        from repro.primitives.opspec import get_op

        for name in SEQUENTIAL_BASELINES:
            assert get_op(name).name == name
