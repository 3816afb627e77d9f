"""The serve layer's happy path: correctness, batching, admission.

Every response must be byte-identical to the reference semantics no
matter how requests were grouped — batching is an optimization, never
an observable behavior (except in the metrics).
"""

import numpy as np
import pytest

from repro import DSConfig
from repro.core.predicates import less_than
from repro.errors import Overloaded, ServeError
from repro.reference import remove_if_ref, unique_ref
from repro.serve import ServeConfig, Server


def _cfg(**kw):
    kw.setdefault("max_wait_ms", 1.0)
    kw.setdefault("num_workers", 1)
    return ServeConfig(**kw)


@pytest.fixture
def data(rng):
    return rng.integers(0, 4, 256).astype(np.float64)


class TestCorrectness:
    def test_single_compact(self, data):
        with Server(_cfg()) as srv:
            out = srv.submit("compact", data, 0.0).output
        assert np.array_equal(out, data[data != 0.0])

    def test_single_unique(self, data):
        runs = np.repeat(data, 3)
        with Server(_cfg()) as srv:
            out = srv.submit("unique", runs).output
        assert np.array_equal(out, unique_ref(runs))

    def test_remove_if_with_predicate(self, rng):
        x = rng.random(300)
        pred = less_than(0.5)
        with Server(_cfg()) as srv:
            out = srv.submit("remove_if", x, pred).output
        assert np.array_equal(out, remove_if_ref(x, pred))

    def test_pad_kwargs_travel(self, rng):
        x = rng.random((8, 16))
        with Server(_cfg()) as srv:
            res = srv.submit("pad", x, 4, fill=-1.0).result()
        assert res.output.shape == (8, 20)
        assert np.all(res.output[:, 16:] == -1.0)

    def test_chain_fuses_compact_unique(self, data):
        with Server(_cfg()) as srv:
            res = srv.submit_chain([("compact", 0.0), "unique"], data) \
                     .result()
        assert np.array_equal(res.output, unique_ref(data[data != 0.0]))
        # The chain rode the pipeline's fused flag chain, not two
        # separate launches.
        assert res.extras.get("fused_stages")

    def test_full_names_and_shorts_both_resolve(self, data):
        with Server(_cfg()) as srv:
            a = srv.submit("ds_stream_compact", data, 0.0).output
            b = srv.submit("compact", data, 0.0).output
        assert np.array_equal(a, b)

    def test_unknown_op_rejected_at_submit(self, data):
        with Server(_cfg()) as srv:
            with pytest.raises(Exception, match="no_such_op"):
                srv.submit("no_such_op", data)


class TestBatching:
    def test_identical_requests_share_one_batch(self, data):
        srv = Server(_cfg(max_batch_size=4), autostart=False)
        futs = [srv.submit("compact", data, 0.0) for _ in range(4)]
        srv.start()
        for f in futs:
            assert np.array_equal(f.output, data[data != 0.0])
        srv.close()
        hist = srv.metrics.get("serve.batch_size")
        assert hist.count == 1 and hist.max == 4

    def test_incompatible_requests_split_batches(self, data):
        srv = Server(_cfg(max_batch_size=8), autostart=False)
        futs = [srv.submit("compact", data, 0.0),
                srv.submit("compact", data, 1.0),      # different param
                srv.submit("unique", data),            # different op
                srv.submit("compact", data[:100], 0.0)]  # different size
        srv.start()
        for f in futs:
            f.result(timeout=30)
        srv.close()
        hist = srv.metrics.get("serve.batch_size")
        assert hist.count == 4 and hist.max == 1

    def test_batch_respects_max_batch_size(self, data):
        srv = Server(_cfg(max_batch_size=3), autostart=False)
        futs = [srv.submit("compact", data, 0.0) for _ in range(7)]
        srv.start()
        for f in futs:
            f.result(timeout=30)
        srv.close()
        hist = srv.metrics.get("serve.batch_size")
        assert hist.max <= 3 and hist.count >= 3

    def test_per_request_config_separates_batches(self, data):
        srv = Server(_cfg(max_batch_size=8), autostart=False)
        futs = [srv.submit("compact", data, 0.0,
                           config=DSConfig(wg_size=32)),
                srv.submit("compact", data, 0.0,
                           config=DSConfig(wg_size=64))]
        srv.start()
        for f in futs:
            f.result(timeout=30)
        srv.close()
        assert srv.metrics.get("serve.batch_size").max == 1

    def test_prime_prewarns_the_plan_cache(self, data):
        srv = Server(_cfg(max_batch_size=4), autostart=False)
        srv.prime([("compact", 0.0)], data)
        hits0, misses0 = srv.plan_cache.stats()
        assert misses0 == 4  # one plan per batch size 1..4
        futs = [srv.submit("compact", data, 0.0) for _ in range(4)]
        srv.start()
        for f in futs:
            f.result(timeout=30)
        srv.close()
        hits1, misses1 = srv.plan_cache.stats()
        assert misses1 == misses0  # serving planned nothing new
        assert hits1 > hits0


class TestAdmission:
    def test_overloaded_sheds_with_context(self, data):
        srv = Server(_cfg(max_queue_depth=2), autostart=False)
        srv.submit("compact", data, 0.0)
        srv.submit("compact", data, 0.0)
        with pytest.raises(Overloaded) as exc:
            srv.submit("compact", data, 0.0)
        assert exc.value.queue_depth == 2 and exc.value.limit == 2
        assert srv.metrics.get("serve.shed").value == 1
        srv.start()
        srv.close()  # the two admitted requests still drain

    def test_closed_server_rejects_submissions(self, data):
        srv = Server(_cfg())
        srv.close()
        with pytest.raises(ServeError, match="closed"):
            srv.submit("compact", data, 0.0)

    def test_close_without_drain_cancels_queued(self, data):
        srv = Server(_cfg(), autostart=False)
        fut = srv.submit("compact", data, 0.0)
        srv.close(drain=False)
        assert fut.exception(timeout=5) is not None
        assert fut.state == "cancelled"


class TestIntrospection:
    def test_stats_snapshot(self, data):
        with Server(_cfg()) as srv:
            srv.submit("compact", data, 0.0).result(timeout=30)
            stats = srv.stats()
        assert stats["serve.admitted"] == 1
        assert stats["serve.completed"] == 1
        assert "plan_cache.hits" in stats and "breaker" in stats

    def test_worker_streams_keep_no_launch_records(self, data,
                                                   monkeypatch):
        # Memory stays bounded: a worker's stream is reset after every
        # batch instead of keeping each launch for the server's life.
        from repro.serve import server as server_mod

        streams = []

        class RecordingStream(server_mod.Stream):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                streams.append(self)

        monkeypatch.setattr(server_mod, "Stream", RecordingStream)
        with Server(_cfg(num_workers=2)) as srv:
            futs = [srv.submit_chain([("compact", 0.0), "unique"], data)
                    for _ in range(40)]
            launches = sum(f.result(timeout=30).num_launches for f in futs)
        assert launches >= 1 and len(streams) == 2
        for stream in streams:
            assert stream.records == [] and stream.batches == []

    def test_queue_depth_gauge_returns_to_zero(self, data):
        with Server(_cfg()) as srv:
            srv.submit("compact", data, 0.0).result(timeout=30)
        srv.close()
        assert srv.metrics.get("serve.queue_depth").value == 0

    def test_stats_consistent_with_requests_in_flight(self, data):
        # Requests staged on a not-yet-started server are all visible in
        # the snapshot as queued (nothing lost, nothing double-counted).
        srv = Server(_cfg(max_batch_size=4), autostart=False)
        futs = [srv.submit("compact", data, 0.0) for _ in range(6)]
        stats = srv.stats()
        # inflight counts admitted-but-not-completed, so before start it
        # equals the queue depth — every request visible, none twice.
        assert stats["serve.admitted"] == 6
        assert stats["inflight"] == 6
        assert stats["queue_depth"] == 6
        assert stats.get("serve.completed", 0) == 0
        assert stats["tuned"] == {}

        # While the server drains, every concurrent snapshot must keep
        # the books balanced.  completed is counted just before inflight
        # is decremented, so a snapshot can transiently see both — the
        # invariant is admitted <= completed + inflight, never a loss.
        srv.start()
        for _ in range(50):
            s = srv.stats()
            done = s.get("serve.completed", 0)
            assert done <= s["serve.admitted"]
            assert done + s["inflight"] >= s["serve.admitted"]
            assert s["queue_depth"] <= s["inflight"] + done
            if done == 6:
                break
        for fut in futs:
            assert np.array_equal(fut.result(timeout=30).output,
                                  data[data != 0.0])
        stats = srv.stats()
        assert stats["serve.completed"] == 6
        assert stats["queue_depth"] == 0 and stats["inflight"] == 0
        srv.close()
