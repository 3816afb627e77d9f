"""DSSource routing at the three front doors.

The contract: out-of-core sources stream transparently; in-core
ndarrays NEVER silently change execution path (their counters and
extras are covered by older assertions); legacy implicit coercions warn
once naming the exact call site.
"""

import warnings

import numpy as np
import pytest

from repro import DSConfig, Pipeline, ds
from repro.serve import ServeConfig, Server


@pytest.fixture
def data(rng):
    return rng.integers(0, 6, 512).astype(np.float64)


@pytest.fixture
def mm(data, tmp_path):
    path = tmp_path / "in.dat"
    data.tofile(path)
    return np.memmap(path, dtype=np.float64, mode="r")


def _cfg(**kw):
    kw.setdefault("shard_elems", 128)
    return DSConfig(**kw)


class TestDsFrontDoor:
    def test_memmap_streams(self, data, mm):
        res = ds("compact", mm, 0.0, config=_cfg())
        np.testing.assert_array_equal(res.output, data[data != 0.0])
        assert res.extras["streamed"] is True
        assert res.extras["shards"] == 4

    def test_in_core_never_auto_streams(self, data):
        res = ds("compact", data, 0.0, config=_cfg())
        np.testing.assert_array_equal(res.output, data[data != 0.0])
        assert "streamed" not in res.extras  # the classic eager path

    def test_coercion_warns_naming_site(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ds("compact", [1.0, 0.0, 2.0], 0.0)
        assert any("repro.ds" in str(w.message) for w in caught
                   if issubclass(w.category, DeprecationWarning))


class TestPipelineFrontDoor:
    def test_memmap_streams_then_chains_in_core(self, data, mm):
        pipe = Pipeline(config=_cfg())
        fut = pipe.enqueue("compact", mm, 0.0)
        fut2 = pipe.enqueue("unique", fut)
        ref = np.asarray(data[data != 0.0])
        ref = ref[np.concatenate([[True], ref[1:] != ref[:-1]])]
        np.testing.assert_array_equal(fut2.output, ref)
        assert fut.result().extras["streamed"] is True

    def test_streamed_call_excluded_from_fusion(self, data, mm):
        # In-core, compact -> unique fuses into one flag chain; with a
        # streamed head the chain must not fuse (the intermediate is
        # never resident as one array).
        pipe = Pipeline(config=_cfg())
        f1 = pipe.enqueue("compact", data, 0.0)
        pipe.enqueue("unique", f1).result()
        assert pipe.last_plan.n_fused_groups == 1

        pipe2 = Pipeline(config=_cfg())
        g1 = pipe2.enqueue("compact", mm, 0.0)
        g2 = pipe2.enqueue("unique", g1)
        ref = np.asarray(data[data != 0.0])
        ref = ref[np.concatenate([[True], ref[1:] != ref[:-1]])]
        np.testing.assert_array_equal(g2.output, ref)
        assert pipe2.last_plan.n_fused_groups == 0

    def test_coercion_warns_naming_site(self, data):
        pipe = Pipeline()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pipe.enqueue("compact", list(data), 0.0).result()
        assert any("Pipeline.enqueue" in str(w.message) for w in caught
                   if issubclass(w.category, DeprecationWarning))


class TestServeFrontDoor:
    def test_memmap_request_streams(self, data, mm):
        cfg = ServeConfig(max_wait_ms=1.0, num_workers=1)
        with Server(cfg, ds_config=_cfg()) as srv:
            res = srv.submit_chain([("compact", 0.0), "unique"], mm) \
                     .result(timeout=10.0)
        ref = np.asarray(data[data != 0.0])
        ref = ref[np.concatenate([[True], ref[1:] != ref[:-1]])]
        np.testing.assert_array_equal(res.output, ref)
        assert res.extras["streamed"] is True
        assert res.extras["shards"] == 4
        assert res.extras["request_id"] is not None

    def test_in_core_request_unchanged(self, data):
        cfg = ServeConfig(max_wait_ms=1.0, num_workers=1)
        with Server(cfg) as srv:
            res = srv.submit("compact", data, 0.0).result(timeout=10.0)
        np.testing.assert_array_equal(res.output, data[data != 0.0])
        assert "streamed" not in res.extras
        assert res.extras["request_id"] is not None

    def test_coercion_warns_naming_site(self, data):
        cfg = ServeConfig(max_wait_ms=1.0, num_workers=1)
        with Server(cfg) as srv:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                srv.submit("compact", list(data), 0.0).result(timeout=10.0)
        assert any("Server.submit" in str(w.message) for w in caught
                   if issubclass(w.category, DeprecationWarning))

    def test_serveconfig_shard_workers_applies(self, data, mm):
        # A streamed request takes its pool size from its DSConfig.
        cfg = ServeConfig(max_wait_ms=1.0, num_workers=1)
        with Server(cfg, ds_config=_cfg(shard_workers=2)) as srv:
            res = srv.submit("compact", mm, 0.0).result(timeout=30.0)
        np.testing.assert_array_equal(res.output, data[data != 0.0])
        assert res.extras["n_workers"] == 2

    def test_streamed_and_resident_share_a_batch_window(self, data, mm):
        # A streamed and an in-core request admitted together must both
        # resolve correctly — the batcher splits them internally.
        cfg = ServeConfig(max_wait_ms=20.0, max_batch_size=4,
                          num_workers=1)
        with Server(cfg, ds_config=_cfg()) as srv:
            f1 = srv.submit("compact", mm, 0.0)
            f2 = srv.submit("compact", data, 0.0)
            out1 = f1.result(timeout=10.0).output
            out2 = f2.result(timeout=10.0).output
        np.testing.assert_array_equal(out1, data[data != 0.0])
        np.testing.assert_array_equal(out2, data[data != 0.0])
