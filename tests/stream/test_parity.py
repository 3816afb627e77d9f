"""Shard-boundary parity: streamed == monolithic, byte for byte.

The acceptance bar of the streaming engine: running any streamable
primitive shard-by-shard (with the inter-shard flag/ledger protocol
carrying offsets and unique's boundary values) produces **exactly** the
output of the monolithic run over the whole array, on both execution
backends — including shard sizes that land in the middle of a run of
kept/duplicate elements.
"""

import warnings

import numpy as np
import pytest

from repro import DSConfig, ds
from repro.core.predicates import is_even, less_than
from repro.stream import ArraySource, stream_run
from repro.stream.engine import normalize_chain

BACKENDS = ["simulated", "vectorized"]


def _cfg(backend, shard_elems):
    return DSConfig(wg_size=32, coarsening=2, backend=backend,
                    shard_elems=shard_elems)


def _monolithic(chain, values, config):
    out = np.asarray(values)
    result = None
    for desc, args, kwargs in normalize_chain(chain):
        result = desc.runner(out, *args, config=config, **kwargs)
        out = result.output
    return result


def _streamed(chain, values, config, **kw):
    # ArraySource is in-core; stream_run itself streams anything.
    return stream_run(chain, ArraySource(np.asarray(values)),
                      config=config, **kw)


def _workload(rng, n=1400):
    values = rng.integers(0, 9, n).astype(np.float32)
    # Duplicate runs so unique has shard-boundary work.
    starts = rng.integers(0, n - 6, n // 40)
    for s in starts:
        values[s:s + 6] = values[s]
    return values


@pytest.mark.parametrize("backend", BACKENDS)
class TestPrimitiveParity:
    @pytest.mark.parametrize("chain", [
        [("compact", 0.0)],
        [("remove_if", less_than(4.0))],
        [("copy_if", is_even())],
        ["unique"],
        [("partition", less_than(5.0))],
    ], ids=["compact", "remove_if", "copy_if", "unique", "partition"])
    def test_streamed_matches_monolithic(self, rng, backend, chain):
        values = _workload(rng)
        config = _cfg(backend, shard_elems=257)  # prime: boundaries mid-run
        ref = _monolithic(chain, values, config)
        res = _streamed(chain, values, config)
        np.testing.assert_array_equal(res.output, ref.output)
        assert res.output.dtype == ref.output.dtype
        assert res.extras["streamed"] and res.extras["shards"] > 1
        for key in ("n_kept", "n_true"):
            if key in ref.extras:
                assert res.extras[key] == ref.extras[key]
        if "n_removed" in ref.extras:
            assert res.extras["n_removed"] == ref.extras["n_removed"]

    def test_chain_compact_unique(self, rng, backend):
        values = _workload(rng)
        config = _cfg(backend, shard_elems=193)
        chain = [("compact", 0.0), "unique"]
        ref = _monolithic(chain, values, config)
        res = _streamed(chain, values, config)
        np.testing.assert_array_equal(res.output, ref.output)
        assert res.extras["n_kept"] == ref.extras["n_kept"]
        assert res.extras["n_removed"] == ref.extras["n_removed"]

    def test_pad_row_aligned(self, rng, backend):
        matrix = rng.integers(0, 99, (30, 8)).astype(np.float32)
        config = _cfg(backend, shard_elems=70)  # 8 rows? -> 64 elems/shard
        ref = _monolithic([("pad", 3)], matrix, config)
        res = _streamed([("pad", 3)], matrix, config)
        assert res.output.shape == ref.output.shape
        # Fill cells beyond each row's data are unspecified unless
        # fill= is passed; compare the data columns.
        np.testing.assert_array_equal(res.output[:, :8], ref.output[:, :8])
        assert res.extras["shards"] > 1

    def test_unpad_row_aligned(self, rng, backend):
        matrix = rng.integers(0, 99, (24, 10)).astype(np.float32)
        config = _cfg(backend, shard_elems=65)
        ref = _monolithic([("unpad", 4)], matrix, config)
        res = _streamed([("unpad", 4)], matrix, config)
        np.testing.assert_array_equal(res.output, ref.output)


class TestBoundaryCases:
    def test_unique_boundary_mid_run(self):
        # One long run of equal values crossing several shard
        # boundaries: every boundary must drop its duplicate head.
        values = np.full(300, 7.0, dtype=np.float32)
        config = _cfg("vectorized", shard_elems=61)
        res = _streamed(["unique"], values, config)
        np.testing.assert_array_equal(res.output, [7.0])
        assert res.extras["shards"] == 5
        assert res.extras["boundary_drops"] == 4
        assert res.extras["n_kept"] == 1
        assert res.extras["n_removed"] == 299

    def test_unique_boundary_crafted_run(self, rng):
        values = rng.integers(0, 20, 500).astype(np.float32)
        values[115:140] = 3.0  # run straddling the 128-elem boundary
        config = _cfg("vectorized", shard_elems=128)
        ref = _monolithic(["unique"], values, config)
        res = _streamed(["unique"], values, config)
        np.testing.assert_array_equal(res.output, ref.output)
        assert res.extras["boundary_drops"] >= 1

    def test_shard_entirely_removed(self):
        values = np.arange(1, 401, dtype=np.float32)
        values[100:200] = 0.0  # shard 1 (of 100-elem shards) all removed
        config = _cfg("vectorized", shard_elems=100)
        ref = _monolithic([("compact", 0.0)], values, config)
        res = _streamed([("compact", 0.0)], values, config)
        np.testing.assert_array_equal(res.output, ref.output)
        assert res.extras["n_kept"] == 300

    def test_empty_input(self):
        config = _cfg("vectorized", shard_elems=64)
        res = _streamed([("compact", 0.0)],
                        np.empty(0, dtype=np.float32), config)
        assert res.output.size == 0
        assert res.extras["n_kept"] == 0

    @pytest.mark.parametrize("workers", [0, 2])
    def test_empty_last_shard_runs_the_op(self, rng, workers):
        # compact empties the last shard, so unique gets an empty input
        # there: the op itself runs and reports its own extras, as it
        # does for a shard that keeps something.
        chain = [("compact", 0.0), "unique"]
        config = DSConfig(backend="vectorized", shard_elems=1024)
        values = rng.integers(0, 5, 4096).astype(np.float32)
        values[3072:] = 0.0
        res = _streamed(chain, values, config, workers=workers)
        np.testing.assert_array_equal(
            res.output, _monolithic(chain, values, config).output)
        assert res.extras["in_place"] is True

    def test_iterator_source_parity(self, rng):
        values = _workload(rng, 900)
        config = _cfg("vectorized", shard_elems=173)
        chunks = iter(np.array_split(values, 7))
        ref = _monolithic([("compact", 0.0), "unique"], values, config)
        res = stream_run([("compact", 0.0), "unique"], chunks,
                         config=config)
        np.testing.assert_array_equal(res.output, ref.output)
        assert res.extras["shards"] > 1


class TestCounterConsistency:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_streamed_counters_match_per_shard_runs(self, rng, backend):
        """The streamed run launches exactly the kernels the per-shard
        monolithic runs would: same names, same bytes moved, in shard
        order — streaming adds orchestration, never kernel work."""
        from repro.primitives.common import resolve_stream
        from repro.stream import plan_shards

        values = _workload(rng, 800)
        config = _cfg(backend, shard_elems=211)
        res = _streamed([("compact", 0.0)], values, config)
        expected = []
        stream = resolve_stream(None, seed=config.seed)
        for shard in plan_shards(values.size, 211):
            r = ds("compact", values[shard.lo:shard.hi], 0.0,
                   stream=stream, config=config)
            expected.extend(r.counters)
        assert len(res.counters) == len(expected)
        for got, want in zip(res.counters, expected):
            assert got.kernel_name == want.kernel_name
            assert got.bytes_moved == want.bytes_moved

    def test_fallback_warns_and_matches(self, rng):
        """A chain with a non-streamable op falls back to one
        monolithic run, with a warning naming the reason."""
        values = rng.integers(0, 9, 300).astype(np.float32)
        config = _cfg("vectorized", shard_elems=64)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = _streamed([("insert_gap", 10, 5)], values, config)
        assert any("shard-boundary protocol" in str(w.message)
                   for w in caught)
        ref = _monolithic([("insert_gap", 10, 5)], values, config)
        np.testing.assert_array_equal(res.output, ref.output)
        assert res.extras["streamed"] is False
        assert res.extras["shards"] == 1
