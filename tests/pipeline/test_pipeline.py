"""Pipeline engine: futures, batched execution, fusion, parity.

The engine contract (docs/pipeline.md): a pipelined op runs through the
same runner a direct ``ds_*`` call uses, on one shared stream — so with
``fuse=False`` the batch matches the sequential calls byte for byte,
counters included, on both backends.  With fusion on, a compact→unique
chain collapses to a single launch whose output still matches.
"""

import numpy as np
import pytest

from repro import DSConfig, Pipeline
from repro.core.predicates import is_even, less_than
from repro.pipeline import PlanCache
from repro.primitives import (
    ds_partition,
    ds_remove_if,
    ds_stream_compact,
    ds_unique,
)
from repro.primitives.common import resolve_stream
from repro.primitives.opspec import OpDescriptor
from repro.reference import compact_ref, unique_ref

BACKENDS = ["simulated", "vectorized"]


def _cfg(backend, **kw):
    return DSConfig(wg_size=32, coarsening=2, backend=backend, **kw)


class TestFutures:
    def test_enqueue_returns_pending_future(self, rng):
        p = Pipeline(config=_cfg("simulated"))
        f = p.compact(rng.integers(0, 5, 100).astype(np.float32), 0)
        assert not f.done
        assert p.num_pending == 1

    def test_output_access_runs_the_batch(self, rng):
        a = rng.integers(0, 5, 400).astype(np.float32)
        p = Pipeline(config=_cfg("simulated"))
        f = p.compact(a, 0)
        out = f.output  # implicit run()
        assert f.done
        assert p.num_pending == 0
        assert np.array_equal(out, compact_ref(a, 0))

    def test_chained_future_is_a_dependency(self, rng):
        a = rng.integers(0, 5, 500).astype(np.int64)
        p = Pipeline(config=_cfg("simulated"), fuse=False)
        f1 = p.compact(a, 0)
        f2 = p.unique(f1)
        p.run()
        assert np.array_equal(f2.output, unique_ref(compact_ref(a, 0)))

    def test_full_names_and_enqueue_spelling(self, rng):
        a = rng.integers(0, 5, 200).astype(np.float32)
        p = Pipeline(config=_cfg("vectorized"))
        f1 = p.ds_stream_compact(a.copy(), 0)
        f2 = p.enqueue("compact", a.copy(), 0)
        results = p.run()
        assert len(results) == 2
        assert np.array_equal(f1.output, f2.output)

    def test_unknown_op_name_raises(self):
        p = Pipeline()
        with pytest.raises(AttributeError):
            p.sort_by_key

    def test_run_empty_is_noop(self):
        assert Pipeline().run() == []


class TestForeignFutures:
    """A future from another pipeline is materialized at enqueue time —
    its batch-local index means nothing in the consuming batch, so it
    must never be recorded as a local dependency edge."""

    def test_colliding_foreign_index_is_not_aliased(self, rng):
        a = np.array([0, 1, 1, 2, 2, 3], dtype=np.int64)
        b = rng.integers(4, 9, 300).astype(np.int64)
        p1 = Pipeline(config=_cfg("simulated"))
        f1 = p1.compact(a.copy(), 0)  # index 0 of p1's batch
        p2 = Pipeline(config=_cfg("simulated"))
        g0 = p2.compact(b.copy(), 0)  # index 0 of p2's batch: collides
        g1 = p2.unique(f1)
        p2.run()
        assert np.array_equal(g1.output, unique_ref(compact_ref(a, 0)))
        assert np.array_equal(g0.output, compact_ref(b, 0))

    def test_out_of_range_foreign_index(self, rng):
        """A foreign index past the consuming batch's op count used to
        KeyError inside planning."""
        a = rng.integers(0, 5, 200).astype(np.int64)
        p1 = Pipeline(config=_cfg("simulated"))
        p1.compact(rng.integers(0, 5, 100).astype(np.int64), 0)
        f1 = p1.compact(a.copy(), 0)  # index 1 of p1's batch
        p2 = Pipeline(config=_cfg("simulated"))
        g = p2.unique(f1)  # p2's batch only has index 0
        assert np.array_equal(g.output, unique_ref(compact_ref(a, 0)))

    def test_enqueue_runs_the_foreign_batch(self, rng):
        a = rng.integers(0, 5, 150).astype(np.int64)
        p1 = Pipeline(config=_cfg("simulated"))
        f1 = p1.compact(a, 0)
        p2 = Pipeline(config=_cfg("simulated"))
        p2.unique(f1)
        assert f1.done
        assert p1.num_pending == 0


class TestKeywordSpelling:
    """Data params passed by keyword plan and fuse exactly like the
    positional spelling (review: ``p.remove_if(x, predicate=...)``
    crashed plan_key with IndexError)."""

    def test_data_params_by_keyword(self, rng):
        a = rng.integers(0, 9, 400).astype(np.int64)
        p = Pipeline(config=_cfg("simulated"))
        f1 = p.remove_if(a.copy(), predicate=is_even())
        f2 = p.compact(a.copy(), remove_value=0)
        p.run()
        assert np.array_equal(f1.output, a[a % 2 != 0])
        assert np.array_equal(f2.output, compact_ref(a, 0))

    def test_keyword_spelling_shares_the_plan_entry(self, rng):
        a = rng.integers(0, 9, 300).astype(np.int64)
        cache = PlanCache()
        p = Pipeline(config=_cfg("simulated"), plan_cache=cache)
        p.remove_if(a.copy(), is_even())
        p.run()
        p.remove_if(a.copy(), predicate=is_even())
        p.run()
        assert cache.hits == 1
        assert cache.misses == 1

    def test_keyword_args_still_fuse(self, rng):
        a = rng.integers(0, 9, 500).astype(np.int64)
        p = Pipeline(config=_cfg("simulated"), fuse=True)
        f1 = p.compact(a.copy(), remove_value=0)
        f2 = p.remove_if(f1, predicate=is_even())
        p.run()
        assert p.stream.num_launches == 1
        expected = compact_ref(a, 0)
        assert np.array_equal(f2.output, expected[expected % 2 != 0])

    def test_user_built_descriptor_by_keyword(self, rng):
        """A descriptor built outside the registry derives its data
        parameters from its runner, so keyword-passed data still reaches
        the positional slot its ``params_signature`` indexes."""
        def scaled_compact(values, factor, stream=None, *, config=None):
            return ds_stream_compact(np.asarray(values) * factor, 0, stream,
                                     config=config)

        desc = OpDescriptor(
            name="scaled_compact", short="scaled_compact", kind="meta",
            runner=scaled_compact,
            params_signature=lambda args, kwargs: ("factor", int(args[1])))
        assert desc.data_params == ("values", "factor")
        a = rng.integers(0, 9, 200).astype(np.int64)
        p = Pipeline(config=_cfg("simulated"))
        f = p.enqueue(desc, a.copy(), factor=3)
        assert np.array_equal(f.output, compact_ref(a * 3, 0))


class TestSequentialParity:
    """fuse=False: the batch is observationally the sequential program."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chain_counters_match_sequential(self, rng, backend):
        a = rng.integers(0, 5, 1200).astype(np.int64)
        cfg = _cfg(backend)

        p = Pipeline(config=cfg, fuse=False)
        f1 = p.compact(a.copy(), 0)
        f2 = p.unique(f1)
        p.run()

        s = resolve_stream(None, seed=cfg.seed)
        r1 = ds_stream_compact(a.copy(), 0, s, config=cfg)
        r2 = ds_unique(r1.output, s, config=cfg)

        assert np.array_equal(f1.output, r1.output)
        assert np.array_equal(f2.output, r2.output)
        for rf, rs in ((f1.result(), r1), (f2.result(), r2)):
            assert len(rf.counters) == len(rs.counters)
            for cf, cs in zip(rf.counters, rs.counters):
                assert cf == cs  # full equality, spins and steps included

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_independent_chains_interleave(self, rng, backend):
        """Two chains round-robin: a1, b1, a2, b2 — the launch order a
        multi-stream driver would overlap — and the results still match
        the sequential program run in that order."""
        a = rng.integers(0, 5, 900).astype(np.int64)
        b = rng.integers(0, 9, 700).astype(np.float32)
        cfg = _cfg(backend)

        p = Pipeline(config=cfg, fuse=False)
        fa1 = p.compact(a.copy(), 0)
        fa2 = p.unique(fa1)
        fb1 = p.partition(b.copy(), is_even())
        p.run()

        order = [i for step in p.last_plan.steps for i in step.op_indices]
        assert order == [0, 2, 1]

        s = resolve_stream(None, seed=cfg.seed)
        r1 = ds_stream_compact(a.copy(), 0, s, config=cfg)
        r3 = ds_partition(b.copy(), is_even(), s, config=cfg)
        r2 = ds_unique(r1.output, s, config=cfg)
        for rf, rs in ((fa1.result(), r1), (fa2.result(), r2),
                       (fb1.result(), r3)):
            assert np.array_equal(rf.output, rs.output)
            assert [c for c in rf.counters] == [c for c in rs.counters]

    def test_per_op_config_override(self, rng):
        a = rng.integers(0, 5, 300).astype(np.float32)
        p = Pipeline(config=_cfg("simulated"))
        f = p.compact(a, 0, config=DSConfig(wg_size=64, coarsening=1,
                                            backend="simulated"))
        assert f.result().counters[0].wg_size == 64


class TestFusedExecution:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compact_unique_fuses_to_one_launch(self, rng, backend):
        a = np.repeat(rng.integers(0, 6, 400), rng.integers(1, 4, 400))
        a = a.astype(np.int64)
        cfg = _cfg(backend)

        fused = Pipeline(config=cfg, fuse=True)
        g1 = fused.compact(a.copy(), 0)
        g2 = fused.unique(g1)
        fused.run()

        unfused = Pipeline(config=cfg, fuse=False)
        h1 = unfused.compact(a.copy(), 0)
        h2 = unfused.unique(h1)
        unfused.run()

        assert fused.stream.num_launches == 1
        assert unfused.stream.num_launches == 2
        assert np.array_equal(g2.output, h2.output)
        assert np.array_equal(g2.output, unique_ref(compact_ref(a, 0)))
        # The intermediate future still resolves, launch-free.
        assert np.array_equal(g1.output, h1.output)
        assert g1.result().counters == []
        assert g1.result().extras["fused"] is True
        assert g1.result().extras["fused_into"] == "ds_unique"
        assert g2.result().extras["fused_stages"] == \
            ["not_equal_to(0)", "unique"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_three_stage_chain(self, rng, backend):
        a = rng.integers(0, 9, 1000).astype(np.int64)
        p = Pipeline(config=_cfg(backend), fuse=True)
        f1 = p.compact(a.copy(), 0)
        f2 = p.unique(f1)
        f3 = p.remove_if(f2, is_even())
        p.run()
        assert p.stream.num_launches == 1
        expected = unique_ref(compact_ref(a, 0))
        expected = expected[expected % 2 != 0]
        assert np.array_equal(f3.output, expected)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fused_extras_match_sequential(self, rng, backend):
        """Each fused op's n_kept/n_removed is measured against its
        *own* input (the previous stage's survivors), exactly like the
        sequential calls the fusion replaces."""
        a = np.repeat(rng.integers(0, 6, 300), rng.integers(1, 4, 300))
        a = a.astype(np.int64)
        cfg = _cfg(backend)

        p = Pipeline(config=cfg, fuse=True)
        f1 = p.compact(a.copy(), 0)
        f2 = p.unique(f1)
        f3 = p.remove_if(f2, is_even())
        p.run()
        assert p.last_plan.n_fused_groups == 1

        s = resolve_stream(None, seed=cfg.seed)
        r1 = ds_stream_compact(a.copy(), 0, s, config=cfg)
        r2 = ds_unique(r1.output, s, config=cfg)
        r3 = ds_remove_if(r2.output, is_even(), s, config=cfg)
        for rf, rs in ((f1.result(), r1), (f2.result(), r2),
                       (f3.result(), r3)):
            assert rf.extras["n_kept"] == rs.extras["n_kept"]
            assert rf.extras["n_removed"] == rs.extras["n_removed"]

    def test_shared_intermediate_blocks_fusion(self, rng):
        """If something else reads the intermediate, it must really be
        materialized — the run cannot fuse."""
        a = rng.integers(0, 5, 600).astype(np.int64)
        p = Pipeline(config=_cfg("simulated"), fuse=True)
        f1 = p.compact(a.copy(), 0)
        f2 = p.unique(f1)
        f3 = p.partition(f1, less_than(3))  # second consumer of f1
        p.run()
        assert p.last_plan.n_fused_groups == 0
        assert np.array_equal(f2.output, unique_ref(compact_ref(a, 0)))
        assert f3.result().extras["n_true"] == int(
            (compact_ref(a, 0) < 3).sum())

    def test_race_tracking_blocks_fusion(self, rng):
        a = rng.integers(0, 5, 400).astype(np.int64)
        p = Pipeline(config=_cfg("simulated", race_tracking=True), fuse=True)
        f1 = p.compact(a.copy(), 0)
        p.unique(f1)
        p.run()
        assert p.last_plan.n_fused_groups == 0
        assert p.stream.num_launches == 2

    def test_empty_input_matches_sequential_error(self):
        """An empty input gives the reference's empty output on every
        path — fused, unfused and the sequential calls — with no launch
        (no path raises)."""
        empty = np.array([], dtype=np.int64)
        expected = unique_ref(compact_ref(empty, 0))
        for backend in BACKENDS:
            for fuse in (True, False):
                p = Pipeline(config=_cfg(backend), fuse=fuse)
                f2 = p.unique(p.compact(empty.copy(), 0))
                p.run()
                assert np.array_equal(f2.output, expected)
                assert f2.output.dtype == expected.dtype
                assert f2.result().counters == []
            cfg = _cfg(backend)
            seq = ds_unique(ds_stream_compact(empty.copy(), 0,
                                              config=cfg).output, config=cfg)
            assert np.array_equal(seq.output, expected)
            assert seq.counters == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_removed_chain_unfused(self, backend):
        """compact removes every element, so unique sees an empty
        input: the unfused batch returns the reference's empty output
        like the fused one, instead of raising."""
        zeros = np.zeros(300, dtype=np.int64)
        expected = unique_ref(compact_ref(zeros, 0))
        for fuse in (True, False):
            p = Pipeline(config=_cfg(backend), fuse=fuse)
            f2 = p.unique(p.compact(zeros.copy(), 0))
            p.run()
            assert np.array_equal(f2.output, expected)
            assert f2.result().extras["n_kept"] == 0


# Fusable chains as (op, extra args) steps; the first consumes the input,
# each later one the previous future.
SEQUENTIAL = {"compact": ds_stream_compact, "unique": ds_unique,
              "remove_if": ds_remove_if}
FUSED_CHAINS = {
    "compact+unique": [("compact", (0,)), ("unique", ())],
    "compact+remove_if+unique": [("compact", (0,)),
                                 ("remove_if", (is_even(),)),
                                 ("unique", ())],
    "unique+compact": [("unique", ()), ("compact", (0,))],
    "unique+remove_if+compact": [("unique", ()),
                                 ("remove_if", (less_than(2),)),
                                 ("compact", (5,))],
}


def _enqueue_chain(p, x, chain):
    futures, prev = [], x
    for op, args in chain:
        prev = getattr(p, op)(prev, *args)
        futures.append(prev)
    return futures


def _sequential_chain(x, chain, cfg):
    s = resolve_stream(None, seed=cfg.seed)
    results, prev = [], x
    for op, args in chain:
        r = SEQUENTIAL[op](prev.copy(), *args, s, config=cfg)
        results.append(r)
        prev = r.output
    return results


class TestFusedIntermediates:
    """The futures of the ops a fused launch replaces resolve from the
    launch's own survivors: equal to the sequential calls, each in its
    own memory, and detached from the caller's input."""

    @pytest.fixture
    def device_buffers(self, monkeypatch):
        """Every buffer the engine hands a fused launch."""
        from repro.pipeline import engine

        seen = []
        real = engine.run_fused_irregular

        def spy(array, *args, **kwargs):
            seen.append(array)
            return real(array, *args, **kwargs)

        monkeypatch.setattr(engine, "run_fused_irregular", spy)
        return seen

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("chain", list(FUSED_CHAINS))
    def test_intermediates_match_sequential(self, rng, backend, chain,
                                            device_buffers):
        x = np.repeat(rng.integers(0, 7, 120), rng.integers(1, 4, 120))
        x = x[:5 * 64 + 13].astype(np.int64)  # a partial last tile
        cfg = _cfg(backend)
        steps = FUSED_CHAINS[chain]

        p = Pipeline(config=cfg, fuse=True)
        futures = _enqueue_chain(p, x, steps)
        p.run()
        assert p.last_plan.n_fused_groups == 1
        assert p.stream.num_launches == 1

        results = [f.result() for f in futures]
        for rf, rs in zip(results, _sequential_chain(x, steps, cfg)):
            assert rf.output.dtype == rs.output.dtype
            assert np.array_equal(rf.output, rs.output)
            assert rf.extras["n_kept"] == rs.extras["n_kept"]
            assert rf.extras["n_removed"] == rs.extras["n_removed"]

        (device,) = device_buffers
        final = results[-1].output
        for r in results[:-1]:
            assert not np.shares_memory(r.output, final)
            assert not np.shares_memory(r.output, device.data)
            assert not np.shares_memory(r.output, x)

        saved = [r.output.copy() for r in results]
        x[:] = -1  # the caller reuses its input buffer
        for r, before in zip(results, saved):
            assert np.array_equal(r.output, before)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [1, 31, 32, 64, 65],
                             ids=["1", "W-1", "W", "tile", "tile+1"])
    @pytest.mark.parametrize("chain", ["compact+unique",
                                       "compact+remove_if+unique"])
    def test_fused_output_is_reference_bytes(self, rng, backend, n, chain):
        x = np.repeat(rng.integers(0, 4, n), 2)[:n].astype(np.float32)
        steps = FUSED_CHAINS[chain]
        p = Pipeline(config=_cfg(backend), fuse=True)
        out = _enqueue_chain(p, x, steps)[-1].output
        expected = compact_ref(x, 0)
        if len(steps) == 3:
            expected = expected[expected.astype(np.int64) % 2 != 0]
        expected = unique_ref(expected)
        assert p.stream.num_launches == 1
        assert out.dtype == expected.dtype
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


class TestBatchObservability:
    def test_batch_record_and_events(self, rng):
        a = rng.integers(0, 5, 500).astype(np.int64)
        p = Pipeline(config=_cfg("simulated"), fuse=False)
        f1 = p.compact(a, 0)
        p.unique(f1)
        p.run()
        assert len(p.stream.batches) == 1
        batch = p.stream.batches[0]
        assert batch.label == "pipeline.batch#1"
        assert batch.num_launches == 2
        assert [e.label for e in batch.events] == \
            ["ds_stream_compact", "ds_unique"]
        # unique waited on compact's event: edge from launch 1 to launch 1.
        assert (1, 1) in p.stream.dependencies

    def test_second_run_is_a_second_batch(self, rng):
        a = rng.integers(0, 5, 300).astype(np.float32)
        p = Pipeline(config=_cfg("simulated"))
        p.compact(a.copy(), 0)
        p.run()
        p.compact(a.copy(), 0)
        p.run()
        assert [b.label for b in p.stream.batches] == \
            ["pipeline.batch#1", "pipeline.batch#2"]


class TestPlanWithoutRun:
    def test_plan_populates_cache_and_keeps_ops_pending(self, rng):
        a = rng.integers(0, 5, 400).astype(np.int64)
        cache = PlanCache()
        p = Pipeline(config=_cfg("simulated"), plan_cache=cache)
        f1 = p.compact(a, 0)
        p.unique(f1)
        assert p.plan() is not None
        assert (cache.misses, cache.hits) == (1, 0)
        assert not f1.done  # planning executed nothing
        results = p.run()   # the run is then a pure cache hit
        assert len(results) == 2
        assert (cache.misses, cache.hits) == (1, 1)

    def test_plan_on_empty_pipeline_is_none(self):
        p = Pipeline(config=_cfg("simulated"), plan_cache=PlanCache())
        assert p.plan() is None
