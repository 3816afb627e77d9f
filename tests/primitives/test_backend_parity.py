"""Backend parity: the vectorized fast path must be observationally
identical to the event-level scheduler.

The contract (docs/simulator.md): for every primitive, every dtype and
every launch geometry, the two backends produce the same output array,
the same element counts and the same deterministic counters — traffic
(bytes, transactions), event counts (loads, stores, atomics, barriers)
and occupancy.  Only schedule-dependent quantities (``n_spins``,
``steps``) may differ, because the fast path never contends.
"""

import numpy as np
import pytest

from repro import api
from repro.config import DSConfig
from repro.core.fused import FuseStage
from repro.core.predicates import is_even, less_than
from repro.primitives import (
    ds_compact_records,
    ds_copy_if,
    ds_erase_range,
    ds_insert_gap,
    ds_pad,
    ds_pad_to_alignment,
    ds_partition,
    ds_ragged_pad,
    ds_ragged_unpad,
    ds_remove_if,
    ds_stream_compact,
    ds_unique,
    ds_unique_by_key,
    ds_unpad,
)

# Every counter field that is a deterministic function of the launch —
# asserted equal between backends.  n_spins and steps are properties of
# the schedule, not the algorithm, and are deliberately absent.
PARITY_FIELDS = [
    "kernel_name",
    "grid_size",
    "wg_size",
    "bytes_loaded",
    "bytes_stored",
    "load_transactions",
    "store_transactions",
    "n_loads",
    "n_stores",
    "n_atomics",
    "n_barriers",
    "completed_wgs",
    "peak_resident",
]

GEOMETRIES = [(32, 1), (32, 3), (64, 2)]
DTYPES = [np.float32, np.int64, np.int16]


def run_both(fn, *args, **kwargs):
    tuning = {k: kwargs.pop(k) for k in ("wg_size", "coarsening")
              if k in kwargs}
    rs = fn(*args, config=DSConfig(backend="simulated", **tuning), **kwargs)
    rv = fn(*args, config=DSConfig(backend="vectorized", **tuning), **kwargs)
    return rs, rv


def assert_parity(rs, rv):
    assert np.array_equal(np.asarray(rs.output), np.asarray(rv.output))
    assert rv.num_launches == rs.num_launches
    for cs, cv in zip(rs.counters, rv.counters):
        for field in PARITY_FIELDS:
            assert getattr(cv, field) == getattr(cs, field), (
                f"{cs.kernel_name}: {field} differs "
                f"(simulated={getattr(cs, field)}, "
                f"vectorized={getattr(cv, field)})")
    assert rv.counters and rv.counters[-1].extras.get("vectorized") == 1.0


class TestRegularParity:
    @pytest.mark.parametrize("wg_size,coarsening", GEOMETRIES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_pad(self, rng, wg_size, coarsening, dtype):
        m = rng.integers(0, 100, (13, 37)).astype(dtype)
        rs, rv = run_both(ds_pad, m, 5, fill=0,
                          wg_size=wg_size, coarsening=coarsening)
        assert_parity(rs, rv)

    @pytest.mark.parametrize("wg_size,coarsening", GEOMETRIES)
    def test_unpad(self, rng, wg_size, coarsening):
        m = rng.integers(0, 100, (11, 40)).astype(np.float32)
        rs, rv = run_both(ds_unpad, m, 7,
                          wg_size=wg_size, coarsening=coarsening)
        assert_parity(rs, rv)

    def test_insert_gap_and_erase_range(self, rng):
        a = rng.integers(0, 9, 700).astype(np.int32)
        assert_parity(*run_both(ds_insert_gap, a, 123, 40, fill=-1,
                                wg_size=32, coarsening=2))
        assert_parity(*run_both(ds_erase_range, a, 123, 40,
                                wg_size=32, coarsening=2))

    def test_ragged_round_trip(self, rng):
        widths = rng.integers(0, 20, 40)
        values = rng.integers(0, 50, int(widths.sum())).astype(np.float32)
        rs, rv = run_both(ds_ragged_pad, values, widths, 24, fill=0,
                          wg_size=32, coarsening=2)
        assert_parity(rs, rv)
        assert_parity(*run_both(ds_ragged_unpad, rs.output, widths,
                                wg_size=32, coarsening=2))

    def test_pad_to_alignment(self, rng):
        m = rng.integers(0, 100, (9, 29)).astype(np.float32)
        assert_parity(*run_both(ds_pad_to_alignment, m, 128,
                                wg_size=32, coarsening=2))


class TestIrregularParity:
    @pytest.mark.parametrize("wg_size,coarsening", GEOMETRIES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_stream_compact(self, rng, wg_size, coarsening, dtype):
        a = rng.integers(0, 5, 1500).astype(dtype)
        rs, rv = run_both(ds_stream_compact, a, 0,
                          wg_size=wg_size, coarsening=coarsening)
        assert_parity(rs, rv)
        assert rv.extras["n_kept"] == rs.extras["n_kept"]

    @pytest.mark.parametrize("predicate", [is_even(), less_than(3)],
                             ids=lambda p: p.name)
    def test_remove_if_and_copy_if(self, rng, predicate):
        a = rng.integers(0, 9, 900).astype(np.int64)
        assert_parity(*run_both(ds_remove_if, a, predicate,
                                wg_size=32, coarsening=2))
        assert_parity(*run_both(ds_copy_if, a, predicate,
                                wg_size=32, coarsening=2))

    @pytest.mark.parametrize("wg_size,coarsening", GEOMETRIES)
    def test_unique(self, rng, wg_size, coarsening):
        a = np.repeat(rng.integers(0, 50, 300), rng.integers(1, 6, 300))
        rs, rv = run_both(ds_unique, a.astype(np.int32),
                          wg_size=wg_size, coarsening=coarsening)
        assert_parity(rs, rv)

    @pytest.mark.parametrize("in_place", [True, False])
    def test_partition(self, rng, in_place):
        a = rng.integers(0, 9, 1100).astype(np.float32)
        rs, rv = run_both(ds_partition, a, is_even(), in_place=in_place,
                          wg_size=32, coarsening=2)
        assert_parity(rs, rv)
        assert rv.extras["n_true"] == rs.extras["n_true"]

    def test_all_removed_and_all_kept(self):
        zeros = np.zeros(500, dtype=np.float32)
        rs, rv = run_both(ds_stream_compact, zeros, 0.0,
                          wg_size=32, coarsening=2)
        assert_parity(rs, rv)
        assert rv.output.size == 0
        ones = np.ones(500, dtype=np.float32)
        rs, rv = run_both(ds_stream_compact, ones, 0.0,
                          wg_size=32, coarsening=2)
        assert_parity(rs, rv)
        assert rv.output.size == 500

    def test_fused_chain(self, rng, maxwell):
        """A 3-stage ``pred -> stencil -> pred`` chain in one fused
        launch."""
        from repro.core.fused import FuseStage, run_fused_irregular
        from repro.simgpu.buffers import Buffer
        from repro.simgpu.stream import Stream

        a = np.sort(rng.integers(0, 30, 1200)).astype(np.int64)
        stages = [FuseStage("pred", less_than(25)), FuseStage("stencil"),
                  FuseStage("pred", is_even())]
        outputs, counters = [], []
        for backend in ("simulated", "vectorized"):
            buf = Buffer(a.copy(), "fuse_in")
            res = run_fused_irregular(
                buf, stages, Stream(maxwell, seed=1234), backend=backend,
                wg_size=32, coarsening=2)
            outputs.append(buf.data[:res.n_true].copy())
            counters.append(res.counters)
        assert np.array_equal(outputs[0], outputs[1])
        for field in PARITY_FIELDS:
            assert getattr(counters[0], field) == getattr(counters[1], field)
        assert counters[1].extras.get("vectorized") == 1.0


def _fused_side_structures(stages, a, backend, device):
    """One fused launch on ``backend``: the array, flag chain, carry and
    carry-valid chain it leaves behind (``run_fused_irregular`` keeps
    the side structures to itself, so this builds them the same way)."""
    from repro.core.coarsening import launch_geometry
    from repro.core.flags import make_flags, make_wg_counter
    from repro.core.fused import (
        _vectorized_fused_launch,
        chain_kernel_name,
        fused_irregular_kernel,
    )
    from repro.simgpu.buffers import Buffer
    from repro.simgpu.stream import Stream

    geometry = launch_geometry(a.size, device, a.itemsize, wg_size=32,
                               coarsening=2)
    grid = geometry.n_workgroups
    array = Buffer(a.copy(), "fuse_in")
    flags, counter = make_flags(grid), make_wg_counter()
    carry = Buffer(np.zeros(grid + 1, dtype=a.dtype), "fuse_carry")
    valid = Buffer(np.zeros(grid + 1, dtype=np.int64), "fuse_carry_valid")
    stream = Stream(device, seed=1234)
    name = chain_kernel_name(stages)
    if backend == "vectorized":
        _vectorized_fused_launch(array, stages, carry, valid, flags, counter,
                                 geometry, a.size, stream, name)
    else:
        stream.launch(fused_irregular_kernel, grid_size=grid,
                      wg_size=geometry.wg_size,
                      args=(array, flags, counter, carry, valid, stages,
                            geometry, a.size),
                      kernel_name=name)
    n_true = int(flags.data[grid]) - 1
    return array.data[:n_true], flags.data, carry.data, valid.data


def _side_structure_inputs():
    """int64 inputs with runs of repeats, against a 64-element tile
    (wg_size 32, coarsening 2).  ``less_than(5)`` is the chains'
    pre-stencil predicate: 9s never survive it."""
    rng = np.random.default_rng(7)
    runs = np.repeat(rng.integers(0, 5, 100), 3)
    empty_tile = runs[:192].copy()
    empty_tile[64:128] = 9         # tile 1 keeps no pre-stencil survivor
    empty_tile[128] = empty_tile[63]  # so tile 2 sees tile 0's carry
    return {
        "empty_tile": empty_tile,
        "partial_tail": runs[:2 * 64 + 17].copy(),
        "sub_tile": runs[:40].copy(),
        "all_removed": np.full(150, 9, dtype=np.int64),
    }


class TestFusedSideStructures:
    """The vectorized fused launch leaves the flag chain, the carry
    chain and the carry-valid chain exactly as the simulated kernel
    does — including a stencil-free chain, which only passes the zero
    carry along."""

    CHAINS = {
        "pred+stencil": lambda: [FuseStage("pred", less_than(5)),
                                 FuseStage("stencil")],
        "stencil+pred": lambda: [FuseStage("stencil"),
                                 FuseStage("pred", is_even())],
        "pred+stencil+pred": lambda: [FuseStage("pred", less_than(5)),
                                      FuseStage("stencil"),
                                      FuseStage("pred", is_even())],
        "pred+pred": lambda: [FuseStage("pred", less_than(5)),
                              FuseStage("pred", is_even())],
    }

    @pytest.mark.parametrize("case", list(_side_structure_inputs()))
    @pytest.mark.parametrize("chain", list(CHAINS))
    def test_side_structures_match(self, maxwell, chain, case):
        a = _side_structure_inputs()[case]
        stages = self.CHAINS[chain]()
        sim = _fused_side_structures(stages, a, "simulated", maxwell)
        vec = _fused_side_structures(stages, a, "vectorized", maxwell)
        for what, s, v in zip(("output", "flags", "carry", "carry_valid"),
                              sim, vec):
            assert np.array_equal(s, v), f"{what} differs"


class TestKeyedParity:
    @pytest.mark.parametrize("wg_size,coarsening", [(32, 2), (64, 1)])
    def test_unique_by_key(self, rng, wg_size, coarsening):
        keys = np.sort(rng.integers(0, 60, 800)).astype(np.int32)
        values = rng.random(800).astype(np.float32)
        rs, rv = run_both(ds_unique_by_key, keys, values,
                          wg_size=wg_size, coarsening=coarsening)
        assert_parity(rs, rv)
        assert np.array_equal(rs.extras["keys"], rv.extras["keys"])
        assert np.array_equal(rs.extras["values"], rv.extras["values"])

    def test_compact_records(self, rng):
        key = rng.integers(0, 9, 600).astype(np.int64)
        cols = {"a": rng.random(600).astype(np.float32),
                "b": rng.integers(0, 1000, 600).astype(np.int16)}
        rs, rv = run_both(ds_compact_records, key, cols, is_even(),
                          wg_size=32, coarsening=2)
        assert_parity(rs, rv)
        for name in cols:
            assert np.array_equal(rs.extras["columns"][name],
                                  rv.extras["columns"][name])


class TestDispatchRules:
    def test_env_override_selects_vectorized(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "vectorized")
        a = rng.integers(0, 5, 400).astype(np.float32)
        r = ds_stream_compact(a, 0, config=DSConfig(wg_size=32))
        assert r.counters[0].extras.get("vectorized") == 1.0

    def test_env_override_selects_simulated(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "simulated")
        a = rng.integers(0, 5, 400).astype(np.float32)
        r = ds_stream_compact(a, 0, config=DSConfig(wg_size=32))
        assert "vectorized" not in r.counters[0].extras

    def test_explicit_backend_beats_env(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "simulated")
        a = rng.integers(0, 5, 400).astype(np.float32)
        r = ds_stream_compact(a, 0,
                              config=DSConfig(wg_size=32, backend="vectorized"))
        assert r.counters[0].extras.get("vectorized") == 1.0

    def test_race_tracking_forces_simulated(self, rng):
        a = rng.integers(0, 9, 400).astype(np.int64)
        r = ds_remove_if(a, is_even(),
                         config=DSConfig(wg_size=32, backend="vectorized", race_tracking=True))
        assert "vectorized" not in r.counters[0].extras

    def test_unknown_backend_rejected(self, rng):
        from repro.errors import LaunchError
        a = rng.integers(0, 9, 64).astype(np.int64)
        with pytest.raises(LaunchError):
            ds_unique(a, config=DSConfig(backend="cuda"))


class TestApiParity:
    def test_api_backend_names(self, rng):
        v = rng.integers(0, 5, 300).astype(np.int64)
        out_sim = api.compact(v, 0, backend="simulated")
        out_vec = api.compact(v, 0, backend="vectorized")
        out_np = api.compact(v, 0, backend="numpy")
        assert np.array_equal(out_sim, out_vec)
        assert np.array_equal(out_sim, out_np)

    def test_api_empty_input(self):
        empty = np.array([], dtype=np.int32)
        assert api.unique(empty, backend="vectorized").size == 0
        assert api.compact(empty, 0, backend="vectorized").size == 0

    def test_api_rejects_unknown(self, rng):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            api.unique(rng.integers(0, 5, 8), backend="warp")

    def test_api_pad_vectorized_result(self, rng):
        m = rng.integers(0, 100, (5, 17)).astype(np.int32)
        res = api.pad(m, 3, fill=0, backend="vectorized", return_result=True)
        assert res.counters[0].extras.get("vectorized") == 1.0
        assert np.array_equal(res.output,
                              api.pad(m, 3, fill=0, backend="numpy"))


class TestStreamRecord:
    def test_vectorized_launch_advances_stream_seed(self, rng):
        """A vectorized launch must consume a launch slot so subsequent
        simulated launches see the same per-launch seed either way."""
        from repro.primitives.common import resolve_stream
        a = rng.integers(0, 5, 300).astype(np.float32)
        s1 = resolve_stream("maxwell")
        ds_stream_compact(a.copy(), 0, s1,
                          config=DSConfig(wg_size=32, backend="simulated"))
        r1 = ds_stream_compact(a.copy(), 0, s1,
                               config=DSConfig(wg_size=32, backend="simulated"))
        s2 = resolve_stream("maxwell")
        ds_stream_compact(a.copy(), 0, s2,
                          config=DSConfig(wg_size=32, backend="vectorized"))
        r2 = ds_stream_compact(a.copy(), 0, s2,
                               config=DSConfig(wg_size=32, backend="simulated"))
        assert len(s1.records) == len(s2.records) == 2
        assert r1.counters[0].n_spins == r2.counters[0].n_spins
