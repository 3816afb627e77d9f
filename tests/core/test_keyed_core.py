"""The keyed irregular DS kernel (core layer)."""

import numpy as np
import pytest

from repro.core import less_than
from repro.core.irregular import run_irregular_ds
from repro.errors import LaunchError
from repro.simgpu import Buffer, Stream


class TestKeyedCore:
    def test_compacts_all_buffers_by_key(self, rng, maxwell):
        n = 1000
        keys = Buffer(rng.integers(0, 10, n).astype(np.float32), "k")
        p1 = Buffer(np.arange(n, dtype=np.float32), "p1")
        p2 = Buffer(np.arange(n, dtype=np.float64) * 2, "p2")
        orig_keys = keys.data.copy()
        r = run_irregular_ds(keys, less_than(5), Stream(maxwell, seed=1),
                             payloads=[p1, p2], wg_size=64, coarsening=2)
        mask = orig_keys < 5
        assert r.n_true == int(mask.sum())
        assert np.array_equal(keys.data[: r.n_true], orig_keys[mask])
        assert np.array_equal(p1.data[: r.n_true],
                              np.arange(n, dtype=np.float32)[mask])
        assert np.array_equal(p2.data[: r.n_true],
                              (np.arange(n, dtype=np.float64) * 2)[mask])

    def test_stencil_mode(self, rng, maxwell):
        keys = Buffer(np.repeat(rng.integers(0, 9, 200), 3).astype(np.float32),
                      "k")
        vals = Buffer(np.arange(keys.size, dtype=np.float32), "v")
        orig = keys.data.copy()
        r = run_irregular_ds(keys, None, Stream(maxwell, seed=2),
                             payloads=[vals], wg_size=32, coarsening=2,
                             stencil_unique=True)
        keep = np.concatenate([[True], orig[1:] != orig[:-1]])
        assert r.n_true == int(keep.sum())
        assert np.array_equal(keys.data[: r.n_true], orig[keep])

    def test_requires_predicate_or_stencil(self, maxwell):
        keys = Buffer(np.zeros(8, dtype=np.float32), "k")
        with pytest.raises(LaunchError, match="predicate"):
            run_irregular_ds(keys, None, Stream(maxwell), payloads=[])

    def test_rejects_short_payload(self, maxwell):
        keys = Buffer(np.zeros(16, dtype=np.float32), "k")
        short = Buffer(np.zeros(8, dtype=np.float32), "short")
        with pytest.raises(LaunchError, match="needs"):
            run_irregular_ds(keys, less_than(1), Stream(maxwell),
                             payloads=[short])

    def test_extras_for_the_model(self, rng, maxwell):
        keys = Buffer(rng.integers(0, 10, 512).astype(np.float32), "k")
        r = run_irregular_ds(keys, less_than(5), Stream(maxwell, seed=3),
                             payloads=[], wg_size=64, coarsening=2,
                             scan_variant="ballot")
        ex = r.counters.extras
        assert ex["irregular"] == 1.0
        assert ex["opt_collectives"] == 1.0
        assert ex["adjacent_syncs"] == r.geometry.n_workgroups

    @pytest.mark.parametrize("order", ["ascending", "descending", "random"])
    def test_correct_under_any_dispatch(self, rng, maxwell, order):
        n = 800
        orig = rng.integers(0, 10, n).astype(np.float32)
        keys = Buffer(orig, "k")
        vals = Buffer(np.arange(n, dtype=np.float32), "v")
        stream = Stream(maxwell, seed=5, order=order, resident_limit=4)
        r = run_irregular_ds(keys, less_than(5), stream, payloads=[vals],
                             wg_size=32, coarsening=2, race_tracking=True)
        mask = orig < 5
        assert np.array_equal(keys.data[: r.n_true], orig[mask])
        assert np.array_equal(vals.data[: r.n_true],
                              np.arange(n, dtype=np.float32)[mask])
