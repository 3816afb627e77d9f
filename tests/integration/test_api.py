"""The top-level convenience API: sim and numpy backends agree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import DSConfig
from repro.core import is_even, less_than
from repro.errors import ReproError
from repro.reference import (
    compact_ref,
    copy_if_ref,
    partition_ref,
    remove_if_ref,
    unique_ref,
)

# The five filter ops, each with its extra args and reference.
FILTERS = [
    ("compact", (0.0,), lambda a: compact_ref(a, 0.0)),
    ("unique", (), unique_ref),
    ("remove_if", (is_even(),), lambda a: remove_if_ref(a, is_even())),
    ("copy_if", (is_even(),), lambda a: copy_if_ref(a, is_even())),
    ("partition", (is_even(),), lambda a: partition_ref(a, is_even())[0]),
]


class TestBackends:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="backend"):
            repro.compact(np.zeros(4, dtype=np.float32), 0, backend="gpu")

    def test_return_result_flag(self, rng):
        a = rng.integers(0, 5, 200).astype(np.float32)
        result = repro.compact(a, 0, return_result=True)
        assert hasattr(result, "counters")
        assert result.num_launches == 1

    def test_numpy_backend_has_no_launches(self, rng):
        a = rng.integers(0, 5, 200).astype(np.float32)
        result = repro.compact(a, 0, return_result=True, backend="numpy")
        assert result.num_launches == 0
        assert result.extras["backend"] == "numpy"

    def test_partition_returns_split_point(self, rng):
        a = rng.integers(0, 10, 300).astype(np.float32)
        out, n_true = repro.partition(a, is_even(),
                                                 config=DSConfig(wg_size=32))
        assert n_true == int(is_even()(a).sum())
        assert out.size == a.size


class TestEmptyInput:
    """Every front door gives the reference's empty output for an
    empty input, with no launch, instead of a launch error."""

    @pytest.mark.parametrize("backend", ["simulated", "vectorized"])
    @pytest.mark.parametrize("op,args,ref", FILTERS,
                             ids=[f[0] for f in FILTERS])
    def test_ds_returns_reference_output(self, op, args, ref, backend):
        empty = np.array([], dtype=np.float32)
        res = repro.ds(op, empty, *args, config=DSConfig(backend=backend))
        expected = ref(empty)
        assert np.array_equal(res.output, expected)
        assert res.output.dtype == expected.dtype
        assert res.counters == []
        count = "n_true" if op == "partition" else "n_kept"
        assert res.extras[count] == 0


class TestBackendEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 1500), seed=st.integers(0, 2**16))
    def test_compact(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, n).astype(np.float32)
        sim = repro.compact(a, 0,
                            config=DSConfig(
                                wg_size=32, coarsening=2, seed=seed))
        ref = repro.compact(a, 0, backend="numpy")
        assert np.array_equal(sim, ref)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 1500), threshold=st.integers(0, 10),
           seed=st.integers(0, 2**16))
    def test_select_family(self, n, threshold, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 10, n).astype(np.float32)
        pred = less_than(np.float32(threshold))
        assert np.array_equal(
            repro.remove_if(a, pred, config=DSConfig(wg_size=32, seed=seed)),
            repro.remove_if(a, pred, backend="numpy"))
        assert np.array_equal(
            repro.copy_if(a, pred, config=DSConfig(wg_size=32, seed=seed)),
            repro.copy_if(a, pred, backend="numpy"))

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 1200), seed=st.integers(0, 2**16))
    def test_unique(self, n, seed):
        rng = np.random.default_rng(seed)
        a = np.repeat(rng.integers(0, 8, n), rng.integers(1, 4, n))[:n]
        a = a.astype(np.float32)
        assert np.array_equal(
            repro.unique(a, config=DSConfig(wg_size=32, seed=seed)),
            repro.unique(a, backend="numpy"))

    @settings(max_examples=12, deadline=None)
    @given(rows=st.integers(1, 16), cols=st.integers(1, 24),
           pad=st.integers(0, 5), seed=st.integers(0, 2**16))
    def test_pad_unpad(self, rows, cols, pad, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 99, (rows, cols)).astype(np.float32)
        assert np.array_equal(
            repro.pad(m, pad, fill=0, config=DSConfig(wg_size=32, seed=seed)),
            repro.pad(m, pad, fill=0, backend="numpy"))
        if pad < cols:
            assert np.array_equal(
                repro.unpad(m, pad, config=DSConfig(wg_size=32, seed=seed)),
                repro.unpad(m, pad, backend="numpy"))

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(1, 1200), seed=st.integers(0, 2**16))
    def test_partition(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 10, n).astype(np.float32)
        sim_out, sim_n = repro.partition(a, is_even(),
                                                    config=DSConfig(
                                                        wg_size=32, seed=seed))
        ref_out, ref_n = repro.partition(a, is_even(), backend="numpy")
        assert sim_n == ref_n
        assert np.array_equal(sim_out, ref_out)
