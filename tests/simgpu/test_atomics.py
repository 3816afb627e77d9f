"""Atomic read-modify-write semantics."""

import numpy as np
import pytest

from repro.simgpu import atomics as A
from repro.simgpu.buffers import Buffer


@pytest.fixture
def ibuf():
    return Buffer(np.zeros(8, dtype=np.int64), "flags")


class TestScalarAtomics:
    def test_atomic_add_returns_old(self, ibuf):
        assert A.atomic_add(ibuf, 0, 5) == 0
        assert A.atomic_add(ibuf, 0, 3) == 5
        assert ibuf.data[0] == 8

    def test_atomic_or_sets_bits(self, ibuf):
        assert A.atomic_or(ibuf, 1, 0b01) == 0
        assert A.atomic_or(ibuf, 1, 0b10) == 0b01
        assert ibuf.data[1] == 0b11

    def test_atomic_or_zero_is_a_read(self, ibuf):
        # The paper's spin loop: atom_or(&flags[i], 0) reads atomically.
        ibuf.data[2] = 7
        assert A.atomic_or(ibuf, 2, 0) == 7
        assert ibuf.data[2] == 7

    def test_atomic_read_alias(self, ibuf):
        ibuf.data[3] = 42
        assert A.atomic_read(ibuf, 3) == 42

    def test_atomic_max(self, ibuf):
        A.atomic_max(ibuf, 0, 5)
        assert A.atomic_max(ibuf, 0, 3) == 5
        assert ibuf.data[0] == 5

    def test_atomic_cas_success_and_failure(self, ibuf):
        assert A.atomic_cas(ibuf, 0, 0, 9) == 0
        assert ibuf.data[0] == 9
        assert A.atomic_cas(ibuf, 0, 0, 11) == 9  # compare fails
        assert ibuf.data[0] == 9

    def test_atomic_exchange(self, ibuf):
        ibuf.data[0] = 4
        assert A.atomic_exchange(ibuf, 0, 10) == 4
        assert ibuf.data[0] == 10

    def test_bulk_atomic_add_reserves_range(self, ibuf):
        assert A.bulk_atomic_add(ibuf, 0, 10) == 0
        assert A.bulk_atomic_add(ibuf, 0, 5) == 10
        assert ibuf.data[0] == 15


class TestSimdAtomicAdd:
    def test_disjoint_lanes(self, ibuf):
        old = A.simd_atomic_add(ibuf, np.asarray([0, 1, 2]), np.asarray([1, 2, 3]))
        assert np.array_equal(old, [0, 0, 0])
        assert np.array_equal(ibuf.data[:3], [1, 2, 3])

    def test_conflicting_lanes_serialize_in_lane_order(self, ibuf):
        # Four lanes hit the same cursor: lane i sees the sum of lanes < i.
        old = A.simd_atomic_add(
            ibuf, np.zeros(4, dtype=np.int64), np.asarray([1, 1, 1, 1])
        )
        assert np.array_equal(old, [0, 1, 2, 3])
        assert ibuf.data[0] == 4

    def test_mixed_conflicts(self, ibuf):
        idx = np.asarray([0, 1, 0, 1, 0])
        val = np.asarray([1, 10, 2, 20, 3])
        old = A.simd_atomic_add(ibuf, idx, val)
        assert np.array_equal(old, [0, 0, 1, 10, 3])
        assert ibuf.data[0] == 6 and ibuf.data[1] == 30

    def test_empty_vector(self, ibuf):
        old = A.simd_atomic_add(ibuf, np.asarray([], dtype=np.int64),
                                np.asarray([], dtype=np.int64))
        assert old.size == 0
