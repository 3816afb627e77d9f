"""Figure 13 — stream compaction vs Thrust and unstable atomic filters."""

import numpy as np

from _common import BENCH_ELEMENTS, ROUNDS, compare_backends, emit
from repro.analysis.figures import fig13_compaction
from repro.config import DSConfig
from repro.baselines import atomic_compact
from repro.primitives import ds_stream_compact
from repro.reference import compact_ref
from repro.workloads import compaction_array


def test_fig13_compaction(benchmark):
    emit(fig13_compaction(), "fig13")

    values = compaction_array(BENCH_ELEMENTS, 0.5, seed=8)

    def run():
        return ds_stream_compact(values, 0.0, config=DSConfig(seed=8))

    result = benchmark.pedantic(run, **ROUNDS)
    assert result.extras["n_kept"] == BENCH_ELEMENTS - BENCH_ELEMENTS // 2
    assert np.array_equal(result.output, compact_ref(values, 0.0))

    compare_backends(
        "fig13",
        lambda backend: ds_stream_compact(
            values, 0.0, config=DSConfig(seed=8, backend=backend)),
        min_speedup=5.0,
        meta={"elements": BENCH_ELEMENTS, "primitive": "ds_stream_compact"},
    )

    # The unstable methods keep the same multiset with fewer guarantees;
    # their contention ordering is what Figure 13 is about.
    small = compaction_array(64 * 1024, 0.5, seed=9)
    atomics = {m: atomic_compact(small, 0.0, m, wg_size=256,
                                 seed=9).extras["serialized_atomics"]
               for m in ("plain", "shared", "warp")}
    assert atomics["plain"] > atomics["warp"] > atomics["shared"]
