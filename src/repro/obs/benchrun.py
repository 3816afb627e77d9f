"""Backend-comparison engine shared by ``benchmarks/`` and the
``make bench-check`` regression gate.

One function, :func:`compare_backends`, times a primitive under both
execution backends (median of N runs each), asserts output equality and
counter parity on :data:`PARITY_FIELDS`, and returns a JSON-ready
report that includes the full :class:`~repro.simgpu.counters
.LaunchCounters` record of every launch (via ``to_dict``).  The
``bench_*.py`` modules call it to *write* the committed
``benchmarks/results/BENCH_<id>.json`` baselines;
:mod:`repro.obs.regress` calls it to produce a *fresh* report and
compare the two.

The canonical workloads live here too (:data:`CASES`): one regular
(Figure 8 padding) and one irregular (Figure 13 compaction) case, each
reproducing exactly the seed and geometry its benchmark module times —
so the regression gate measures the same work the baselines recorded
and the baselines cannot drift from the benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.config import DSConfig

__all__ = ["PARITY_FIELDS", "BenchCase", "CASES", "compare_backends",
           "bench_case"]

#: Counter fields that must match exactly between the two execution
#: backends (the contract in docs/simulator.md); ``n_spins`` and
#: ``steps`` are schedule-dependent and excluded.
PARITY_FIELDS = (
    "kernel_name", "grid_size", "wg_size",
    "bytes_loaded", "bytes_stored",
    "load_transactions", "store_transactions",
    "n_loads", "n_stores", "n_atomics", "n_barriers",
    "completed_wgs", "peak_resident",
)


def compare_backends(
    bench_id: str,
    run: Callable,
    *,
    min_speedup: Optional[float] = None,
    meta: Optional[dict] = None,
    rounds: int = 3,
) -> dict:
    """Time ``run(backend=...)`` under both execution backends.

    ``run`` must accept ``backend`` (``"simulated"`` or
    ``"vectorized"``) and return a
    :class:`~repro.primitives.common.PrimitiveResult`.  Outputs and the
    deterministic counter fields are asserted identical; the returned
    report carries wall-clock (the **median** of ``rounds`` timed runs
    per backend, after one untimed warmup round — the lower median for
    even counts, so a lone slow outlier cannot swing the estimate the
    way a single sample or best-of can), the speedup, the parity
    verdict and the full counter records.  The raw samples are kept
    under ``wall_clock_samples`` and the estimator is named by
    ``timing``.  ``min_speedup``, when given, is asserted.
    """
    def median_of(backend):
        # One untimed warmup round first: a cold process pays one-time
        # costs (imports, allocator, caches) that the median must not
        # sample, or a fresh bench-check process would never match a
        # warm baseline writer.  Steady state is what the estimator
        # estimates.
        run(backend=backend)
        walls = []
        result = None
        for _ in range(max(1, rounds)):
            t0 = time.perf_counter()
            result = run(backend=backend)
            walls.append(time.perf_counter() - t0)
        walls.sort()
        # Lower median: exact middle for odd counts, and for rounds=2
        # it degenerates to the old best-of-2 rather than averaging in
        # the (possibly still settling) slower sample.
        return result, walls[(len(walls) - 1) // 2], walls

    sim, t_sim, samples_sim = median_of("simulated")
    vec, t_vec, samples_vec = median_of("vectorized")

    assert np.array_equal(np.asarray(sim.output), np.asarray(vec.output)), \
        f"{bench_id}: vectorized backend output differs"
    assert vec.num_launches == sim.num_launches
    for cs, cv in zip(sim.counters, vec.counters):
        for field in PARITY_FIELDS:
            assert getattr(cv, field) == getattr(cs, field), (
                f"{bench_id}: counter {field} differs between backends "
                f"(simulated={getattr(cs, field)}, "
                f"vectorized={getattr(cv, field)})")

    speedup = t_sim / t_vec if t_vec > 0 else float("inf")
    report = {
        "id": bench_id,
        "wall_clock_s": {"simulated": t_sim, "vectorized": t_vec},
        "wall_clock_samples": {"simulated": samples_sim,
                               "vectorized": samples_vec},
        "timing": "median",
        "speedup": speedup,
        "parity": {"fields": list(PARITY_FIELDS), "ok": True,
                   "launches": sim.num_launches},
        "counters": [c.to_dict() for c in sim.counters],
    }
    if meta:
        report.update(meta)
    if min_speedup is not None:
        assert speedup >= min_speedup, (
            f"{bench_id}: vectorized speedup {speedup:.1f}x below the "
            f"{min_speedup}x floor")
    return report


@dataclass(frozen=True)
class BenchCase:
    """One canonical benchmark workload (figure id + closure factory)."""

    bench_id: str
    primitive: str
    make_run: Callable[[], Callable]
    meta: dict


def _fig08_run(scale: float = 1.0):
    from repro.primitives import ds_pad
    from repro.workloads import padding_matrix

    rows, cols = max(2, int(1024 * scale)), 1023
    matrix = padding_matrix(rows, cols)

    def run(backend=None):
        return ds_pad(matrix, 1,
                      config=DSConfig(seed=3, backend=backend))

    return run, {"matrix": [rows, cols], "primitive": "ds_pad"}


def _fig13_run(scale: float = 1.0):
    from repro.primitives import ds_stream_compact
    from repro.workloads import compaction_array

    n = max(1024, int(1024 * 1024 * scale))
    values = compaction_array(n, 0.5, seed=8)

    def run(backend=None):
        return ds_stream_compact(
            values, 0.0, config=DSConfig(seed=8, backend=backend))

    return run, {"elements": n, "primitive": "ds_stream_compact"}


CASES = {
    "fig08": _fig08_run,
    "fig13": _fig13_run,
}


def bench_case(bench_id: str, *, scale: float = 1.0, rounds: int = 2,
               min_speedup: Optional[float] = None) -> dict:
    """Run one canonical case end to end and return its report."""
    if bench_id not in CASES:
        raise KeyError(
            f"unknown bench case {bench_id!r}; known: {sorted(CASES)}")
    run, meta = CASES[bench_id](scale)
    return compare_backends(bench_id, run, meta=meta, rounds=rounds,
                            min_speedup=min_speedup)
