"""Shared plumbing for the benchmark harness.

Each ``bench_*.py`` module reproduces one figure or table of the paper:

1. it regenerates the figure's series/rows through the calibrated
   performance model at the paper's full workload sizes (instant), and
   **emits** them to stdout and to ``benchmarks/results/<id>.txt`` so
   the reproduced numbers are inspectable after the run;
2. it times the *actual simulated execution* of the figure's primary
   primitive with ``pytest-benchmark`` at a simulator-tractable scale
   (1M elements by default; set ``REPRO_BENCH_FULL=1`` for the paper's
   16M / 12000x11999 — roughly 15x slower wall-clock).

The timed number measures this reproduction's simulator, not the
paper's hardware; the emitted tables are the reproduction of the
paper's results.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.analysis import FigureData, render_figure
from repro.obs.benchrun import PARITY_FIELDS  # noqa: F401  (re-export)
from repro.obs.benchrun import compare_backends as _compare_backends

RESULTS_DIR = Path(__file__).parent / "results"

FULL_SCALE = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))

#: Element count for the timed simulator runs of irregular primitives.
BENCH_ELEMENTS = 16 * 1024 * 1024 if FULL_SCALE else 1024 * 1024

#: Matrix shape (rows, cols) for the timed padding/unpadding runs.
BENCH_MATRIX = (12000, 11999) if FULL_SCALE else (1024, 1023)

#: pytest-benchmark pedantic settings: the simulator is deterministic,
#: so a few rounds suffice.
ROUNDS = dict(rounds=3, iterations=1, warmup_rounds=0)


def compare_backends(bench_id: str, run, *, min_speedup: float = None,
                     meta: dict = None) -> dict:
    """Time ``run(backend)`` under both execution backends and persist
    the report.

    The measurement, parity assertions and report shape live in
    :func:`repro.obs.benchrun.compare_backends` (shared with the
    ``make bench-check`` regression gate); this wrapper writes the
    report to ``benchmarks/results/BENCH_<bench_id>.json`` — the
    committed baseline the gate compares fresh runs against, including
    the full per-launch counter records — and prints the one-line
    summary.
    """
    report = _compare_backends(bench_id, run, min_speedup=min_speedup,
                               meta=meta)
    t_sim = report["wall_clock_s"]["simulated"]
    t_vec = report["wall_clock_s"]["vectorized"]
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{bench_id}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n[{bench_id}] simulated {t_sim:.2f}s vs vectorized "
          f"{t_vec:.4f}s -> {report['speedup']:.0f}x ({path})")
    return report


def emit(fig_or_text, name: str) -> None:
    """Print a reproduced figure/table and persist it under results/."""
    text = render_figure(fig_or_text) if isinstance(fig_or_text, FigureData) \
        else str(fig_or_text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
