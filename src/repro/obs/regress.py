"""Benchmark regression gate (``make bench-check``).

Re-runs the canonical benchmark cases of :mod:`repro.obs.benchrun` and
compares the fresh numbers against the committed
``benchmarks/results/BENCH_<id>.json`` baselines:

* **wall-clock** — each backend's fresh median-of-N time must not
  exceed the baseline by more than the tolerance (default 20 %,
  override with
  ``REPRO_BENCH_TOLERANCE`` or ``--tolerance``).  Getting *faster*
  always passes;
* **counter parity** — every :data:`~repro.obs.benchrun.PARITY_FIELDS`
  field of every recorded launch must equal the baseline exactly (the
  counters are deterministic, so any drift is a real behaviour change,
  not noise).

Usage::

    python -m repro.obs.regress benchmarks/results
    python -m repro.obs.regress benchmarks/results --tolerance 0.5
    python -m repro.obs.regress benchmarks/results --inject-slowdown 0.25

``--inject-slowdown X`` multiplies the fresh wall-clock by ``1 + X``
before comparing — the self-test hook that demonstrates the gate
actually fails on a slowdown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.obs.benchrun import CASES, PARITY_FIELDS, bench_case
from repro.simgpu.counters import LaunchCounters
from repro.simgpu.vectorized import BACKENDS

__all__ = ["TOLERANCE_ENV_VAR", "DEFAULT_TOLERANCE", "check_case",
           "check_all", "main"]

TOLERANCE_ENV_VAR = "REPRO_BENCH_TOLERANCE"
DEFAULT_TOLERANCE = 0.20


def resolve_tolerance(tolerance: Optional[float] = None) -> float:
    if tolerance is not None:
        return float(tolerance)
    raw = os.environ.get(TOLERANCE_ENV_VAR, "").strip()
    return float(raw) if raw else DEFAULT_TOLERANCE


def check_case(
    bench_id: str,
    baseline: dict,
    *,
    tolerance: Optional[float] = None,
    rounds: int = 3,
    inject_slowdown: float = 0.0,
    fresh: Optional[dict] = None,
) -> List[str]:
    """Compare one fresh run against one baseline report.

    Returns the list of failure messages (empty = pass).  ``fresh``
    injects a pre-computed report (tests); by default the case is
    re-run through :func:`~repro.obs.benchrun.bench_case`.
    """
    tol = resolve_tolerance(tolerance)
    if fresh is None:
        fresh = bench_case(bench_id, rounds=rounds)
    failures: List[str] = []

    # Only the live tiers are gated: keys a legacy baseline carries for
    # a removed tier are ignored.
    for backend in BACKENDS:
        base_t = baseline.get("wall_clock_s", {}).get(backend)
        fresh_t = fresh["wall_clock_s"][backend] * (1.0 + inject_slowdown)
        if base_t is None:
            failures.append(
                f"{bench_id}/{backend}: baseline has no wall_clock_s entry")
            continue
        limit = base_t * (1.0 + tol)
        if fresh_t > limit:
            failures.append(
                f"{bench_id}/{backend}: wall-clock regressed "
                f"{fresh_t:.4f}s > {base_t:.4f}s +{tol:.0%} "
                f"({fresh_t / base_t - 1.0:+.0%})")

    base_counters = baseline.get("counters")
    if not base_counters:
        failures.append(
            f"{bench_id}: baseline records no counters — regenerate it "
            "with `make bench-smoke`")
    elif len(base_counters) != len(fresh["counters"]):
        failures.append(
            f"{bench_id}: launch count changed "
            f"({len(base_counters)} -> {len(fresh['counters'])})")
    else:
        for i, (b, f) in enumerate(zip(base_counters, fresh["counters"])):
            base_rec = LaunchCounters.from_dict(b)
            fresh_rec = LaunchCounters.from_dict(f)
            for field in PARITY_FIELDS:
                bv, fv = getattr(base_rec, field), getattr(fresh_rec, field)
                if bv != fv:
                    failures.append(
                        f"{bench_id}: launch {i} counter {field} changed "
                        f"({bv} -> {fv})")
    return failures


def check_all(
    results_dir: Path,
    *,
    tolerance: Optional[float] = None,
    rounds: int = 3,
    inject_slowdown: float = 0.0,
) -> List[str]:
    """Check every canonical case with a committed baseline; returns the
    accumulated failure messages."""
    results_dir = Path(results_dir)
    failures: List[str] = []
    checked = 0
    for bench_id in sorted(CASES):
        path = results_dir / f"BENCH_{bench_id}.json"
        if not path.is_file():
            print(f"[bench-check] {bench_id}: no baseline at {path}, skipped")
            continue
        baseline = json.loads(path.read_text())
        case_failures = check_case(
            bench_id, baseline, tolerance=tolerance, rounds=rounds,
            inject_slowdown=inject_slowdown,
        )
        checked += 1
        verdict = "FAIL" if case_failures else "ok"
        print(f"[bench-check] {bench_id}: {verdict}")
        failures.extend(case_failures)
    if checked == 0:
        failures.append(
            f"no BENCH_*.json baselines found in {results_dir} — run "
            "`make bench-smoke` first")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description="Compare fresh benchmark runs against committed "
                    "BENCH_*.json baselines.",
    )
    parser.add_argument("results_dir", nargs="?",
                        default="benchmarks/results",
                        help="directory holding BENCH_<id>.json baselines")
    parser.add_argument("--tolerance", type=float, default=None,
                        help=f"wall-clock tolerance fraction (default "
                             f"{DEFAULT_TOLERANCE}, env {TOLERANCE_ENV_VAR})")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed runs per backend (the median is "
                             "compared)")
    parser.add_argument("--inject-slowdown", type=float, default=0.0,
                        metavar="X",
                        help="multiply fresh wall-clock by 1+X (self-test)")
    args = parser.parse_args(argv)

    failures = check_all(
        Path(args.results_dir), tolerance=args.tolerance,
        rounds=args.rounds, inject_slowdown=args.inject_slowdown,
    )
    if failures:
        print(f"\nbench-check FAILED ({len(failures)} problem(s)):",
              file=sys.stderr)
        for msg in failures:
            print(f"  - {msg}", file=sys.stderr)
        return 1
    print("\nbench-check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
