"""The composite objective the autotuner minimizes.

**Kernel tier** — a trial's primary score is its median wall clock over
``samples`` untraced runs (median, not best: the same estimator the
``make bench-check`` gate uses, so a tuner win is a win by the gate's
own ruler).  Ties within ``tie_margin`` relative wall are broken by the
**spin+idle share** of the analyzer's critical-path decomposition
(:func:`repro.obs.analyze.analyze_tracer` over one additional traced
run): between two equally fast configs, prefer the one whose
work-groups spend less time spinning on the adjacent-sync flags or
sitting idle — that's the config with headroom.  Only simulated
launches have work-groups to decompose; a vectorized launch records
host phases alone, so its share is 0 and its ties fall back to wall
clock.

**Serve tier** — primary is the p95 of the loadgen latency
distribution (what an SLO is written against), tie-broken by
throughput.

Scores are plain dataclasses with a :func:`better` ordering so the
tuner, tests and the report renderer all agree on what "won" means.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs as _obs
from repro.obs.analyze import analyze_tracer

__all__ = ["TrialScore", "ServeScore", "TIE_MARGIN", "better",
           "spin_idle_share", "measure_kernel_trial"]

#: Relative wall-clock band within which two trials count as tied and
#: the secondary objective decides.
TIE_MARGIN = 0.02


@dataclass(frozen=True)
class TrialScore:
    """One kernel trial's composite score."""

    wall_ms: float
    spin_idle_share: float
    samples: int = 1
    wall_samples_ms: tuple = ()

    def to_dict(self) -> dict:
        return {"wall_ms": round(self.wall_ms, 6),
                "spin_idle_share": round(self.spin_idle_share, 6),
                "samples": self.samples,
                "wall_samples_ms": [round(s, 6)
                                    for s in self.wall_samples_ms]}


@dataclass(frozen=True)
class ServeScore:
    """One serve-grid trial's composite score."""

    p95_ms: float
    throughput_rps: float
    completed: int = 0
    requests: int = 0

    def to_dict(self) -> dict:
        return {"p95_ms": round(self.p95_ms, 6),
                "throughput_rps": round(self.throughput_rps, 3),
                "completed": self.completed, "requests": self.requests}


def better(candidate, incumbent, *, tie_margin: float = TIE_MARGIN) -> bool:
    """Whether ``candidate`` beats ``incumbent`` under the composite
    objective.  Works for both score kinds; ``incumbent=None`` always
    loses."""
    if incumbent is None:
        return True
    if isinstance(candidate, ServeScore):
        primary_c, primary_i = candidate.p95_ms, incumbent.p95_ms
        # Higher throughput is better → negate for the "lower wins" rule.
        secondary_c = -candidate.throughput_rps
        secondary_i = -incumbent.throughput_rps
    else:
        primary_c, primary_i = candidate.wall_ms, incumbent.wall_ms
        secondary_c = candidate.spin_idle_share
        secondary_i = incumbent.spin_idle_share
    if primary_i <= 0:
        return primary_c < primary_i
    gap = (primary_c - primary_i) / primary_i
    if gap < -tie_margin:
        return True
    if gap > tie_margin:
        return False
    if secondary_c != secondary_i:
        return secondary_c < secondary_i
    return primary_c < primary_i


def spin_idle_share(report: dict) -> float:
    """The spin+idle fraction of the total decomposed time across every
    launch of an analyzer report — the tuner's secondary objective."""
    waste = 0.0
    total = 0.0
    for proc in report.get("processes", ()):
        for launch in proc.get("launches", ()):
            totals = launch.get("totals", {})
            waste += totals.get("spin", 0.0) + totals.get("idle", 0.0)
            total += sum(totals.values())
    return waste / total if total > 0 else 0.0


def measure_kernel_trial(run: Callable[[], object], *, samples: int = 3,
                         trace: bool = True,
                         trace_mode: str = "spans") -> TrialScore:
    """Score one kernel configuration.

    ``run`` executes the workload once under the candidate config.
    Wall clock is the median of ``samples`` untraced runs (tracing off
    so instrumentation cost never skews the primary objective); the
    spin+idle share comes from one extra run under a scoped tracer,
    decomposed by the analyzer.  ``trace=False`` skips the traced run
    (share reported as 0.0) for callers that only need timing.
    """
    walls = []
    for _ in range(max(1, samples)):
        t0 = time.perf_counter()
        run()
        walls.append((time.perf_counter() - t0) * 1e3)
    share = 0.0
    if trace:
        with _obs.tracing(trace_mode) as tracer:
            run()
            share = spin_idle_share(analyze_tracer(tracer))
    return TrialScore(wall_ms=statistics.median(walls),
                      spin_idle_share=share,
                      samples=len(walls),
                      wall_samples_ms=tuple(walls))
