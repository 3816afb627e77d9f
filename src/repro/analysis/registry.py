"""Experiment registry: named report sections over the persisted
artifacts.

Where :data:`repro.analysis.figures.FIGURES` maps figure ids to *model*
generators (pure functions of the calibrated performance model), this
registry maps **experiment names** to report-section generators that
read what the harness actually persisted — ``BENCH_<id>.json``
snapshots, the ``BENCH_INDEX.json`` trajectory, the autotuner's
``TUNING_DB.json`` — and render one markdown section each.  ``python
-m repro report`` walks the registry; every generator degrades to a
"no data yet" stub when its artifact is missing, so the report always
renders, even on a fresh checkout.

Add an experiment by writing ``def my_exp(ctx: ReportContext) ->
Section`` and registering it in :data:`EXPERIMENTS`; the CLI picks it
up by name with no other wiring.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

__all__ = ["Section", "ReportContext", "EXPERIMENTS"]


@dataclass(frozen=True)
class Section:
    """One rendered report section: a title and its markdown body."""

    name: str
    title: str
    body: str


@dataclass
class ReportContext:
    """Lazy access to everything a report section may want to read."""

    results_dir: Path = Path("benchmarks/results")
    tuning_db_path: Optional[Path] = None
    _bench: Optional[Dict[str, dict]] = field(default=None, repr=False)
    _index: Optional[List[dict]] = field(default=None, repr=False)

    def bench_reports(self) -> Dict[str, dict]:
        """Every ``BENCH_<id>.json`` snapshot, keyed by figure id."""
        if self._bench is None:
            out = {}
            for path in sorted(Path(self.results_dir).glob("BENCH_*.json")):
                if path.name == "BENCH_INDEX.json":
                    continue
                try:
                    doc = json.loads(path.read_text())
                except (OSError, json.JSONDecodeError):
                    continue
                out[doc.get("id", path.stem[len("BENCH_"):])] = doc
            self._bench = out
        return self._bench

    def index_rows(self) -> List[dict]:
        """The append-only benchmark trajectory (oldest first)."""
        if self._index is None:
            from repro.obs.benchindex import load_rows

            try:
                self._index = load_rows(Path(self.results_dir))
            except Exception:
                self._index = []
        return self._index

    def tuning_db(self):
        """The :class:`~repro.tune.db.TuningDB`, or ``None`` if absent."""
        from repro.tune.db import TuningDB

        path = self.tuning_db_path
        if path is None:
            path = Path(self.results_dir) / "TUNING_DB.json"
        path = Path(path)
        if not path.exists():
            return None
        return TuningDB.load(path)


def _empty(name: str, title: str, what: str, hint: str) -> Section:
    return Section(name, title,
                   f"_No data yet: {what}._  Run `{hint}` to produce it.")


def _md_table(rows: List[List[str]]) -> str:
    """GitHub-flavoured markdown table from header + data rows."""
    if not rows:
        return ""
    header, data = rows[0], rows[1:]
    lines = ["| " + " | ".join(str(c) for c in header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in data]
    return "\n".join(lines)


def _fmt_ts(ts) -> str:
    if not ts:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M", time.localtime(float(ts)))


# -- experiments ---------------------------------------------------------


def fig06_sweep(ctx: ReportContext) -> Section:
    """The coarsening sweep (Figure 6) from the calibrated model — the
    static picture the online autotuner probes empirically."""
    from repro.analysis.figures import FIGURES

    fig = FIGURES["fig6"]()
    body = [f"{fig.title} ({fig.y_label}; model-predicted).", "",
            _md_table(fig.as_rows())]
    body += [f"_{note}_" for note in fig.notes]
    return Section("fig06_sweep", "Figure 6 — coarsening sweep (model)",
                   "\n".join(body))


def fig13_backend_ladder(ctx: ReportContext) -> Section:
    """Measured wall-clock ladder simulated → vectorized for the
    canonical cases, from the BENCH snapshots."""
    bench = ctx.bench_reports()
    if not bench:
        return _empty("fig13_backend_ladder",
                      "Backend ladder (measured)",
                      "no BENCH_*.json snapshots", "make bench-smoke")
    rows = [["case", "simulated", "vectorized", "speedup", "timing"]]
    for bench_id in sorted(bench):
        rep = bench[bench_id]
        wall = rep.get("wall_clock_s", {})
        rows.append([
            bench_id,
            f"{wall.get('simulated', 0.0):.3f}s",
            f"{wall.get('vectorized', 0.0):.4f}s",
            f"{rep.get('speedup', 0.0):.1f}x",
            rep.get("timing", "best"),
        ])
    return Section("fig13_backend_ladder", "Backend ladder (measured)",
                   _md_table(rows))


def bench_trajectory(ctx: ReportContext) -> Section:
    """Wall-clock across runs from the append-only BENCH_INDEX."""
    rows = ctx.index_rows()
    kernel = [r for r in rows if r.get("backend") not in ("serve", "fleet")]
    if not kernel:
        return _empty("bench_trajectory", "Benchmark trajectory",
                      "BENCH_INDEX.json has no kernel rows",
                      "make bench-smoke")
    table = [["run", "rev", "case", "backend", "wall", "speedup", "when"]]
    for i, r in enumerate(kernel[-30:], max(0, len(kernel) - 30)):
        speedup = r.get("speedup")
        table.append([
            str(i), r.get("rev") or "-", r.get("id", "-"),
            r.get("backend", "-"),
            f"{r.get('wall_clock_s', 0.0):.4f}s",
            f"{speedup:.1f}x" if speedup else "-",
            _fmt_ts(r.get("timestamp")),
        ])
    note = ("" if len(kernel) <= 30
            else f"\n_Showing the last 30 of {len(kernel)} rows._")
    return Section("bench_trajectory", "Benchmark trajectory",
                   _md_table(table) + note)


def serve_slo(ctx: ReportContext) -> Section:
    """Serve-layer throughput and tail latency across recorded runs."""
    rows = [r for r in ctx.index_rows() if r.get("backend") == "serve"]
    if not rows:
        return _empty("serve_slo", "Serve SLO runs",
                      "no serve rows in BENCH_INDEX.json",
                      "make bench-smoke")
    table = [["rev", "shape", "req/s", "p50", "p95", "p99",
              "mean batch", "plan hits", "when"]]
    for r in rows[-20:]:
        table.append([
            r.get("rev") or "-", r.get("shape", "-"),
            f"{r.get('throughput_rps', 0.0):.0f}",
            f"{r.get('latency_p50_ms', 0.0):.2f}ms",
            f"{r.get('latency_p95_ms', 0.0):.2f}ms",
            f"{r.get('latency_p99_ms', 0.0):.2f}ms",
            f"{r.get('batch_size_mean', 0.0):.2f}",
            f"{r.get('plan_hit_rate', 0.0) * 100:.0f}%",
            _fmt_ts(r.get("timestamp")),
        ])
    return Section("serve_slo", "Serve SLO runs", _md_table(table))


def tuning_trajectory(ctx: ReportContext) -> Section:
    """Autotuner winners and their measured gains, from the TuningDB."""
    db = ctx.tuning_db()
    if db is None or len(db) == 0:
        return _empty("tuning_trajectory", "Autotuner winners",
                      "no TUNING_DB.json",
                      "python -m repro tune --fig fig13")
    table = [["kind", "backend", "workload", "knobs", "objective",
              "baseline", "gain", "trials", "when"]]
    for key, entry in sorted(db.entries().items()):
        obj, base = entry.get("objective") or {}, entry.get("baseline") or {}
        primary = "p95_ms" if entry["kind"] == "serve" else "wall_ms"
        o, b = obj.get(primary), base.get(primary)
        gain = (f"{(1.0 - o / b) * 100:+.1f}%" if o and b else "-")
        meta = entry.get("meta") or {}
        workload = meta.get("ops") or key.split("|", 1)[0]
        if meta.get("n"):
            workload = f"{workload} (n={meta['n']})"
        table.append([
            entry["kind"], entry.get("backend") or "-", workload,
            json.dumps(entry.get("knobs", {}), sort_keys=True),
            f"{o:.3f}" if o is not None else "-",
            f"{b:.3f}" if b is not None else "-",
            gain, str(entry.get("trials", "-")),
            _fmt_ts(entry.get("timestamp")),
        ])
    body = (_md_table(table)
            + "\n\n_gain is the winner's primary-objective improvement "
              "over the static default (positive = faster)._")
    return Section("tuning_trajectory", "Autotuner winners", body)


def fleet_health(ctx: ReportContext) -> Section:
    """Fleet-tier runs: pool-wide throughput/tails plus the cluster
    facts (worker counts, routing skew, scale events) from the
    ``backend="fleet"`` trajectory rows."""
    rows = [r for r in ctx.index_rows() if r.get("backend") == "fleet"]
    if not rows:
        return _empty("fleet_health", "Fleet runs",
                      "no fleet rows in BENCH_INDEX.json",
                      "python -m repro fleet --bench-dir "
                      "benchmarks/results")
    table = [["rev", "shapes", "req/s", "p50", "p95", "workers",
              "scale", "skew", "plan hits", "when"]]
    for r in rows[-20:]:
        table.append([
            r.get("rev") or "-", r.get("shapes", "-"),
            f"{r.get('throughput_rps', 0.0):.0f}",
            f"{r.get('latency_p50_ms', 0.0):.2f}ms",
            f"{r.get('latency_p95_ms', 0.0):.2f}ms",
            f"{r.get('workers_start', 0)}→{r.get('workers_peak', 0)}"
            f"→{r.get('workers_end', 0)}",
            f"+{r.get('scale_ups', 0)}/-{r.get('scale_downs', 0)}",
            f"{r.get('routing_skew', 0.0):.2f}x",
            f"{r.get('plan_hit_rate', 0.0) * 100:.0f}%",
            _fmt_ts(r.get("timestamp")),
        ])
    body = (_md_table(table)
            + "\n\n_workers is start→peak→end; scale counts the "
              "autoscaler's grow/drain events; skew is the max worker "
              "key load over the ring mean (bound 2.00x)._")
    return Section("fleet_health", "Fleet runs", body)


EXPERIMENTS: Dict[str, Callable[[ReportContext], Section]] = {
    "fig06_sweep": fig06_sweep,
    "fig13_backend_ladder": fig13_backend_ladder,
    "bench_trajectory": bench_trajectory,
    "serve_slo": serve_slo,
    "fleet_health": fleet_health,
    "tuning_trajectory": tuning_trajectory,
}
"""Every named experiment ``python -m repro report`` renders, in order."""
