"""Experiment registry: named report sections over the persisted
artifacts.

Where :data:`repro.analysis.figures.FIGURES` maps figure ids to *model*
generators (pure functions of the calibrated performance model), this
registry maps **experiment names** to report-section generators that
read what the harness actually persisted — ``BENCH_<id>.json``
snapshots, the layer-cost benchmark's ``LAYERS.json`` (written by
``benchmarks/layers/run.py --out``), the autotuner's
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

LAYERS_NAME = "LAYERS.json"
LAYERS_KIND = "repro-layers-bench"

#: The waterfall: each layer's per-op time, from the NumPy floor up to
#: the workload's front door (per-layer metrics of the traced run).
WATERFALL = ("reference.chain_us", "primitives.chain_us",
             "dispatch.chain_us", "pipeline.run_us", "frontdoor.op_us")

#: The end-to-end metrics, each a median over the untraced runs.
END_TO_END = ("setup_s", "peak_rss_mb", "latency_p50_ms",
              "throughput_meps")


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

    def layers(self) -> Optional[dict]:
        """The layer-cost benchmark result (``LAYERS.json``), or
        ``None`` if absent, unreadable or not such a document."""
        try:
            doc = json.loads(
                (Path(self.results_dir) / LAYERS_NAME).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or doc.get("kind") != LAYERS_KIND:
            return None
        return doc

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


def _num(value: float) -> str:
    return f"{value:.3g}" if abs(value) < 1000 else f"{value:,.0f}"


def layer_waterfall(ctx: ReportContext) -> Section:
    """Per-layer cost and end-to-end medians of the layer-cost
    benchmark, from LAYERS.json."""
    doc = ctx.layers()
    if doc is None:
        return _empty("layer_waterfall", "Layer waterfall (measured)",
                      f"no {LAYERS_NAME}",
                      "python3 benchmarks/layers/run.py --smoke --out "
                      f"benchmarks/results/{LAYERS_NAME}")
    table = [["workload", *WATERFALL, *END_TO_END]]
    for name, work in sorted(doc["workloads"].items()):
        row = [name]
        for metric in WATERFALL:
            got = work["per_layer"].get(metric)
            row.append(f"{got['value']:,.1f}" if got else "-")
        for metric in END_TO_END:
            got = work["end_to_end"][metric]
            row.append(f"{_num(got['median'])} [{_num(got['q1'])}–"
                       f"{_num(got['q3'])}]")
        table.append(row)
    host = doc["host"]
    body = (_md_table(table)
            + f"\n\n_Layer columns: µs per op in one traced run.  "
              f"End-to-end columns: median [q1–q3] of {doc['runs']} "
              f"untraced run(s) of {doc['seconds']} s each._"
            + f"\n\n_Host: {host['nproc']} cores "
              f"({host['cpus_allowed']} allowed), Python "
              f"{host['python']}, NumPy {host['numpy']}, "
              f"{host['platform']}; rev {host['git_rev'] or '-'}, "
              f"seed {host['seed']}._")
    return Section("layer_waterfall", "Layer waterfall (measured)", body)


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


EXPERIMENTS: Dict[str, Callable[[ReportContext], Section]] = {
    "fig06_sweep": fig06_sweep,
    "fig13_backend_ladder": fig13_backend_ladder,
    "layer_waterfall": layer_waterfall,
    "tuning_trajectory": tuning_trajectory,
}
"""Every named experiment ``python -m repro report`` renders, in order."""
