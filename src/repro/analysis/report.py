"""``python -m repro report`` — one document over every persisted
artifact.

Walks the experiment registry (:data:`repro.analysis.registry
.EXPERIMENTS`) and renders each section into a single markdown report:
the measured backend ladder from the ``BENCH_<id>.json`` snapshots,
the per-layer waterfall and end-to-end medians of the layer-cost
benchmark from ``LAYERS.json``, the autotuner's winners from
``TUNING_DB.json``, and the model-predicted coarsening sweep for
context.  Sections whose artifact
is missing render a "no data yet" stub naming the command that
produces it — the report never fails on a fresh checkout.

Usage::

    python -m repro report                      # markdown to stdout
    python -m repro report -o REPORT.md         # write a file
    python -m repro report --html -o REPORT.html
    python -m repro report --experiments tuning_trajectory layer_waterfall
"""

from __future__ import annotations

import argparse
import html as _html
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis.registry import EXPERIMENTS, ReportContext, Section
from repro.errors import ReproError

__all__ = ["build_report", "render_markdown", "render_html", "main"]


def build_report(ctx: ReportContext,
                 experiments: Optional[List[str]] = None) -> List[Section]:
    """Run the selected (default: all) experiment generators."""
    names = list(experiments) if experiments else list(EXPERIMENTS)
    unknown = sorted(set(names) - set(EXPERIMENTS))
    if unknown:
        raise ReproError(
            f"unknown experiment(s) {', '.join(unknown)}; known: "
            f"{', '.join(sorted(EXPERIMENTS))}")
    return [EXPERIMENTS[name](ctx) for name in names]


def render_markdown(sections: List[Section], *,
                    timestamp: Optional[float] = None) -> str:
    """The full markdown document."""
    ts = time.time() if timestamp is None else timestamp
    when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(ts))
    lines = ["# In-Place Data Sliding — reproduction report", "",
             f"_Generated {when} from the persisted benchmark and "
             "tuning artifacts (see docs/tuning.md and "
             "docs/observability.md)._", ""]
    for section in sections:
        lines += [f"## {section.title}", "", section.body, ""]
    return "\n".join(lines).rstrip() + "\n"


def render_html(markdown: str, *, title: str = "repro report") -> str:
    """A minimal, dependency-free HTML rendering of the markdown.

    Handles exactly what the report emits — ``#``/``##`` headings,
    ``|``-tables, and paragraphs (with ``_..._`` emphasis left as-is);
    it is a readable artifact for CI uploads, not a markdown engine.
    """
    out = ["<!DOCTYPE html>", "<html><head>",
           f"<title>{_html.escape(title)}</title>",
           "<style>body{font-family:sans-serif;margin:2em;}"
           "table{border-collapse:collapse;}"
           "td,th{border:1px solid #999;padding:4px 8px;"
           "text-align:right;}"
           "td:first-child,th:first-child{text-align:left;}</style>",
           "</head><body>"]
    table: List[str] = []

    def flush_table() -> None:
        if not table:
            return
        out.append("<table>")
        for i, line in enumerate(table):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if i == 1 and all(set(c) <= set("-: ") for c in cells):
                continue
            tag = "th" if i == 0 else "td"
            out.append("<tr>" + "".join(
                f"<{tag}>{_html.escape(c)}</{tag}>" for c in cells)
                + "</tr>")
        out.append("</table>")
        table.clear()

    for line in markdown.splitlines():
        if line.startswith("|"):
            table.append(line)
            continue
        flush_table()
        if line.startswith("## "):
            out.append(f"<h2>{_html.escape(line[3:])}</h2>")
        elif line.startswith("# "):
            out.append(f"<h1>{_html.escape(line[2:])}</h1>")
        elif line.strip():
            text = _html.escape(line)
            if text.startswith("_") and text.endswith("_"):
                text = f"<em>{text[1:-1]}</em>"
            out.append(f"<p>{text}</p>")
    flush_table()
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Render one markdown/HTML report over the persisted "
                    "BENCH_*.json snapshots, the layer-cost benchmark's "
                    "LAYERS.json and the autotuner's TUNING_DB.json.")
    parser.add_argument("--results-dir", default="benchmarks/results",
                        help="artifact directory "
                             "(default: benchmarks/results)")
    parser.add_argument("--tuning-db", default=None,
                        help="tuning DB path (default: "
                             "<results-dir>/TUNING_DB.json)")
    parser.add_argument("-o", "--output", default=None,
                        help="write here instead of stdout")
    parser.add_argument("--html", action="store_true",
                        help="render HTML instead of markdown")
    parser.add_argument("--experiments", nargs="+", default=None,
                        metavar="NAME",
                        help="render only these sections "
                             f"(known: {', '.join(sorted(EXPERIMENTS))})")
    parser.add_argument("--list", action="store_true",
                        help="list the registered experiments and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name, fn in EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{name:24s} {doc}")
        return 0
    ctx = ReportContext(
        results_dir=Path(args.results_dir),
        tuning_db_path=Path(args.tuning_db) if args.tuning_db else None)
    sections = build_report(ctx, args.experiments)
    doc = render_markdown(sections)
    if args.html:
        doc = render_html(doc)
    if args.output:
        Path(args.output).write_text(doc)
        print(f"wrote {args.output} ({len(sections)} section(s))")
    else:
        sys.stdout.write(doc)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
