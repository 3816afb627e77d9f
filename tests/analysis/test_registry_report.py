"""The experiment registry and the ``python -m repro report`` renderer."""

import json
from pathlib import Path

import pytest

from repro.analysis.registry import EXPERIMENTS, ReportContext, Section
from repro.analysis.report import (
    build_report,
    render_html,
    render_markdown,
)
from repro.errors import ReproError
from repro.tune.db import TuningDB

#: ``LAYERS.json`` exactly as ``benchmarks/layers/run.py --smoke --out``
#: wrote it (six workloads, one run each, on a 2-core host).
LAYERS_SMOKE = Path(__file__).parent / "layers_smoke"


@pytest.fixture
def empty_ctx(tmp_path):
    return ReportContext(results_dir=tmp_path)


@pytest.fixture
def full_ctx(tmp_path):
    (tmp_path / "BENCH_fig13.json").write_text(json.dumps({
        "id": "fig13", "timing": "median",
        "wall_clock_s": {"simulated": 0.5, "vectorized": 0.01},
        "speedup": 50.0, "counters": [],
    }))
    (tmp_path / "LAYERS.json").write_text(
        (LAYERS_SMOKE / "LAYERS.json").read_text())
    db = TuningDB(tmp_path / "TUNING_DB.json")
    db.set("kernel|x", kind="kernel", knobs={"coarsening": 4},
           objective={"wall_ms": 1.0}, baseline={"wall_ms": 2.0},
           trials=12, backend="vectorized", timestamp=1754600000.0,
           meta={"ops": "compact", "n": 1024})
    db.save()
    return ReportContext(results_dir=tmp_path)


class TestRegistry:
    def test_every_experiment_renders_without_data(self, empty_ctx):
        for name, fn in EXPERIMENTS.items():
            section = fn(empty_ctx)
            assert isinstance(section, Section) and section.name == name
            assert section.body  # a stub or real content, never empty

    def test_missing_artifacts_name_the_producing_command(self, empty_ctx):
        body = EXPERIMENTS["tuning_trajectory"](empty_ctx).body
        assert "No data yet" in body and "repro tune" in body

    def test_backend_ladder_reads_snapshots(self, full_ctx):
        body = EXPERIMENTS["fig13_backend_ladder"](full_ctx).body
        assert "fig13" in body and "50.0x" in body and "median" in body

    def test_layer_waterfall_has_a_row_per_workload(self):
        body = EXPERIMENTS["layer_waterfall"](
            ReportContext(results_dir=LAYERS_SMOKE)).body
        lines = body.splitlines()
        header = lines[0].split(" | ")
        assert header[1:6] == ["reference.chain_us", "primitives.chain_us",
                               "dispatch.chain_us", "pipeline.run_us",
                               "frontdoor.op_us"]
        rows = [line for line in lines[2:] if line.startswith("| ")]
        assert [row.split(" | ")[0][2:] for row in rows] == [
            "batch_1k", "batch_1m", "fleet_1k", "serve_1k", "sim_64k",
            "stream_4m"]
        # batch_1k: the reference floor, then setup median [q1–q3]
        assert rows[0].split(" | ")[1] == "16.2"
        assert "0.245 [0.245–0.245]" in rows[0]
        host = [line for line in lines if line.startswith("_Host:")]
        assert len(host) == 1 and "Python 3.11.7" in host[0]

    def test_layer_waterfall_stub_names_the_command(self, empty_ctx):
        body = EXPERIMENTS["layer_waterfall"](empty_ctx).body
        assert "No data yet" in body
        assert "benchmarks/layers/run.py --smoke --out" in body

    def test_tuning_trajectory_shows_gain(self, full_ctx):
        body = EXPERIMENTS["tuning_trajectory"](full_ctx).body
        assert "compact (n=1024)" in body
        assert "+50.0%" in body  # 2.0ms -> 1.0ms


class TestReport:
    def test_build_report_all_sections(self, full_ctx):
        sections = build_report(full_ctx)
        assert [s.name for s in sections] == list(EXPERIMENTS)
        md = render_markdown(sections, timestamp=1754600000.0)
        assert md.startswith("# In-Place Data Sliding")
        for s in sections:
            assert f"## {s.title}" in md

    def test_unknown_experiment_rejected(self, empty_ctx):
        with pytest.raises(ReproError, match="nope"):
            build_report(empty_ctx, ["nope"])

    def test_selection_preserves_order(self, empty_ctx):
        sections = build_report(empty_ctx,
                                ["layer_waterfall", "fig06_sweep"])
        assert [s.name for s in sections] == ["layer_waterfall",
                                              "fig06_sweep"]

    def test_html_rendering(self, full_ctx):
        md = render_markdown(build_report(full_ctx), timestamp=0.0)
        html = render_html(md)
        assert html.startswith("<!DOCTYPE html>")
        assert "<table>" in html and "<h2>" in html
        assert "| ---" not in html  # separator rows consumed
        assert "fig13" in html
