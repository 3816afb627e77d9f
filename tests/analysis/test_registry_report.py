"""The experiment registry and the ``python -m repro report`` renderer."""

import json

import pytest

from repro.analysis.registry import EXPERIMENTS, ReportContext, Section
from repro.analysis.report import (
    build_report,
    render_html,
    render_markdown,
)
from repro.errors import ReproError
from repro.obs.benchindex import append_rows
from repro.tune.db import TuningDB


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
    append_rows(tmp_path, [
        {"id": "fig13", "backend": "vectorized", "wall_clock_s": 0.01,
         "speedup": 50.0, "rev": "abc1234", "timestamp": 1754600000.0},
        {"id": "serve_load", "backend": "serve", "shape": "chain",
         "throughput_rps": 300.0, "latency_p50_ms": 3.0,
         "latency_p95_ms": 6.0, "latency_p99_ms": 9.0,
         "batch_size_mean": 3.5, "plan_hit_rate": 0.97,
         "rev": "abc1234", "timestamp": 1754600000.0},
    ])
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

    def test_trajectory_and_slo_read_the_index(self, full_ctx):
        assert "abc1234" in EXPERIMENTS["bench_trajectory"](full_ctx).body
        slo = EXPERIMENTS["serve_slo"](full_ctx).body
        assert "chain" in slo and "6.00ms" in slo

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
                                ["serve_slo", "fig06_sweep"])
        assert [s.name for s in sections] == ["serve_slo", "fig06_sweep"]

    def test_html_rendering(self, full_ctx):
        md = render_markdown(build_report(full_ctx), timestamp=0.0)
        html = render_html(md)
        assert html.startswith("<!DOCTYPE html>")
        assert "<table>" in html and "<h2>" in html
        assert "| ---" not in html  # separator rows consumed
        assert "fig13" in html
