"""The ``python -m repro stream`` smoke CLI and per-shard trace
analysis."""

import numpy as np
import pytest

from repro import DSConfig, obs
from repro.obs.analyze import analyze, render_text
from repro.obs.export import export_chrome_trace
from repro.stream import ArraySource, stream_run
from repro.stream.cli import build_parser, main


class TestStreamCli:
    def test_check_exit_zero(self, tmp_path):
        trace = tmp_path / "trace.json"
        rc = main(["--check", "--elements", "8192",
                   "--shard-elems", "1024", "--workers", "2",
                   "--file", str(tmp_path / "in.dat"),
                   "--trace", str(trace)])
        assert rc == 0
        assert trace.exists()

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.shard_elems < args.elements  # multi-shard by default
        assert args.workers >= 1

    def test_bad_geometry_fails(self, tmp_path):
        # A shard budget of 0 must surface the config error, not crash.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--shard-elems"])  # missing value


class TestAnalyzeStream:
    @pytest.fixture
    def report(self, rng, tmp_path):
        values = rng.integers(0, 9, 3000).astype(np.float32)
        config = DSConfig(shard_elems=512)
        tracer = obs.enable("spans")
        try:
            stream_run([("compact", 0.0), "unique"], ArraySource(values),
                       config=config)
        finally:
            obs.disable()
        path = tmp_path / "trace.json"
        export_chrome_trace({"stream": tracer}, path)
        return analyze(str(path))

    def test_per_shard_attribution(self, report):
        streams = [p["stream"] for p in report["processes"]
                   if p.get("stream")]
        assert len(streams) == 1
        st = streams[0]
        assert st["n_shards"] == 6  # ceil(3000 / 512)
        assert st["n_runs"] == 1
        for shard in st["shards"]:
            for key in ("load_us", "compute_us", "store_us", "total_us"):
                assert shard[key] >= 0.0
            assert shard["total_us"] == pytest.approx(
                shard["load_us"] + shard["compute_us"] + shard["store_us"])
        assert sum(st["shares"].values()) == pytest.approx(1.0)

    def test_render_mentions_stream_section(self, report):
        text = render_text(report)
        assert "stream pipeline" in text
        assert "shard" in text

