"""Benchmark regression gate: counter round-trip, tolerance math,
injected-slowdown self-test, baseline handling."""

import json

import pytest

from repro.obs import benchrun, regress
from repro.simgpu.counters import LaunchCounters


def small_report(bench_id="fig13", scale=0.01, rounds=1):
    return benchrun.bench_case(bench_id, scale=scale, rounds=rounds)


@pytest.fixture(scope="module")
def report():
    """One real (tiny) report reused by the comparison tests."""
    return small_report()


class TestCounterRoundTrip:
    def test_to_dict_from_dict_identity(self, report):
        for rec in report["counters"]:
            c = LaunchCounters.from_dict(rec)
            assert c.to_dict() == rec
            for field in benchrun.PARITY_FIELDS:
                assert getattr(c, field) == rec[field]

    def test_from_dict_ignores_unknown_keys(self, report):
        rec = dict(report["counters"][0])
        rec["added_in_a_future_version"] = 1
        c = LaunchCounters.from_dict(rec)
        assert c.kernel_name == rec["kernel_name"]

    def test_extras_survive(self):
        c = LaunchCounters(kernel_name="k", grid_size=1, wg_size=32)
        c.extras["irregular"] = 1.0
        assert LaunchCounters.from_dict(c.to_dict()).extras == c.extras


class TestBenchCase:
    def test_report_shape(self, report):
        assert report["id"] == "fig13"
        assert set(report["wall_clock_s"]) == {"simulated", "vectorized"}
        assert report["parity"]["ok"] is True
        assert report["counters"], "report must embed the counter records"
        assert report["primitive"] == "ds_stream_compact"

    def test_unknown_case(self):
        with pytest.raises(KeyError):
            benchrun.bench_case("fig99")


class TestCheckCase:
    def test_fresh_equals_baseline_passes(self, report):
        assert regress.check_case("fig13", report, fresh=report) == []

    def test_faster_always_passes(self, report):
        quicker = dict(report)
        quicker["wall_clock_s"] = {
            k: v / 10 for k, v in report["wall_clock_s"].items()}
        assert regress.check_case("fig13", quicker, fresh=quicker,
                                  tolerance=0.0) == []
        assert regress.check_case("fig13", report, fresh=quicker) == []

    def test_injected_slowdown_fails(self, report):
        failures = regress.check_case("fig13", report, fresh=report,
                                      inject_slowdown=0.25)
        assert len(failures) == 2  # every backend tier regresses
        assert all("wall-clock regressed" in f for f in failures)

    def test_slowdown_within_tolerance_passes(self, report):
        assert regress.check_case("fig13", report, fresh=report,
                                  inject_slowdown=0.25,
                                  tolerance=0.30) == []

    def test_tolerance_env_var(self, report, monkeypatch):
        monkeypatch.setenv(regress.TOLERANCE_ENV_VAR, "0.5")
        assert regress.resolve_tolerance() == 0.5
        assert regress.check_case("fig13", report, fresh=report,
                                  inject_slowdown=0.25) == []

    def test_counter_drift_fails(self, report):
        corrupt = json.loads(json.dumps(report))  # deep copy
        corrupt["counters"][0]["bytes_loaded"] += 128
        failures = regress.check_case("fig13", corrupt, fresh=report)
        assert any("bytes_loaded" in f for f in failures)

    def test_schedule_dependent_drift_is_ignored(self, report):
        corrupt = json.loads(json.dumps(report))
        corrupt["counters"][0]["n_spins"] += 999
        corrupt["counters"][0]["steps"] += 999
        assert regress.check_case("fig13", corrupt, fresh=report) == []

    def test_launch_count_change_fails(self, report):
        corrupt = json.loads(json.dumps(report))
        corrupt["counters"].append(corrupt["counters"][0])
        failures = regress.check_case("fig13", corrupt, fresh=report)
        assert any("launch count" in f for f in failures)

    def test_old_format_baseline_demands_regeneration(self, report):
        legacy = {k: v for k, v in report.items() if k != "counters"}
        failures = regress.check_case("fig13", legacy, fresh=report)
        assert any("regenerate" in f for f in failures)


class TestCheckAll:
    def test_empty_results_dir_fails(self, tmp_path, capsys):
        failures = regress.check_all(tmp_path)
        assert any("no BENCH_" in f for f in failures)

    def test_missing_baseline_is_skipped(self, tmp_path, capsys, report,
                                         monkeypatch):
        monkeypatch.setattr(regress, "bench_case",
                            lambda bench_id, rounds: report)
        (tmp_path / "BENCH_fig13.json").write_text(json.dumps(report))
        failures = regress.check_all(tmp_path)
        out = capsys.readouterr().out
        assert "fig08: no baseline" in out
        assert "fig13: ok" in out
        assert failures == []

    def test_main_exit_codes(self, tmp_path, capsys, report, monkeypatch):
        monkeypatch.setattr(regress, "bench_case",
                            lambda bench_id, rounds: report)
        (tmp_path / "BENCH_fig13.json").write_text(json.dumps(report))
        assert regress.main([str(tmp_path)]) == 0
        assert "bench-check passed" in capsys.readouterr().out
        assert regress.main([str(tmp_path),
                             "--inject-slowdown", "0.25"]) == 1
        assert "FAILED" in capsys.readouterr().err


class TestLegacyArtifacts:
    def test_compiled_keyed_artifacts_still_load(self, report, tmp_path):
        """Baselines written while the compiled tier existed keep
        loading: the gate ignores the legacy keys and the report's
        backend ladder leaves them out."""
        from repro.analysis.registry import EXPERIMENTS, ReportContext

        legacy = dict(report)
        legacy["wall_clock_s"] = dict(report["wall_clock_s"], compiled=1e-9)
        legacy.update(speedup_compiled=1.97, compiled_fallback=True,
                      warmup_s=0.5)
        assert regress.check_case("fig13", legacy, fresh=report) == []
        failures = regress.check_case("fig13", legacy, fresh=report,
                                      inject_slowdown=0.25)
        assert len(failures) == 2
        assert not any("compiled" in f for f in failures)

        (tmp_path / "BENCH_fig13.json").write_text(json.dumps(legacy))
        ctx = ReportContext(results_dir=tmp_path)
        ladder = EXPERIMENTS["fig13_backend_ladder"](ctx).body
        assert "fig13" in ladder and "compiled" not in ladder
