"""The append-only benchmark trajectory index."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.benchindex import (
    INDEX_NAME,
    append_rows,
    load_rows,
    row_from_load_report,
    rows_from_report,
)

REPORT = {
    "id": "fig13",
    "wall_clock_s": {"simulated": 0.5, "vectorized": 0.01},
    "speedup": 50.0,
    "timing": "median",
    "counters": [{"bytes_loaded": 100, "bytes_stored": 60,
                  "n_atomics": 4, "n_barriers": 2},
                 {"bytes_loaded": 40, "bytes_stored": 20,
                  "n_atomics": 0, "n_barriers": 1}],
}


class TestRows:
    def test_one_row_per_backend_with_summed_counters(self):
        rows = rows_from_report(REPORT, rev="abc1234", timestamp=1.0)
        assert [r["backend"] for r in rows] == ["simulated", "vectorized"]
        for row in rows:
            assert row["id"] == "fig13" and row["rev"] == "abc1234"
            assert row["timestamp"] == 1.0 and row["launches"] == 2
            assert row["bytes_loaded"] == 140 and row["n_atomics"] == 4
        by_backend = {r["backend"]: r for r in rows}
        assert by_backend["vectorized"]["speedup"] == 50.0
        assert "speedup" not in by_backend["simulated"]

    def test_rev_falls_back_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_REV", "deadbee")
        assert rows_from_report(REPORT, timestamp=1.0)[0]["rev"] == "deadbee"
        monkeypatch.delenv("REPRO_GIT_REV")
        assert rows_from_report(REPORT, timestamp=1.0)[0]["rev"] is None

    def test_serve_row(self):
        class FakeReport:
            shape = "chain"
            wall_s = 0.2
            throughput_rps = 300.0
            latency_p50_ms = 3.0
            latency_p95_ms = 6.0
            latency_p99_ms = 9.0
            completed = 60
            requests = 60
            batch_size_mean = 3.5
            plan_hit_rate = 0.97

        row = row_from_load_report(FakeReport(), rev="abc", timestamp=2.0)
        assert row["backend"] == "serve" and row["shape"] == "chain"
        assert row["latency_p95_ms"] == 6.0 and row["rev"] == "abc"


class TestAppendOnly:
    def test_append_accumulates_across_runs(self, tmp_path):
        assert load_rows(tmp_path) == []
        append_rows(tmp_path, rows_from_report(REPORT, rev="a", timestamp=1))
        append_rows(tmp_path, rows_from_report(REPORT, rev="b", timestamp=2))
        rows = load_rows(tmp_path / INDEX_NAME)
        assert len(rows) == 4
        assert [r["rev"] for r in rows] == ["a"] * 2 + ["b"] * 2

    def test_existing_rows_never_rewritten(self, tmp_path):
        append_rows(tmp_path, [{"id": "x", "backend": "serve"}])
        before = load_rows(tmp_path)
        append_rows(tmp_path, [{"id": "y", "backend": "serve"}])
        assert load_rows(tmp_path)[:1] == before

    def test_corrupt_index_raises_not_restarts(self, tmp_path):
        path = tmp_path / INDEX_NAME
        path.write_text("{broken")
        with pytest.raises(ReproError, match=INDEX_NAME):
            load_rows(tmp_path)
        with pytest.raises(ReproError):
            append_rows(tmp_path, [{"id": "x"}])
        assert path.read_text() == "{broken"  # nothing clobbered

    def test_document_shape(self, tmp_path):
        append_rows(tmp_path, [{"id": "x"}])
        doc = json.loads((tmp_path / INDEX_NAME).read_text())
        assert doc["version"] == 1 and isinstance(doc["rows"], list)


class TestConcurrentAppends:
    def test_parallel_processes_never_lose_rows(self, tmp_path):
        """Fleet workers race on one results directory: every appended
        row must survive the read-modify-write interleaving."""
        import multiprocessing

        n_procs, rows_each = 4, 5
        ctx = multiprocessing.get_context("fork") \
            if "fork" in multiprocessing.get_all_start_methods() \
            else multiprocessing.get_context()
        procs = [ctx.Process(target=_append_worker,
                             args=(str(tmp_path), pid, rows_each))
                 for pid in range(n_procs)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        rows = load_rows(tmp_path)
        assert len(rows) == n_procs * rows_each
        ids = {r["id"] for r in rows}
        assert ids == {f"w{p}-r{i}" for p in range(n_procs)
                       for i in range(rows_each)}

    def test_fleet_row_shape(self):
        from repro.obs.benchindex import row_from_fleet_run

        class FakeFleetReport:
            shapes = ("chain", "compact")
            wall_s = 0.4
            throughput_rps = 120.0
            latency_p50_ms = 2.0
            latency_p95_ms = 8.0
            latency_p99_ms = 11.0
            completed = 48
            requests = 48
            workers_start = 3
            workers_peak = 4
            workers_end = 3
            scale_ups = 1
            scale_downs = 1
            routing_skew = 1.12
            plan_hit_rate = 0.98

        row = row_from_fleet_run(FakeFleetReport(), rev="abc", timestamp=3.0)
        assert row["backend"] == "fleet"
        assert row["shapes"] == "chain+compact"
        assert row["workers_peak"] == 4
        assert row["scale_ups"] == 1 and row["scale_downs"] == 1
        assert row["routing_skew"] == 1.12


def _append_worker(root: str, pid: int, rows_each: int) -> None:
    for i in range(rows_each):
        append_rows(root, [{"id": f"w{pid}-r{i}", "backend": "serve"}])
