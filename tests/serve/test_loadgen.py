"""The closed-loop load generator and its acceptance gate."""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import ServeConfig, check_report, run_load
from repro.serve.loadgen import LoadReport, make_shape, overhead_check

_FAST = ServeConfig(max_batch_size=4, max_wait_ms=1.0, num_workers=2,
                    breaker_threshold=2, breaker_cooldown_ms=5.0,
                    retry_backoff_ms=0.0)


class TestShapes:
    @pytest.mark.parametrize("name", ["compact", "unique", "remove_if",
                                      "partition", "chain"])
    def test_shape_builds_with_nonempty_expectation(self, name):
        spec = make_shape(name, 256)
        assert spec.array.size == 256
        assert spec.expected.size > 0
        assert spec.ops

    def test_unknown_shape(self):
        with pytest.raises(ServeError, match="unknown load shape"):
            make_shape("nope", 128)

    def test_shapes_are_deterministic(self):
        a, b = make_shape("chain", 128, seed=9), make_shape("chain", 128,
                                                            seed=9)
        assert np.array_equal(a.array, b.array)


class TestRunLoad:
    def test_healthy_run_meets_acceptance(self):
        report = run_load(shape="chain", clients=3, requests_per_client=8,
                          n=256, serve_config=_FAST)
        check_report(report)  # must not raise
        assert report.completed == 24 and report.wrong == 0
        assert report.batch_size_max >= 2
        assert report.plan_hit_rate > 0.90
        assert report.latency_p99_ms >= report.latency_p50_ms > 0

    def test_faulted_run_degrades_but_stays_correct(self):
        report = run_load(shape="compact", clients=2,
                          requests_per_client=6, n=256,
                          serve_config=_FAST, fault="always")
        check_report(report, faulted=True)
        assert report.completed == 12 and report.wrong == 0
        assert report.degraded > 0 and report.faults_injected > 0

    def test_report_roundtrips_to_dict(self):
        report = run_load(shape="unique", clients=2, requests_per_client=3,
                          n=128, serve_config=_FAST)
        d = report.to_dict()
        assert d["completed"] == 6
        assert isinstance(report.summary(), str)


class TestCheckReport:
    def _good(self):
        return LoadReport(shape="chain", clients=2, requests=10,
                          completed=10, batch_size_max=4,
                          plan_hit_rate=1.0)

    def test_passes_on_good_report(self):
        check_report(self._good())

    def test_flags_incomplete(self):
        r = self._good()
        r.completed = 9
        r.failed = 1
        with pytest.raises(ServeError, match="completed 9/10"):
            check_report(r)

    def test_flags_wrong_results(self):
        r = self._good()
        r.wrong = 2
        with pytest.raises(ServeError, match="wrong outputs"):
            check_report(r)

    def test_flags_missing_batching(self):
        r = self._good()
        r.batch_size_max = 1
        with pytest.raises(ServeError, match="batching is not engaging"):
            check_report(r)

    def test_flags_cold_plan_cache(self):
        r = self._good()
        r.plan_hit_rate = 0.5
        with pytest.raises(ServeError, match="hit rate"):
            check_report(r)

    def test_faulted_requires_degradation(self):
        r = self._good()
        r.plan_hit_rate = 0.0  # irrelevant when faulted
        r.degraded = 0
        with pytest.raises(ServeError, match="never degraded"):
            check_report(r, faulted=True)
        r.degraded = 3
        check_report(r, faulted=True)


class TestOverheadCheck:
    """The recorder-on guard, driven by a stub run callback (no
    servers, no forks)."""

    @staticmethod
    def _runs(throughputs, faults=None):
        """A run callback replaying ``throughputs`` in call order and
        logging each ``on`` flag; ``faults`` maps a call index to
        report fields to set on that call's report."""
        calls = []

        def run(on):
            i = len(calls)
            calls.append(on)
            report = LoadReport(shape="chain", clients=1, requests=1,
                                completed=1,
                                throughput_rps=throughputs[i])
            for name, value in (faults or {}).get(i, {}).items():
                setattr(report, name, value)
            return report

        return run, calls

    def test_warmup_then_interleaved_pairs(self):
        run, calls = self._runs([1.0] * 13)
        result = overhead_check(run)
        assert calls == [False] + [False, True] * 6
        assert result["rounds"] == 6 and result["bound"] == 0.90
        assert len(result["throughput_off_rps"]) == 6
        assert len(result["pair_ratios"]) == 6

    def test_warmup_is_excluded(self):
        # A warmup far faster than every measured run would sink the
        # ratios if it were counted.
        run, _ = self._runs([1000.0] + [100.0, 95.0] * 6)
        result = overhead_check(run)
        assert result["throughput_off_rps"] == [100.0] * 6
        assert result["ratio"] == pytest.approx(0.95)

    def test_one_matched_pair_at_the_bound_passes(self):
        # One off run caught a lucky window nothing else matched, so the
        # ratio of per-mode bests misses the bound; one matched pair
        # shows the recorder keeping up, which passes.
        off = [200.0, 100.0, 100.0, 100.0, 100.0, 100.0]
        on = [120.0, 95.0, 80.0, 80.0, 80.0, 80.0]
        run, _ = self._runs([100.0] + [x for pair in zip(off, on)
                                       for x in pair])
        result = overhead_check(run)
        assert max(on) / max(off) < 0.90
        assert result["ratio"] == pytest.approx(0.95)

    def test_per_mode_bests_at_the_bound_pass(self):
        # The best on run holds 0.95 of the best off run; the pair that
        # holds it can only do better, so the guard passes.
        off = [100.0, 90.0, 100.0, 100.0, 100.0, 100.0]
        on = [60.0, 95.0, 60.0, 60.0, 60.0, 60.0]
        run, _ = self._runs([100.0] + [x for pair in zip(off, on)
                                       for x in pair])
        result = overhead_check(run)
        assert max(on) / max(off) == pytest.approx(0.95)
        assert result["ratio"] >= max(on) / max(off)

    def test_every_pair_below_the_bound_fails(self):
        run, _ = self._runs([100.0] + [100.0, 89.0] * 6)
        with pytest.raises(ServeError, match="overhead check failed"):
            overhead_check(run)

    @pytest.mark.parametrize("field", ["failed", "wrong"])
    def test_failed_or_wrong_run_fails(self, field):
        run, calls = self._runs([100.0] * 13, faults={4: {field: 1}})
        with pytest.raises(ServeError, match=f"1 {field}"):
            overhead_check(run)
        assert len(calls) == 5
