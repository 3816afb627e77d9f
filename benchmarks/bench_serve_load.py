"""Serve layer under closed-loop load — batching and degradation.

Not a paper figure: this benchmark exercises :mod:`repro.serve`, the
micro-batching service layer over the DS primitives.  It asserts the
serving acceptance bar on two runs:

* **healthy** — every request completes with reference-correct bytes,
  multi-request batches actually form (batch-size histogram mass above
  size 1), and the plan cache runs hot (>90% hit rate after
  :meth:`~repro.serve.Server.prime` warmup);
* **fault-injected** — with every fast-path batch raising a transient
  LaunchError, retries exhaust, the per-op circuit breaker opens, and
  all requests are still answered correctly by the sequential-baseline
  degradation path (``serve.degraded > 0``, zero wrong results).

The timed section is the healthy closed-loop run; its report feeds the
emitted summary table (throughput, p50/p99 latency, batch shape).
"""

from _common import ROUNDS, emit
from repro.serve import ServeConfig, check_report
from repro.serve.loadgen import run_load

CFG = ServeConfig(max_batch_size=8, max_wait_ms=2.0, num_workers=2,
                  breaker_threshold=2, breaker_cooldown_ms=10.0)
LOAD = dict(shape="chain", clients=4, requests_per_client=15, n=512,
            serve_config=CFG, seed=1234)


def test_serve_load(benchmark):
    healthy = run_load(**LOAD)
    check_report(healthy)

    faulted = run_load(fault="always", **LOAD)
    check_report(faulted, faulted=True)
    assert faulted.wrong == 0 and faulted.completed == faulted.requests
    assert faulted.degraded > 0

    emit("\n".join([
        "serve closed-loop load (shape=chain, 4 clients x 15 requests)",
        f"  healthy: {healthy.throughput_rps:.0f} req/s, "
        f"p50 {healthy.latency_p50_ms:.2f} ms, "
        f"p99 {healthy.latency_p99_ms:.2f} ms, "
        f"mean batch {healthy.batch_size_mean:.2f} "
        f"(max {healthy.batch_size_max:.0f}), "
        f"plan hit rate {healthy.plan_hit_rate * 100:.0f}%",
        f"  faulted: {faulted.throughput_rps:.0f} req/s, "
        f"{faulted.degraded} degraded, {faulted.retries} retries, "
        f"{faulted.faults_injected} faults injected, 0 wrong",
    ]), "serve_load")

    report = benchmark.pedantic(lambda: run_load(**LOAD), **ROUNDS)
    check_report(report)
