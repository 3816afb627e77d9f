"""Closed-loop load generation and acceptance checks for the fleet.

:func:`run_fleet_load` points the closed-loop client loop
(:func:`repro.serve.loadgen.drive_load`) at a :class:`repro.fleet.Fleet`
with traffic spread over several shapes *and* several input sizes —
distinct batch keys, so the consistent-hash router actually has a key
population to balance — and verifies every response byte-for-byte
against the NumPy reference semantics.

:func:`run_fleet_check` is the deterministic acceptance pass behind
``python -m repro fleet --check``:

1. **healthy phase** — multi-shape traffic over a 3-worker fleet;
   asserts byte-correct responses, bounded routing skew (no worker
   above 2x the mean key load) and an aggregate plan-cache hit rate
   above 90% after warmup.  This is the report's timed window:
   ``requests``, ``completed``, latency and throughput cover it only,
   since the later phases' submits are acceptance probes;
2. **burst phase** — a request backlog plus manual
   :meth:`~repro.fleet.Fleet.autoscale_tick` calls until the
   autoscaler *grows* the pool;
3. **idle phase** — manual ticks with no traffic until it *drains*
   back down;
4. **incident phase** — flips the workers' chaos injectors to
   ``"always"`` so the circuit breaker opens and a flight-recorder
   bundle is dumped, then **replays** that bundle through
   :mod:`repro.fleet.replay` and asserts the same trigger fires again;
5. **tracing phase** — the whole run executes with ``trace="full"``,
   so before the fleet closes it dumps the merged clock-aligned
   Chrome trace, asserts worker spans joined router request spans via
   the propagated trace context, runs the cross-process critical-path
   check from :mod:`repro.obs.analyze` (±2%), and demands that the
   worker incidents from phase 4 escalated into one **fleet-wide**
   incident bundle whose manifest carries every worker's flight ring.

Everything is seeded and tick-driven — no wall-clock thresholds —
so the check passes or fails for real reasons.
"""

from __future__ import annotations

import contextlib
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.errors import ServeError
from repro.fleet.config import FleetConfig
from repro.fleet.fleet import Fleet
from repro.serve.config import ServeConfig
from repro.serve.loadgen import (SHAPES, LoadReport, ShapeSpec, drive_load,
                                 make_shape)

__all__ = ["FleetLoadReport", "run_fleet_load", "run_fleet_check",
           "check_fleet_report"]


@dataclass
class FleetLoadReport(LoadReport):
    """Everything a fleet load run measured: the
    :class:`~repro.serve.loadgen.LoadReport` fields
    :func:`~repro.serve.loadgen.drive_load` fills in, plus the fleet
    facts (the ``backend="fleet"`` bench-index row reads straight off
    these fields)."""

    shapes: List[str] = field(default_factory=list)
    workers_start: int = 0
    workers_peak: int = 0
    workers_end: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    routing_skew: float = 0.0
    route_keys: int = 0
    replay_trigger: Optional[str] = None
    replay_reproduced: Optional[bool] = None
    # Distributed-tracing acceptance (populated when the run traced).
    trace_path: Optional[str] = None
    trace_requests: Optional[int] = None
    trace_joined: Optional[int] = None
    trace_problems: List[str] = field(default_factory=list)
    fleet_incidents: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = super().to_dict()
        out.pop("stats", None)
        return out

    def summary(self) -> str:
        lines = [
            f"fleet loadgen: shapes={'+'.join(self.shapes)} "
            f"clients={self.clients} requests={self.requests}",
            *self._traffic_lines(),
            f"  workers {self.workers_start} -> peak {self.workers_peak} "
            f"-> {self.workers_end} "
            f"({self.scale_ups} scale-ups, {self.scale_downs} "
            f"scale-downs)",
            f"  routing: {self.route_keys} keys, skew "
            f"{self.routing_skew:.2f}x mean "
            f"(bound 2.00x)",
            f"  fleet plan-cache hit rate {self.plan_hit_rate * 100:.1f}%",
        ]
        if self.trace_path is not None:
            joined = self.trace_joined or 0
            lines.append(
                f"  trace: {self.trace_requests or 0} requests merged "
                f"({joined} joined across processes) -> {self.trace_path}")
            if self.trace_problems:
                lines.append(
                    f"  trace problems: {self.trace_problems[:3]}")
        if self.fleet_incidents:
            lines.append("  fleet-wide incident bundles:")
            lines.extend(f"    {p}" for p in self.fleet_incidents[:4])
        if self.replay_trigger is not None:
            verdict = "reproduced" if self.replay_reproduced \
                else "NOT reproduced"
            lines.append(
                f"  incident replay: trigger {self.replay_trigger!r} "
                f"{verdict}")
        if self.incidents:
            lines.append("  incident bundles:")
            lines.extend(f"    {p}" for p in self.incidents[:4])
        if self.errors:
            lines.append(f"  first errors: {self.errors[:3]}")
        return "\n".join(lines)


def _new_report(shapes: List[str], clients: int,
                requests_per_client: int) -> FleetLoadReport:
    return FleetLoadReport(shape="+".join(shapes), shapes=shapes,
                           clients=clients,
                           requests=clients * requests_per_client)


def _traffic(shapes: List[str], sizes: List[int],
             seed: int) -> List[ShapeSpec]:
    """One ShapeSpec per (shape, size) — each is a distinct batch key,
    which is what gives the hash ring a population to balance."""
    specs = []
    for name in shapes:
        for n in sizes:
            specs.append(make_shape(name, n, seed))
    return specs


def _fold_stats(report: FleetLoadReport, stats: dict) -> None:
    report.routing_skew = float(stats["ring"]["skew"])
    report.route_keys = int(stats["ring"]["keys"])
    report.scale_ups = int(stats["autoscale"]["ups"])
    report.scale_downs = int(stats["autoscale"]["downs"])
    report.incidents = list(stats["rollup"]["flight"]["incidents"])


def _plan_counts(fleet: Fleet) -> tuple:
    """Fleet-wide cumulative (plan hits, plan misses)."""
    workers = fleet.worker_stats()
    hits = sum(int(s.get("plan_cache.hits", 0)) for s in workers.values())
    misses = sum(int(s.get("plan_cache.misses", 0))
                 for s in workers.values())
    return hits, misses


def _timed_window(fleet: Fleet, specs: List[ShapeSpec],
                  report: FleetLoadReport, *, clients: int,
                  requests_per_client: int, timeout_s: float,
                  prime: bool = True) -> None:
    """Prime every shape, then drive the closed-loop window the report
    measures.  The plan-cache hit rate covers the window only —
    priming populates the caches with deliberate misses, so the
    cumulative rate would punish exactly the warmup the check
    demands."""
    report.workers_start = fleet.n_workers
    if prime:
        for spec in specs:
            fleet.prime(spec.ops, spec.array)
    before = _plan_counts(fleet)
    drive_load(fleet, specs, report, clients=clients,
               requests_per_client=requests_per_client, timeout_s=timeout_s)
    after = _plan_counts(fleet)
    hits = after[0] - before[0]
    planned = hits + (after[1] - before[1])
    report.plan_hit_rate = hits / planned if planned else 1.0


def _check_fleet_trace(report: FleetLoadReport, fleet: Fleet,
                       trace_path: Path) -> None:
    """Dump the merged fleet trace and fold the distributed-tracing
    acceptance evidence into ``report``: the document must validate,
    worker ``serve.request`` roots must join router requests through
    the propagated trace ids, and the cross-process critical path
    must tile each request wall within the analyzer's 2% tolerance."""
    from repro.obs import analyze as obs_analyze
    from repro.obs.export import validate_chrome_trace

    doc = fleet.dump_trace(path=trace_path)
    report.trace_path = str(trace_path)
    try:
        validate_chrome_trace(doc)
    except Exception as exc:
        report.trace_problems.append(
            f"merged trace failed validation: {exc}")
        return
    analysis = obs_analyze.analyze(str(trace_path))
    requests = analysis.get("fleet_requests") or []
    report.trace_requests = len(requests)
    report.trace_joined = sum(
        1 for r in requests if r.get("worker_detail"))
    report.trace_problems.extend(obs_analyze.check_report(analysis))


def _check_fleet_bundle(report: FleetLoadReport, fleet: Fleet) -> None:
    """The chaos phase's worker incidents must have escalated into one
    fleet-wide bundle gathering every live worker's flight ring, and
    that bundle must still be replayable (``loadgen.profile`` intact)."""
    from repro.fleet.replay import load_bundle, plan_replay

    # The gather runs on a collector-side thread; give it a moment.
    deadline = time.monotonic() + 10.0
    while not fleet.fleet_incidents and time.monotonic() < deadline:
        time.sleep(0.05)
    report.fleet_incidents = [str(p) for p in fleet.fleet_incidents]
    if not report.fleet_incidents:
        report.trace_problems.append(
            "worker incidents never escalated into a fleet-wide bundle")
        return
    try:
        manifest = load_bundle(report.fleet_incidents[0])
    except Exception as exc:
        report.trace_problems.append(
            f"fleet incident bundle unreadable: {exc}")
        return
    workers = (manifest.get("context") or {}).get("workers") or {}
    missing = [w for w in fleet.worker_ids if w not in workers]
    if missing:
        report.trace_problems.append(
            f"fleet bundle missing flight rings for {missing}")
    try:
        plan_replay(manifest)
    except Exception as exc:
        report.trace_problems.append(
            f"fleet bundle is not replayable: {exc}")


def run_fleet_load(
    *,
    shapes: Optional[List[str]] = None,
    sizes: Optional[List[int]] = None,
    clients: int = 8,
    requests_per_client: int = 12,
    fleet_config: Optional[FleetConfig] = None,
    ds_config=None,
    seed: int = 1234,
    timeout_s: float = 60.0,
    prime: bool = True,
    collect_stats: bool = False,
    trace_out: Optional[str] = None,
) -> FleetLoadReport:
    """Drive a fresh fleet with closed-loop multi-shape traffic and
    return the populated :class:`FleetLoadReport`.

    When the fleet config enables tracing and ``trace_out`` is given,
    the merged clock-aligned Chrome trace is dumped there before the
    fleet closes.
    """
    shapes = list(shapes) if shapes else sorted(SHAPES)
    sizes = list(sizes) if sizes else [256, 384, 512, 640]
    cfg = fleet_config if fleet_config is not None else FleetConfig()
    specs = _traffic(shapes, sizes, seed)
    report = _new_report(shapes, clients, requests_per_client)
    with Fleet(cfg, ds_config=ds_config) as fleet:
        _timed_window(fleet, specs, report, clients=clients,
                      requests_per_client=requests_per_client,
                      timeout_s=timeout_s, prime=prime)
        report.workers_peak = max(report.workers_start, fleet.n_workers)
        report.workers_end = fleet.n_workers
        stats = fleet.stats()
        _fold_stats(report, stats)
        if collect_stats:
            report.stats = stats
        if trace_out is not None and fleet.tracing:
            _check_fleet_trace(report, fleet, Path(trace_out))
    return report


def run_fleet_check(
    *,
    n_workers: int = 3,
    clients: int = 8,
    requests_per_client: int = 10,
    fault: object = "always",
    seed: int = 1234,
    timeout_s: float = 60.0,
    incident_dir: Optional[str] = None,
    collect_stats: bool = False,
    trace_out: Optional[str] = None,
) -> FleetLoadReport:
    """The five-phase deterministic acceptance run (module docstring).

    Returns the report; :func:`check_fleet_report` asserts it.
    ``trace_out`` overrides where the phase-5 merged trace lands
    (default: ``fleet-trace.json`` inside the incident dir).
    """
    shapes = sorted(SHAPES)
    sizes = [256, 320, 384, 448, 512, 576, 640, 704]  # 5 shapes x 8 = 40 keys
    own_dir = incident_dir is None
    tmp = tempfile.TemporaryDirectory(prefix="repro-fleet-") if own_dir \
        else None
    incident_root = Path(tmp.name if own_dir else incident_dir)
    cfg = FleetConfig(
        n_workers=n_workers, min_workers=1, max_workers=n_workers + 1,
        queue_high=2, queue_low=1, up_after=1, down_after=2,
        cooldown_ticks=0, tick_interval_s=0.0,
        incident_dir=str(incident_root),
        trace="full",
        serve=ServeConfig(
            max_batch_size=8, max_wait_ms=1.0, breaker_threshold=2,
            breaker_cooldown_ms=50.0, incident_cooldown_ms=0.0,
            seed=seed),
    )
    specs = _traffic(shapes, sizes, seed)
    report = _new_report(shapes, clients, requests_per_client)
    try:
        with Fleet(cfg) as fleet:
            # Phase 1: healthy traffic (correctness, skew, hit rate).
            _timed_window(fleet, specs, report, clients=clients,
                          requests_per_client=requests_per_client,
                          timeout_s=timeout_s)
            if report.failed:
                report.errors.append(
                    f"{report.failed} requests failed during the "
                    f"healthy phase")

            # Phase 2: sustained backlog -> the autoscaler must grow.
            # queue_high=2/up_after=1 means one pressured observation
            # is enough; we fabricate pressure deterministically by
            # submitting a burst and ticking while it is queued.
            grew = False
            burst_spec = specs[0]
            for _ in range(6):
                futures = [fleet.submit_chain(burst_spec.ops,
                                              burst_spec.array)
                           for _ in range(cfg.queue_high
                                          * (fleet.n_workers + 1) * 4)]
                decision = fleet.autoscale_tick()
                for fut in futures:
                    fut.result(timeout=timeout_s)
                if decision == "up":
                    grew = True
                    break
            report.workers_peak = max(report.workers_start,
                                      fleet.n_workers)

            # Phase 3: idle ticks -> it must drain back down.
            shrank = False
            for _ in range(cfg.down_after * 4):
                if fleet.autoscale_tick() == "down":
                    shrank = True
                    break
            report.workers_end = fleet.n_workers

            # Phase 4: chaos -> breaker opens -> incident bundle.
            # The profile goes into the workers' flight rings first, so
            # the bundles they are about to dump are replayable.
            incident_spec = specs[1]
            fleet.record_profile(
                shape=incident_spec.name,
                n=int(incident_spec.array.size), clients=4,
                requests_per_client=6, seed=seed,
                fault="always" if fault == "always" else float(fault),
                deadline_ms=None, prime=True)
            fleet.set_fault(fault)
            for _ in range(cfg.serve.breaker_threshold * 3):
                # A failed probe is fine: its job is to trip the breaker.
                with contextlib.suppress(ServeError):
                    fleet.submit_chain(
                        incident_spec.ops,
                        incident_spec.array).result(timeout=timeout_s)
            fleet.set_fault(None)

            # Phase 5: distributed-tracing acceptance — merged trace,
            # cross-process critical path, fleet-wide incident bundle.
            _check_fleet_bundle(report, fleet)
            _check_fleet_trace(
                report, fleet,
                Path(trace_out) if trace_out is not None
                else incident_root / "fleet-trace.json")

            stats = fleet.stats()
            _fold_stats(report, stats)
            if collect_stats:
                report.stats = stats
            if not grew:
                report.errors.append(
                    "autoscaler never scaled up under backlog")
            if not shrank:
                report.errors.append(
                    "autoscaler never scaled down when idle")

        # Phase 4b (fleet closed; workers flushed their bundles):
        # replay the first incident bundle and demand the same trigger.
        from repro.fleet.replay import run_replay

        bundles = sorted(incident_root.glob("*/incident-*"))
        if not bundles:
            report.errors.append(
                "chaos phase produced no incident bundle")
        else:
            report.incidents = [str(b) for b in bundles]
            verdict = run_replay(bundles[0],
                                 incident_dir=incident_root / "replay")
            report.replay_trigger = verdict["trigger"]
            report.replay_reproduced = verdict["reproduced"]
    finally:
        if tmp is not None:
            tmp.cleanup()
    return report


def check_fleet_report(report: FleetLoadReport) -> None:
    """Assert the ``fleet --check`` acceptance bar; raises
    :class:`~repro.errors.ServeError` listing every failure."""
    problems = [e for e in report.errors
                if "autoscaler" in e or "incident" in e
                or "healthy phase" in e]
    if report.wrong:
        problems.append(f"{report.wrong} responses had wrong outputs")
    if report.routing_skew > 2.0:
        problems.append(
            f"routing skew {report.routing_skew:.2f}x mean exceeds the "
            f"2x bound")
    if report.route_keys < 40:
        problems.append(
            f"only {report.route_keys} distinct route keys (need >= 40 "
            f"for a meaningful skew bound)")
    if report.plan_hit_rate <= 0.90:
        problems.append(
            f"aggregate plan-cache hit rate "
            f"{report.plan_hit_rate * 100:.1f}% <= 90% after warmup")
    if report.scale_ups < 1:
        problems.append("autoscaler was never observed growing the pool")
    if report.scale_downs < 1:
        problems.append("autoscaler was never observed draining a worker")
    if report.replay_reproduced is not True:
        problems.append(
            f"incident replay did not re-trigger "
            f"{report.replay_trigger!r}")
    if report.trace_path is not None:
        if not report.trace_requests:
            problems.append(
                "merged fleet trace carries no router request spans")
        elif not report.trace_joined:
            problems.append(
                "no worker span joined a router request — trace-context "
                "propagation broke")
        problems.extend(report.trace_problems)
    if problems:
        raise ServeError("fleet acceptance failed: "
                         + "; ".join(problems))
