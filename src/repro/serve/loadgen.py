"""Closed-loop load generation for the serve and fleet front doors.

:func:`drive_load` is the one closed-loop client loop: *C* threads,
each submitting ``requests_per_client`` requests round-robin over a
list of :class:`ShapeSpec` traffic shapes (submit → wait → verify →
repeat), so offered concurrency is exactly *C* and the batcher sees
realistic arrival bursts.  It drives any front door with
``submit_chain(ops, values, deadline_ms=)`` — :func:`run_load` points
it at a fresh :class:`repro.serve.Server`, :mod:`repro.fleet.loadgen`
at a :class:`repro.fleet.Fleet`.  Every response is checked against
the NumPy reference semantics — a serving layer that batches, retries,
sheds or degrades is only interesting if it stays *correct* under all
of that, so correctness is part of the report, not a separate test.

Fault injection (``fault="always"`` or a 0..1 rate) installs a
:class:`MutableFaultInjector` that raises transient
:class:`~repro.errors.LaunchError` from the server's fast path, driving
the retry/breaker/degradation machinery; the acceptance bar is that
every request still completes with the right bytes.

:func:`overhead_check` is the recorder-on overhead guard behind
``--flight-overhead-check`` here and ``repro fleet
--trace-overhead-check``.

Run it directly::

    PYTHONPATH=src python -m repro.serve.loadgen --shape chain --clients 4

or through the CLI front end ``python -m repro serve``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.config import DSConfig
from repro.core.predicates import less_than
from repro.errors import DeadlineExceeded, LaunchError, Overloaded, \
    ServeError
from repro.primitives.common import DEFAULT_DEVICE
from repro.reference import partition_ref, remove_if_ref, unique_ref
from repro.serve.config import ServeConfig
from repro.serve.server import Server

__all__ = ["LoadReport", "ShapeSpec", "SHAPES", "make_shape",
           "MutableFaultInjector", "drive_load", "run_load",
           "check_report", "overhead_check", "main"]


@dataclass(frozen=True)
class ShapeSpec:
    """One traffic shape: an op chain, its fixed input and the expected
    output (computed once from the reference semantics)."""

    name: str
    ops: tuple
    array: np.ndarray
    expected: np.ndarray


def _shape_compact(rng: np.random.Generator, n: int) -> ShapeSpec:
    x = rng.integers(0, 4, n).astype(np.float64)
    return ShapeSpec("compact", (("compact", 0.0),), x,
                     x[x != 0.0].copy())


def _shape_unique(rng: np.random.Generator, n: int) -> ShapeSpec:
    x = np.repeat(rng.integers(0, 50, (n + 3) // 4), 4)[:n].astype(np.float64)
    return ShapeSpec("unique", ("unique",), x, unique_ref(x))


def _shape_remove_if(rng: np.random.Generator, n: int) -> ShapeSpec:
    x = rng.random(n)
    pred = less_than(0.5)
    return ShapeSpec("remove_if", (("remove_if", pred),), x,
                     remove_if_ref(x, pred))


def _shape_partition(rng: np.random.Generator, n: int) -> ShapeSpec:
    x = rng.random(n)
    pred = less_than(0.5)
    out, _ = partition_ref(x, pred)
    return ShapeSpec("partition", (("partition", pred),), x, out)


def _shape_chain(rng: np.random.Generator, n: int) -> ShapeSpec:
    x = rng.integers(0, 4, n).astype(np.float64)
    return ShapeSpec("chain", (("compact", 0.0), "unique"), x,
                     unique_ref(x[x != 0.0]))


SHAPES = {
    "compact": _shape_compact,
    "unique": _shape_unique,
    "remove_if": _shape_remove_if,
    "partition": _shape_partition,
    "chain": _shape_chain,
}


def make_shape(name: str, n: int, seed: int = 1234) -> ShapeSpec:
    """Build the named traffic shape over an ``n``-element input."""
    try:
        builder = SHAPES[name]
    except KeyError:
        raise ServeError(
            f"unknown load shape {name!r} (choose from "
            f"{', '.join(sorted(SHAPES))})") from None
    return builder(np.random.default_rng(seed), n)


class MutableFaultInjector:
    """Server ``fault_hook`` raising a transient LaunchError per batch:
    ``mode`` is ``None`` (healthy), ``"always"`` or a 0..1 per-batch
    probability (deterministic given the seed).  A fleet worker flips
    ``mode`` at runtime on a ``("fault", ...)`` control message."""

    def __init__(self, mode=None, seed: int = 0) -> None:
        self.mode = mode
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self.injected = 0

    def __call__(self, batch) -> None:
        with self._lock:
            mode = self.mode
            if mode is None:
                return
            if mode == "always":
                hit = True
            else:
                hit = bool(self._rng.random() < float(mode))
            if hit:
                self.injected += 1
                count = self.injected
        if hit:
            raise LaunchError(f"injected fault #{count} (chaos hook)")


@dataclass
class LoadReport:
    """Everything ``run_load`` measured, ready for the CLI/bench."""

    shape: str
    clients: int
    requests: int
    completed: int = 0
    wrong: int = 0
    failed: int = 0
    expired: int = 0
    shed_retries: int = 0
    degraded: int = 0
    retries: int = 0
    faults_injected: int = 0
    slo_breaches: int = 0
    wall_s: float = 0.0
    throughput_rps: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_mean_ms: float = 0.0
    batches: int = 0
    batch_size_mean: float = 0.0
    batch_size_max: float = 0.0
    plan_hits: int = 0
    plan_misses: int = 0
    plan_hit_rate: float = 0.0
    errors: List[str] = field(default_factory=list)
    incidents: List[str] = field(default_factory=list)
    stats: Optional[Dict] = None

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["errors"] = list(self.errors[:5])
        return out

    def _traffic_lines(self) -> List[str]:
        """The summary lines :func:`drive_load` fills in."""
        return [
            f"  completed {self.completed} ({self.wrong} wrong, "
            f"{self.failed} failed, {self.expired} expired, "
            f"{self.shed_retries} shed-then-retried)",
            f"  throughput {self.throughput_rps:.1f} req/s over "
            f"{self.wall_s * 1e3:.1f} ms",
            f"  latency p50 {self.latency_p50_ms:.2f} ms, "
            f"p95 {self.latency_p95_ms:.2f} ms, "
            f"p99 {self.latency_p99_ms:.2f} ms, "
            f"mean {self.latency_mean_ms:.2f} ms",
        ]

    def summary(self) -> str:
        lines = [
            f"serve loadgen: shape={self.shape} clients={self.clients} "
            f"requests={self.requests}",
            *self._traffic_lines(),
            f"  batches {self.batches} (mean size "
            f"{self.batch_size_mean:.2f}, max {self.batch_size_max:.0f})",
            f"  plan cache {self.plan_hits} hits / {self.plan_misses} "
            f"misses (hit rate {self.plan_hit_rate * 100:.1f}%)",
            f"  robustness: {self.retries} retries, {self.degraded} "
            f"degraded, {self.faults_injected} faults injected",
        ]
        if self.slo_breaches:
            lines.append(f"  SLO breaches: {self.slo_breaches}")
        if self.incidents:
            lines.append("  incident bundles:")
            lines.extend(f"    {p}" for p in self.incidents)
        if self.errors:
            lines.append(f"  first errors: {self.errors[:3]}")
        return "\n".join(lines)


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1,
              int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def drive_load(front, specs: Sequence[ShapeSpec], report: LoadReport, *,
               clients: int, requests_per_client: int,
               timeout_s: float = 60.0,
               deadline_ms: Optional[float] = None,
               shed_backoff_s: float = 0.0) -> None:
    """Drive ``front`` (anything with ``submit_chain(ops, values,
    deadline_ms=)``) with closed-loop clients and fold the outcome
    into ``report``.

    Client *c*'s *k*-th request uses ``specs[(c + k) % len(specs)]``.
    A submit shed with :class:`~repro.errors.Overloaded` is retried
    after ``shed_backoff_s``; an expired deadline counts as
    ``expired``, any other error as ``failed``.  ``wall_s``, the
    latency percentiles and ``throughput_rps`` cover this window only.
    """
    latencies: List[float] = []
    lock = threading.Lock()

    def client(cid: int) -> None:
        for k in range(requests_per_client):
            spec = specs[(cid + k) % len(specs)]
            t0 = time.perf_counter()
            try:
                while True:
                    try:
                        fut = front.submit_chain(spec.ops, spec.array,
                                                 deadline_ms=deadline_ms)
                        break
                    except Overloaded:
                        with lock:
                            report.shed_retries += 1
                        time.sleep(shed_backoff_s)
                result = fut.result(timeout=timeout_s)
            except DeadlineExceeded:
                with lock:
                    report.expired += 1
                continue
            except Exception as exc:
                with lock:
                    report.failed += 1
                    report.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            ok = np.array_equal(np.asarray(result.output), spec.expected)
            with lock:
                report.completed += 1
                latencies.append(elapsed_ms)
                if not ok:
                    report.wrong += 1
                    report.errors.append(
                        f"client {cid}: wrong output for "
                        f"{spec.name}/n={spec.array.size}")

    threads = [threading.Thread(target=client, args=(i,),
                                name=f"loadgen-client-{i}")
               for i in range(clients)]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report.wall_s = time.perf_counter() - t_start
    latencies.sort()
    report.latency_p50_ms = _percentile(latencies, 0.50)
    report.latency_p95_ms = _percentile(latencies, 0.95)
    report.latency_p99_ms = _percentile(latencies, 0.99)
    report.latency_mean_ms = (sum(latencies) / len(latencies)
                              if latencies else 0.0)
    report.throughput_rps = (report.completed / report.wall_s
                             if report.wall_s > 0 else 0.0)


def run_load(
    *,
    shape: str = "chain",
    clients: int = 4,
    requests_per_client: int = 25,
    n: int = 512,
    serve_config: Optional[ServeConfig] = None,
    ds_config: Optional[DSConfig] = None,
    device=DEFAULT_DEVICE,
    fault=None,
    prime: bool = True,
    deadline_ms: Optional[float] = None,
    seed: int = 1234,
    timeout_s: float = 60.0,
    collect_stats: bool = False,
    tuning_db=None,
) -> LoadReport:
    """Drive a fresh :class:`Server` with closed-loop clients.

    Parameters mirror the CLI flags; ``fault`` is ``None`` (healthy),
    ``"always"`` (every fast-path batch fails → breaker opens →
    degradation serves everything) or a 0..1 per-batch probability.
    ``collect_stats=True`` snapshots :meth:`Server.stats` into
    ``report.stats`` before shutdown.  ``tuning_db`` (a
    :class:`~repro.tune.db.TuningDB`) hands the server persisted
    autotuner winners; the prime step then warms from it
    (``tuned=True``) and stats are always collected so the report shows
    which tuned knobs were active.  Returns a fully populated
    :class:`LoadReport`.

    The whole run executes inside ``metrics.scoped("serve.")``, so
    back-to-back runs against a shared registry (the active tracer's)
    each start their ``serve.*`` instruments from zero and leave the
    registry as they found it — no counter bleed between runs.
    """
    spec = make_shape(shape, n, seed)
    cfg = serve_config if serve_config is not None else ServeConfig()
    injector = (MutableFaultInjector(fault, seed)
                if fault is not None else None)
    if tuning_db is not None:
        collect_stats = True
    server = Server(cfg, ds_config=ds_config, device=device,
                    fault_hook=injector, tuning_db=tuning_db,
                    autostart=False)
    if server.flight is not None:
        # The replay contract: every incident bundle this run dumps
        # carries the full traffic profile in its manifest events, so
        # ``python -m repro replay <bundle>`` can regenerate the exact
        # load (shape, concurrency, seed, fault schedule) that tripped
        # the trigger.
        server.flight.record_event(
            "loadgen.profile", shape=shape, n=n, clients=clients,
            requests_per_client=requests_per_client, seed=seed,
            fault=None if fault is None else str(fault),
            deadline_ms=deadline_ms, prime=prime)
    report = LoadReport(shape=shape, clients=clients,
                        requests=clients * requests_per_client)
    with server.metrics.scoped("serve."):
        _serve_load(server, spec, report,
                    clients=clients,
                    requests_per_client=requests_per_client,
                    ds_config=ds_config, prime=prime,
                    deadline_ms=deadline_ms, timeout_s=timeout_s,
                    collect_stats=collect_stats)
    if injector is not None:
        report.faults_injected = injector.injected
    return report


def _serve_load(server: Server, spec: ShapeSpec, report: LoadReport, *,
                clients: int, requests_per_client: int, ds_config,
                prime: bool, deadline_ms: Optional[float],
                timeout_s: float, collect_stats: bool) -> None:
    """The body of :func:`run_load`, run inside the scoped registry."""
    if prime:
        server.prime(spec.ops, spec.array, config=ds_config,
                     tuned=server.tuning_db is not None)
    hits0, misses0 = server.plan_cache.stats()
    server.start()
    drive_load(server, [spec], report, clients=clients,
               requests_per_client=requests_per_client, timeout_s=timeout_s,
               deadline_ms=deadline_ms,
               shed_backoff_s=server.config.max_wait_ms / 1000.0)
    if collect_stats:
        report.stats = server.stats()
    server.close(drain=True)

    # -- fold in the server-side metrics --------------------------------
    hits1, misses1 = server.plan_cache.stats()
    report.plan_hits = hits1 - hits0
    report.plan_misses = misses1 - misses0
    planned = report.plan_hits + report.plan_misses
    report.plan_hit_rate = report.plan_hits / planned if planned else 1.0

    metrics = server.metrics
    batch_hist = metrics.get("serve.batch_size")
    if batch_hist is not None:
        report.batches = batch_hist.count
        report.batch_size_mean = batch_hist.mean
        report.batch_size_max = batch_hist.max or 0.0
    for attr, name in (("degraded", "serve.degraded"),
                       ("retries", "serve.retries"),
                       ("slo_breaches", "serve.slo_breaches")):
        counter = metrics.get(name)
        setattr(report, attr, counter.value if counter is not None else 0)
    if server.flight is not None:
        report.incidents = [str(p) for p in server.flight.dumps]


def check_report(report: LoadReport, *, faulted: bool = False) -> None:
    """Assert the acceptance bar on a loadgen run; raises
    :class:`~repro.errors.ServeError` with the failures listed.

    ``faulted=True`` means the fast path was *forced* to fail
    (``fault="always"``), so the run must have served through
    degradation; plan-cache expectations are waived for it."""
    problems = []
    if report.completed != report.requests:
        problems.append(
            f"completed {report.completed}/{report.requests} requests "
            f"({report.failed} failed, {report.expired} expired)")
    if report.wrong:
        problems.append(f"{report.wrong} responses had wrong outputs")
    if report.batch_size_max < 2:
        problems.append(
            f"no multi-request batches formed (max batch size "
            f"{report.batch_size_max:.0f}); batching is not engaging")
    if faulted:
        if report.degraded <= 0:
            problems.append("fault-injected run never degraded "
                            "(serve.degraded == 0)")
    elif report.plan_hit_rate <= 0.90:
        problems.append(
            f"plan-cache hit rate {report.plan_hit_rate * 100:.1f}% "
            f"<= 90% after warmup")
    if problems:
        raise ServeError("loadgen acceptance failed: "
                         + "; ".join(problems))


OVERHEAD_ROUNDS = 6
OVERHEAD_BOUND = 0.90


def overhead_check(run: Callable[[bool], LoadReport]) -> dict:
    """The recorder-on overhead guard: throughput with the recorder on
    must hold :data:`OVERHEAD_BOUND` of throughput with it off.

    ``run(on)`` performs one complete load run with the recorder off
    (``False``) or on (``True``) and returns its :class:`LoadReport`.
    One warmup run (off, discarded) comes first, then
    :data:`OVERHEAD_ROUNDS` interleaved off/on pairs.  Shared CI boxes
    stall for whole seconds at a time, which swings any single
    throughput sample by more than the recorder ever could, so the
    guard passes when the best matched pair reaches the bound — the
    recorder demonstrably kept up in at least one clean comparison.  A
    real regression drags every pair down.  (The best pair ratio is
    never below the ratio of per-mode bests: the pair holding the best
    on-run has an off-run no faster than the best off-run.)

    Returns the measurements; raises :class:`~repro.errors.ServeError`
    when a measured run had a failed or wrong request, or when no pair
    reaches the bound.
    """
    run(False)
    rps: Dict[bool, List[float]] = {False: [], True: []}
    for _ in range(OVERHEAD_ROUNDS):
        for on in (False, True):
            report = run(on)
            if report.failed or report.wrong:
                raise ServeError(
                    f"overhead check: a recorder-{'on' if on else 'off'} "
                    f"run had {report.failed} failed and {report.wrong} "
                    f"wrong requests")
            rps[on].append(report.throughput_rps)
    pair_ratios = [on / off if off > 0 else 1.0
                   for off, on in zip(rps[False], rps[True])]
    result = {"throughput_off_rps": [round(x, 2) for x in rps[False]],
              "throughput_on_rps": [round(x, 2) for x in rps[True]],
              "pair_ratios": [round(x, 4) for x in pair_ratios],
              "ratio": round(max(pair_ratios), 4),
              "bound": OVERHEAD_BOUND, "rounds": OVERHEAD_ROUNDS}
    if max(pair_ratios) < OVERHEAD_BOUND:
        raise ServeError(
            f"recorder overhead check failed: best on/off pair ratio "
            f"{max(pair_ratios):.3f} < {OVERHEAD_BOUND:.2f} (off "
            f"{result['throughput_off_rps']} req/s, on "
            f"{result['throughput_on_rps']} req/s)")
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.serve.loadgen",
        description="Closed-loop load generator for the repro serve layer.")
    parser.add_argument("--shape", default="chain",
                        choices=sorted(SHAPES),
                        help="traffic shape (op chain) to generate")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent closed-loop clients")
    parser.add_argument("--requests", type=int, default=25,
                        help="requests per client")
    parser.add_argument("--n", type=int, default=512,
                        help="input array length")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="override ServeConfig.max_batch_size")
    parser.add_argument("--wait-ms", type=float, default=None,
                        help="override ServeConfig.max_wait_ms")
    parser.add_argument("--workers", type=int, default=None,
                        help="override ServeConfig.num_workers")
    parser.add_argument("--queue-depth", type=int, default=None,
                        help="override ServeConfig.max_queue_depth")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request deadline")
    parser.add_argument("--slo-ms", type=float, default=None,
                        help="latency objective; slower completions fire "
                             "the slo_breach incident trigger")
    parser.add_argument("--fault", default=None,
                        help="'always' or a 0..1 per-batch fault rate")
    parser.add_argument("--incident-dir", default=None,
                        help="write flight-recorder incident bundles here "
                             "on breaker-open/deadline/launch-error/SLO "
                             "triggers")
    parser.add_argument("--event-log", default=None,
                        help="append every flight-recorder event to "
                             "this JSONL file")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--tuning-db", default=None,
                        help="warm the server from this autotuner DB "
                             "(Server.prime(tuned=True)); active tuned "
                             "knobs show up under stats['tuned']")
    parser.add_argument("--no-prime", action="store_true",
                        help="skip plan-cache pre-warming")
    parser.add_argument("--check", action="store_true",
                        help="assert the acceptance bar on the report")
    parser.add_argument("--stats", action="store_true",
                        help="print the live Server.stats() snapshot "
                             "(queue depth, latency percentiles, cache "
                             "hit rates, breaker + flight state)")
    parser.add_argument("--flight-overhead-check", action="store_true",
                        help="run the load with the flight recorder off "
                             "and on (a warmup, then 6 interleaved "
                             "pairs) and assert the recorded throughput "
                             "holds 0.9x of the baseline")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    return parser


def _config_from_args(args) -> ServeConfig:
    cfg = ServeConfig.from_env()
    overrides = {}
    if args.batch_size is not None:
        overrides["max_batch_size"] = args.batch_size
    if args.wait_ms is not None:
        overrides["max_wait_ms"] = args.wait_ms
    if args.workers is not None:
        overrides["num_workers"] = args.workers
    if args.queue_depth is not None:
        overrides["max_queue_depth"] = args.queue_depth
    if args.slo_ms is not None:
        overrides["slo_ms"] = args.slo_ms
    if args.incident_dir is not None:
        overrides["incident_dir"] = args.incident_dir
    if args.event_log is not None:
        overrides["event_log"] = args.event_log
    return cfg.replace(**overrides) if overrides else cfg


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    fault = args.fault
    if fault is not None and fault != "always":
        fault = float(fault)
    if args.flight_overhead_check:
        cfg = _config_from_args(args)
        capacity = cfg.flight_capacity or 4096
        result = overhead_check(lambda on: run_load(
            shape=args.shape, clients=args.clients,
            requests_per_client=args.requests, n=args.n,
            serve_config=(cfg.replace(flight_capacity=capacity) if on else
                          cfg.replace(flight_capacity=0, event_log=None)),
            fault=fault, prime=not args.no_prime,
            deadline_ms=args.deadline_ms, seed=args.seed))
        print(json.dumps(result, indent=2, sort_keys=True))
        print(f"flight recorder overhead: ratio {result['ratio']:.3f} "
              f">= {result['bound']:.2f}: OK")
        return 0
    tuning_db = None
    if args.tuning_db is not None:
        from repro.tune.db import TuningDB

        tuning_db = TuningDB.load(args.tuning_db)
    report = run_load(
        shape=args.shape, clients=args.clients,
        requests_per_client=args.requests, n=args.n,
        serve_config=_config_from_args(args),
        fault=fault, prime=not args.no_prime,
        deadline_ms=args.deadline_ms, seed=args.seed,
        collect_stats=args.stats, tuning_db=tuning_db)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
        if report.stats is not None and (report.stats.get("tuned")
                                         or tuning_db is not None):
            print("tuned knobs active: "
                  + json.dumps(report.stats.get("tuned", {}),
                               sort_keys=True))
        if args.stats and report.stats is not None:
            print("server stats:")
            print(json.dumps(report.stats, indent=2, sort_keys=True))
    if args.check:
        if tuning_db is not None and len(tuning_db):
            from repro.tune.db import kernel_key

            spec = make_shape(args.shape, args.n, args.seed)
            if kernel_key(spec.ops, spec.array) in tuning_db and not (
                    report.stats or {}).get("tuned"):
                raise ServeError(
                    "loadgen acceptance failed: tuning DB has a matching "
                    "kernel entry but stats['tuned'] is empty — tuned "
                    "knobs never activated")
        # Only a forced-failure run ("always") is guaranteed to
        # degrade; at a partial fault rate retries may absorb every
        # fault, which is a pass, not a miss.
        check_report(report, faulted=fault == "always")
        if fault is not None and fault != "always":
            if report.retries + report.degraded <= 0 < report.faults_injected:
                raise ServeError(
                    "loadgen acceptance failed: faults were injected "
                    "but neither retries nor degradation engaged")
        print("loadgen acceptance: OK")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
