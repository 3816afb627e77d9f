"""CLI front ends: ``python -m repro fleet`` and ``python -m repro
replay``.

``fleet`` drives the multi-process serve cluster — either a plain load
run (``--shapes/--clients/...``, optionally traced via
``--trace/--trace-out``) or the five-phase deterministic acceptance
pass (``--check``: correctness, routing-skew bound, plan-cache hit
rate, autoscaler grow + drain, incident replay, and the
distributed-tracing bar — merged clock-aligned trace + fleet-wide
incident bundle). ``replay <bundle>`` feeds one flight-recorder
incident bundle back through the load generator and reports whether
the same trigger fired again. :func:`trace_fleet` backs
``python -m repro trace --fleet``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.serve.loadgen import SHAPES

__all__ = ["main", "replay_main", "build_parser", "build_replay_parser",
           "trace_fleet"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="Multi-process serve cluster with consistent-hash "
                    "plan routing, autoscaling and incident replay.")
    parser.add_argument("--workers", type=int, default=None,
                        help="initial worker processes "
                             "(default: FleetConfig/REPRO_FLEET_WORKERS)")
    parser.add_argument("--shapes", default=None,
                        help="comma-separated traffic shapes "
                             f"(default: all of {','.join(sorted(SHAPES))})")
    parser.add_argument("--sizes", default=None,
                        help="comma-separated input sizes "
                             "(default: 256,384,512,640)")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent closed-loop clients")
    parser.add_argument("--requests", type=int, default=12,
                        help="requests per client")
    parser.add_argument("--fault", default="always",
                        help="chaos mode for the --check incident phase "
                             "('always' or a 0..1 rate)")
    parser.add_argument("--incident-dir", default=None,
                        help="keep --check incident bundles here instead "
                             "of a temp directory")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--no-prime", action="store_true",
                        help="skip routing-aware plan-cache pre-warming")
    parser.add_argument("--check", action="store_true",
                        help="run the 5-phase acceptance pass and assert "
                             "its bar (skew <= 2x, hit rate > 90%%, "
                             "autoscaler grows AND drains, incident "
                             "replay re-triggers, merged trace joins "
                             "router and worker spans within 2%%)")
    parser.add_argument("--trace", choices=["off", "spans", "full"],
                        default=None,
                        help="distributed-tracing mode for a plain load "
                             "run (--check always runs 'full')")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="dump the merged clock-aligned Chrome trace "
                             "here before the fleet closes (implies "
                             "--trace full unless --trace is given)")
    parser.add_argument("--trace-overhead-check", action="store_true",
                        help="run the load with tracing off and on (a "
                             "warmup, then 6 interleaved pairs) and fail "
                             "unless traced throughput stays >= 0.9x of "
                             "untraced")
    parser.add_argument("--stats", action="store_true",
                        help="print the full fleet stats snapshot "
                             "(per-worker + rollup + ring + autoscaler)")
    parser.add_argument("--stats-out", default=None, metavar="PATH",
                        help="write the fleet-stats snapshot as JSON "
                             "(render it with python -m repro analyze "
                             "PATH)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.fleet.config import FleetConfig
    from repro.fleet.loadgen import (check_fleet_report, run_fleet_check,
                                     run_fleet_load)

    args = build_parser().parse_args(argv)
    fault = args.fault
    if fault is not None and fault != "always":
        fault = float(fault)
    collect = args.stats or args.stats_out is not None
    if args.trace_overhead_check:
        return _trace_overhead_check(args)
    if args.check:
        kwargs = {}
        if args.workers is not None:
            kwargs["n_workers"] = args.workers
        report = run_fleet_check(
            clients=args.clients, requests_per_client=args.requests,
            fault=fault, seed=args.seed,
            incident_dir=args.incident_dir,
            collect_stats=collect, trace_out=args.trace_out, **kwargs)
    else:
        cfg = FleetConfig.from_env()
        if args.workers is not None:
            cfg = cfg.replace(n_workers=args.workers,
                              max_workers=max(cfg.max_workers,
                                              args.workers))
        if args.trace is not None:
            cfg = cfg.replace(trace=args.trace)
        elif args.trace_out is not None:
            cfg = cfg.replace(trace="full")
        report = run_fleet_load(
            shapes=args.shapes.split(",") if args.shapes else None,
            sizes=[int(s) for s in args.sizes.split(",")]
            if args.sizes else None,
            clients=args.clients, requests_per_client=args.requests,
            fleet_config=cfg, seed=args.seed, prime=not args.no_prime,
            collect_stats=collect, trace_out=args.trace_out)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True,
                         default=str))
    else:
        print(report.summary())
    if args.stats and report.stats is not None:
        print("fleet stats:")
        print(json.dumps(report.stats, indent=2, sort_keys=True,
                         default=str))
    if args.stats_out and report.stats is not None:
        from pathlib import Path

        Path(args.stats_out).write_text(
            json.dumps(report.stats, indent=1, sort_keys=True,
                       default=str) + "\n")
        print(f"wrote {args.stats_out} "
              f"(render: python -m repro analyze {args.stats_out})")
    if args.check:
        check_fleet_report(report)
        print("fleet acceptance: OK")
    return 0


def _trace_overhead_check(args) -> int:
    """The recorder-on overhead guard
    (:func:`repro.serve.loadgen.overhead_check`) over fleet load runs
    with tracing off and on.  Measures ``spans`` mode — the
    distributed-tracing machinery itself (context propagation, flight
    rings, router span synthesis) — unless ``--trace full`` asks for
    the instant-event firehose too."""
    from repro.errors import ServeError
    from repro.fleet.config import FleetConfig
    from repro.fleet.loadgen import run_fleet_load
    from repro.serve.loadgen import overhead_check

    cfg = FleetConfig.from_env()
    if args.workers is not None:
        cfg = cfg.replace(n_workers=args.workers,
                          max_workers=max(cfg.max_workers, args.workers))
    shapes = args.shapes.split(",") if args.shapes else None
    sizes = ([int(s) for s in args.sizes.split(",")]
             if args.sizes else None)
    traced_mode = args.trace if args.trace not in (None, "off") \
        else "spans"
    # Short request counts make the measured window a handful of
    # milliseconds, where one scheduler stall swings the ratio more
    # than the recorder does; stretch the window so the guard measures
    # tracing, not the OS.
    requests = max(args.requests, 64)

    def run(on: bool):
        return run_fleet_load(
            shapes=shapes, sizes=sizes, clients=args.clients,
            requests_per_client=requests,
            fleet_config=cfg.replace(trace=traced_mode if on else "off"),
            seed=args.seed, prime=not args.no_prime)

    try:
        result = overhead_check(run)
    except ServeError as exc:
        print(f"trace overhead check FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    print(f"tracing overhead (trace={traced_mode}): best pair "
          f"{result['ratio']:.3f}x of untraced throughput "
          f"(bound {result['bound']:.2f}x)")
    print("trace overhead check: OK")
    return 0


def trace_fleet(output: str, *, workers: int = 2, requests: int = 10,
                seed: int = 1234, check: bool = False) -> int:
    """Back end of ``python -m repro trace --fleet``: one short traced
    fleet session, merged into a single clock-aligned Chrome trace at
    ``output`` (router pid 0, one pid lane per worker)."""
    from repro.fleet.config import FleetConfig
    from repro.fleet.fleet import Fleet
    from repro.serve.config import ServeConfig
    from repro.serve.loadgen import make_shape

    cfg = FleetConfig(
        n_workers=workers, min_workers=1, max_workers=max(2, workers),
        trace="full",
        serve=ServeConfig(max_batch_size=8, max_wait_ms=1.0, seed=seed))
    specs = [make_shape(name, 256 + 64 * i, seed)
             for i, name in enumerate(sorted(SHAPES))]
    with Fleet(cfg) as fleet:
        futures = [fleet.submit_chain(spec.ops, spec.array)
                   for _ in range(max(1, requests // len(specs)))
                   for spec in specs]
        for fut in futures:
            fut.result(timeout=60.0)
        doc = fleet.dump_trace(path=output)
    spans = [ev for ev in doc["traceEvents"] if ev.get("ph") == "X"]
    pids = {ev.get("pid") for ev in spans}
    print(f"wrote {output}: {len(spans)} spans across {len(pids)} "
          f"processes ({len(futures)} requests)")
    if check:
        from repro.obs import analyze as obs_analyze
        from repro.obs.export import validate_chrome_trace

        validate_chrome_trace(doc)
        analysis = obs_analyze.analyze(output)
        problems = obs_analyze.check_report(analysis)
        joined = [r for r in analysis.get("fleet_requests") or []
                  if r.get("worker_detail")]
        if not joined:
            problems.append("no worker span joined a router request")
        if problems:
            for p in problems:
                print(f"trace check FAILED: {p}", file=sys.stderr)
            return 1
        print(f"trace check: OK ({len(joined)} requests joined across "
              f"processes, critical paths within 2%)")
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def build_replay_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro replay",
        description="Replay a flight-recorder incident bundle through "
                    "the load generator and reproduce its trigger.")
    parser.add_argument("bundle",
                        help="incident bundle directory (or its "
                             "manifest.json)")
    parser.add_argument("--incident-dir", default=None,
                        help="where the replayed run writes its own "
                             "bundles (default: <bundle>/replay)")
    parser.add_argument("--plan", action="store_true",
                        help="print the reconstructed traffic profile "
                             "and exit without running")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the replay "
                             "re-triggered the original incident type")
    parser.add_argument("--json", action="store_true",
                        help="emit the verdict as JSON")
    return parser


def replay_main(argv: Optional[List[str]] = None) -> int:
    from repro.fleet.replay import (check_replay, load_bundle,
                                    plan_replay, run_replay)

    args = build_replay_parser().parse_args(argv)
    if args.plan:
        plan = plan_replay(load_bundle(args.bundle))
        plan["serve_config"] = plan["serve_config"].__dict__
        print(json.dumps(plan, indent=2, sort_keys=True, default=str))
        return 0
    result = run_replay(args.bundle, incident_dir=args.incident_dir)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True, default=str))
    else:
        verdict = "reproduced" if result["reproduced"] \
            else "NOT reproduced"
        print(f"replay of {result['bundle']}: trigger "
              f"{result['trigger']!r} {verdict}")
        for b in result["matching_bundles"]:
            print(f"  matching bundle: {b}")
    if args.check:
        check_replay(result)
        print("replay acceptance: OK")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
