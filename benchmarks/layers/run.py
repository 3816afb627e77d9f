"""Layer-cost benchmark: six workloads through every front door of repro.

One workload, one measured run (the form the benchmark contract in
``BENCHMARK.json`` calls)::

    python3 benchmarks/layers/run.py --workload batch_1k --seed 7 \\
        --seconds 15 --trace 0

prints every metric by name with its unit, then, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Every workload, with a result file (``--runs K`` repeats each workload
with seeds ``seed .. seed+K-1``, then adds one traced run)::

    python3 benchmarks/layers/run.py --seed 1234 --out R.json \\
        [--runs 10] [--trace-dir DIR] [--smoke]

Each run is a fresh ``workloads.py`` interpreter with every ``REPRO_*``
variable removed from its environment; set-up time is the median over
that run and four more fresh interpreters stopped before their first
timed op.  Exits non-zero if any output differs from ``repro.reference``,
any operation failed, or a shared-memory segment leaked.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def load_spec() -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {ROOT / 'src'}; run from "
                         f"a checkout of the repository")
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def _child_env(scratch: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # Anything the program writes to a temporary file stays inside the
    # checkout.
    env["TMPDIR"] = str(scratch)
    return env


def _spawn(workload: str, seed: int, seconds: float, trace: int,
           scratch: Path, *, setup_only: bool = False,
           trace_dir: Optional[Path] = None,
           corrupt: bool = False) -> dict:
    """Run ``workloads.py`` in a fresh interpreter; its last stdout line
    is the result.  The child gets its own session so a timeout can kill
    every process it forked."""
    extra = []
    if setup_only:
        extra.append("--setup-only")
    if trace_dir is not None:
        extra += ["--trace-dir", str(trace_dir)]
    if corrupt:
        extra.append("--inject-corruption")
    timeout = 60 if setup_only else 2 * seconds + 60
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--scratch", str(scratch), *extra,
           "--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(scratch),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}: no result within {timeout:.0f}s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise BenchError(f"{workload}: workload process exited "
                         f"{proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, *,
            trace_dir: Optional[Path] = None,
            corrupt: bool = False) -> dict:
    """One measured run of ``workload``: the metrics plus correctness and
    hygiene (outputs checked, operations failed, shared memory leaked)."""
    scratch_root = ROOT / ".layers_scratch"
    scratch = scratch_root / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    before = _shm_entries()
    try:
        res = _spawn(workload, seed, seconds, trace, scratch,
                     trace_dir=trace_dir, corrupt=corrupt)
        leaked = set(res["shm_leaked"])
        metrics = dict(res["metrics"])
        if not trace:
            setups = [res["setup_s"]]
            for _ in range(SETUP_SAMPLES - 1):
                probe = _spawn(workload, seed, seconds, 0, scratch,
                               setup_only=True)
                setups.append(probe["setup_s"])
                leaked.update(probe["shm_leaked"])
            metrics["setup_s"] = {"value": statistics.median(setups),
                                  "unit": "s", "n": len(setups)}
            metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"],
                                      "unit": "MB", "n": 1}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run's scratch is still there
    leaked.update(_shm_entries() - before)
    attempted = res["checked"] + res["failed"]
    failed = res["wrong"] + res["failed"]
    detail = dict(res["detail"])
    detail["fail_ratio"] = {"value": failed / max(1, attempted),
                            "unit": "ratio", "n": attempted}
    detail["shm_leaked"] = {"value": len(leaked), "unit": "count", "n": 1}
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": failed == 0 and not leaked,
            "attempted": attempted, "failed": failed,
            "errors": res["errors"] + [f"leaked /dev/shm/{name}"
                                       for name in sorted(leaked)],
            "metrics": metrics, "detail": detail}


def contract_metrics(spec: dict, result: dict) -> Dict[str, dict]:
    """Exactly the metrics ``BENCHMARK.json`` declares for this mode."""
    out = {}
    for m in spec["per_layer" if result["trace"] else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            raise BenchError(f"{result['workload']}: metric {m['name']} "
                             f"missing or not finite: {got}")
        if got["unit"] != m["unit"]:
            raise BenchError(f"{result['workload']}: {m['name']} measured "
                             f"in {got['unit']}, declared {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out


def print_metrics(workload: str, metrics: Dict[str, dict],
                  file=sys.stdout) -> None:
    for name, m in metrics.items():
        n = m.get("n")
        count = f"  (n={n})" if n and n > 1 else ""
        print(f"{workload:<10} {name:<28} {m['value']:>16.6g} "
              f"{m['unit']}{count}", file=file)


def print_result(result: dict, file=sys.stdout) -> None:
    print_metrics(result["workload"], result["metrics"], file)
    print_metrics(result["workload"], result["detail"], file)
    for err in result["errors"]:
        print(f"{result['workload']:<10} ERROR {err}", file=file)


def host_info(seed: int) -> dict:
    rev = None
    if (ROOT / ".git").exists():  # an exported checkout has no history
        try:
            rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "platform": platform.platform(),
            "git_rev": rev, "seed": seed}


def summarize(values: List[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": len(values), "values": values}


def run_all(args, spec: dict) -> int:
    seconds = 1.0 if args.smoke else (args.seconds or spec["run_seconds"])
    trace_dir = Path(args.trace_dir).resolve() if args.trace_dir else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
    report = {"kind": "repro-layers-bench", "host": host_info(args.seed),
              "seconds": seconds, "runs": args.runs, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [measure(workload, args.seed + k, seconds, 0)
                for k in range(args.runs)]
        traced = measure(workload, args.seed, seconds, 1,
                         trace_dir=trace_dir)
        end_to_end = {}
        for m in spec["end_to_end"]:
            entry = summarize([r["metrics"][m["name"]]["value"]
                               for r in runs])
            entry.update(unit=m["unit"], samples=[
                r["metrics"][m["name"]]["n"] for r in runs])
            end_to_end[m["name"]] = entry
        detail = {name: dict(summarize([r["detail"][name]["value"]
                                        for r in runs if name in
                                        r["detail"]]),
                             unit=m["unit"])
                  for name, m in runs[0]["detail"].items()}
        for name, m in traced["detail"].items():
            detail.setdefault(name, dict(summarize([m["value"]]),
                                         unit=m["unit"]))
        everything = runs + [traced]
        correct = all(r["correct"] for r in everything)
        ok = ok and correct
        report["workloads"][workload] = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in everything),
            "failed": sum(r["failed"] for r in everything),
            "errors": [e for r in everything for e in r["errors"]],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "detail": detail,
        }
        shown = {name: {"value": e["median"], "unit": e["unit"],
                        "n": e["runs"]} for name, e in end_to_end.items()}
        print_metrics(workload, shown)
        print_metrics(workload, traced["metrics"])
        print_metrics(workload, {name: {"value": e["median"],
                                        "unit": e["unit"]}
                                 for name, e in detail.items()})
        for err in report["workloads"][workload]["errors"]:
            print(f"{workload:<10} ERROR {err}")
        print(f"{workload:<10} correct={correct}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def run_one(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(names)}")
    if args.seconds is None:
        raise BenchError("--seconds is required with --workload")
    trace_dir = None
    if args.trace_dir and args.trace:
        trace_dir = Path(args.trace_dir).resolve()
        trace_dir.mkdir(parents=True, exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     trace_dir=trace_dir, corrupt=args.inject_corruption)
    metrics = contract_metrics(spec, result)
    print_result(result)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Layer-cost benchmark of the repro front doors.")
    parser.add_argument("--workload", default=None,
                        help="run one workload once (the contract form); "
                             "default: every workload")
    parser.add_argument("--seed", type=int, default=1234,
                        help="input seed (run k of --runs uses seed+k)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer "
                             "metrics of a traced run")
    parser.add_argument("--trace-dir", default=None,
                        help="write one Chrome trace per traced run here")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload for the result "
                             "file (quartiles are taken across them)")
    parser.add_argument("--out", default=None,
                        help="write medians, quartiles, sample counts and "
                             "host provenance here (JSON)")
    parser.add_argument("--smoke", action="store_true",
                        help="one second per run, same code paths")
    parser.add_argument("--inject-corruption", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.workload is not None:
            return run_one(args, spec)
        if args.runs < 1:
            raise BenchError("--runs must be at least 1")
        return run_all(args, spec)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
