"""``python -m repro stream`` — out-of-core streaming smoke/benchmark.

Builds a seeded on-disk memmap several times larger than the configured
device capacity (``--shard-elems``, the per-shard element budget),
streams it through a ``compact → unique`` chain with
:func:`repro.stream.engine.stream_run` in **both** execution modes —
single-process and the ``multiprocessing.shared_memory`` worker pool
— and verifies each result byte-for-byte against the NumPy reference
computed over the whole file.  The two modes share one stitcher, so
``--check`` also requires the same extras (apart from ``n_workers``)
and the same per-launch kernel names and bytes moved: the fields that
do not depend on the simulated tier's schedule.  This is the
``make stream-smoke`` entry point::

    python -m repro stream --check                  # smoke + verify
    python -m repro stream --trace stream.json      # + Chrome trace

``--trace`` exports the single-process run's span timeline (per-shard
``stream.load``/``compute``/``store`` on ``shard:<k>`` tracks), which
``python -m repro analyze`` decomposes into per-shard stage
attribution.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

__all__ = ["build_parser", "main"]


def _build_input(path: Path, n: int, dtype: str, remove_value: float,
                 seed: int) -> np.memmap:
    """A seeded workload with removable values and duplicate runs (so
    compact and unique both have real work at shard boundaries)."""
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 64, size=n).astype(dtype)
    values[rng.random(n) < 0.35] = remove_value
    # Duplicate runs that straddle shard boundaries exercise the
    # inter-shard carry protocol.
    run_starts = rng.integers(0, max(1, n - 8), size=max(1, n // 64))
    for start in run_starts:
        values[start:start + 8] = values[start]
    values.tofile(path)
    del values
    return np.memmap(path, dtype=dtype, mode="r")


def _reference(mm: np.memmap, remove_value: float) -> np.ndarray:
    arr = np.asarray(mm)
    kept = arr[arr != remove_value]
    if kept.size == 0:
        return kept
    keep = np.ones(kept.size, dtype=bool)
    keep[1:] = kept[1:] != kept[:-1]
    return kept[keep]


def _run_mode(mm, remove_value, config, workers, label):
    from repro.stream.engine import stream_run
    from repro.stream.source import MemmapSource

    t0 = time.perf_counter()
    result = stream_run([("compact", remove_value), "unique"],
                        MemmapSource(mm), config=config, workers=workers)
    wall_s = time.perf_counter() - t0
    return label, result, wall_s


def _mode_mismatches(runs) -> list:
    """How the pooled run differs from the single-process one beyond
    ``n_workers`` (empty when they agree)."""
    (seq_label, seq, _), (pool_label, pool, _) = runs
    extras = [{k: v for k, v in r.extras.items() if k != "n_workers"}
              for r in (seq, pool)]
    launches = [[(c.kernel_name, c.bytes_moved) for c in r.counters]
                for r in (seq, pool)]
    out = []
    if extras[0] != extras[1]:
        out.append(f"{pool_label} extras {extras[1]} differ from "
                   f"{seq_label}'s {extras[0]}")
    if launches[0] != launches[1]:
        out.append(f"{pool_label} launches (kernel, bytes moved) differ "
                   f"from {seq_label}'s")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro stream",
        description="Stream an on-disk memmap larger than the device "
                    "capacity through compact+unique, single-process "
                    "and under the shared-memory worker pool, verifying "
                    "against the NumPy reference.",
    )
    parser.add_argument("--elements", type=int, default=1 << 18,
                        help="memmap element count (default: 262144)")
    parser.add_argument("--shard-elems", type=int, default=1 << 15,
                        help="device capacity in elements per shard "
                             "(default: 32768 -> 8 shards)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for the pool mode "
                             "(default: 2)")
    parser.add_argument("--dtype", default="float32",
                        help="element dtype (default: float32)")
    parser.add_argument("--remove-value", type=float, default=0.0,
                        help="value the compact stage removes")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default: 0)")
    parser.add_argument("--file", default=None, metavar="PATH",
                        help="memmap path (default: a temporary file)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="export the single-process run's Chrome "
                             "trace (analyze with python -m repro "
                             "analyze PATH)")
    parser.add_argument("--check", action="store_true",
                        help="non-zero exit unless both modes verify "
                             "byte-identically, agree on extras and "
                             "launches, and the input spanned >=4 shards")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from repro import obs as _obs
    from repro.config import DSConfig
    from repro.stream.pool import fork_unavailable_reason

    if args.elements < 1 or args.shard_elems < 1:
        print("stream: --elements and --shard-elems must be >= 1",
              file=sys.stderr)
        return 2
    config = DSConfig(shard_elems=args.shard_elems)
    tmp_dir = None
    if args.file is None:
        tmp_dir = tempfile.TemporaryDirectory(prefix="repro-stream-")
        path = Path(tmp_dir.name) / "stream_input.dat"
    else:
        path = Path(args.file)
    mm = None
    try:
        mm = _build_input(path, args.elements, args.dtype,
                          args.remove_value, args.seed)
        size_mb = mm.nbytes / 1e6
        ratio = args.elements / args.shard_elems
        print(f"input: {path} ({args.elements} x {args.dtype}, "
              f"{size_mb:.1f} MB, {ratio:.1f}x device capacity of "
              f"{args.shard_elems} elems)")
        reference = _reference(mm, args.remove_value)

        runs = []
        tracer = _obs.enable("spans") if args.trace else None
        try:
            runs.append(_run_mode(mm, args.remove_value, config, 0,
                                  "single-process"))
        finally:
            if tracer is not None:
                from repro.obs import export_chrome_trace

                export_chrome_trace({"stream": tracer}, args.trace)
                _obs.disable()
                print(f"wrote {args.trace} "
                      f"(analyze: python -m repro analyze {args.trace})")
        fork_blocked = fork_unavailable_reason()
        if fork_blocked:
            print(f"pool mode unavailable ({fork_blocked}); "
                  f"skipping worker-pool run")
        else:
            runs.append(_run_mode(mm, args.remove_value, config,
                                  args.workers, f"pool[{args.workers}]"))

        failures = []
        for label, result, wall_s in runs:
            ok = (result.output.dtype == reference.dtype
                  and np.array_equal(result.output, reference))
            ex = result.extras
            status = "ok" if ok else "MISMATCH"
            print(f"{label:>16}: {status}  wall {wall_s * 1e3:8.1f} ms  "
                  f"shards {ex.get('shards')}  workers "
                  f"{ex.get('n_workers')}  kept {ex.get('n_kept')}  "
                  f"boundary drops {ex.get('boundary_drops')}")
            if not ok:
                failures.append(f"{label}: output differs from the "
                                f"NumPy reference")
            if ex.get("shards", 1) < 4:
                failures.append(f"{label}: only {ex.get('shards')} "
                                f"shards (need >= 4)")

        if len(runs) == 2:
            failures.extend(_mode_mismatches(runs))

        if args.check:
            if failures:
                for failure in failures:
                    print(f"CHECK FAILED: {failure}", file=sys.stderr)
                return 1
            print(f"check ok: {len(runs)} mode(s) byte-identical to the "
                  f"reference across {runs[0][1].extras['shards']} shards")
        return 0
    finally:
        mm = None  # release the map before the tempdir unlinks the file
        if tmp_dir is not None:
            tmp_dir.cleanup()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
