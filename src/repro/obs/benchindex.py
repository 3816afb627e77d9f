"""Append-only benchmark trajectory (``benchmarks/results/BENCH_INDEX.json``).

The ``BENCH_<id>.json`` baselines are *snapshots* — each ``make
bench-smoke`` overwrites them with the latest run, which is exactly
what the regression gate wants but erases history.  This module keeps
the history: every benchmark run **appends** one row per backend tier
to a single index document, so ``python -m repro report`` (and anyone
with ``jq``) can plot the wall-clock trajectory across commits instead
of only the latest point.

A row is deliberately flat and small — figure id, backend, the median
wall-clock, the headline speedups, a counter summary (bytes moved,
atomics, launches) and provenance (git rev from the ``REPRO_GIT_REV``
environment variable the Makefile injects, plus a timestamp)::

    {"id": "fig13", "backend": "vectorized", "wall_clock_s": 0.031,
     "speedup": 112.4, "timing": "median", "launches": 3,
     "bytes_loaded": 12582912, "bytes_stored": 8388608, "n_atomics": 64,
     "rev": "8bb4859", "timestamp": 1754600000.0}

Serve-layer runs append a ``backend="serve"`` row keyed by throughput
and tail latency instead of kernel wall-clock; fleet runs append a
``backend="fleet"`` row carrying worker counts and scale events.
Appends are atomic (read → extend → tmp file → ``os.replace``) and
never rewrite existing rows; a corrupt index raises
:class:`~repro.errors.ReproError` naming the file rather than silently
starting over.

Appends are also safe under **concurrent writers**: the whole
read-modify-write runs under an exclusive ``flock`` on a ``.lock``
sidecar next to the index, so fleet workers (or parallel CI legs)
racing on the same index interleave their rows instead of losing them.
On platforms without ``fcntl`` the lock degrades to the plain atomic
replace (last writer wins for rows appended in the same instant).
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import ReproError

__all__ = ["INDEX_NAME", "load_rows", "append_rows", "rows_from_report",
           "row_from_load_report", "row_from_stream_run",
           "row_from_fleet_run"]

INDEX_NAME = "BENCH_INDEX.json"

_VERSION = 1

#: Counter fields summed across launches into each row's summary.
_COUNTER_SUMS = ("bytes_loaded", "bytes_stored", "n_atomics", "n_barriers")


def _resolve_rev(rev: Optional[str]) -> Optional[str]:
    if rev is not None:
        return rev
    raw = os.environ.get("REPRO_GIT_REV", "").strip()
    return raw or None


def load_rows(path: Union[str, Path]) -> List[dict]:
    """All recorded rows, oldest first; a missing index is empty."""
    p = Path(path)
    if p.is_dir():
        p = p / INDEX_NAME
    if not p.exists():
        return []
    try:
        doc = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"bench index {p} is unreadable: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        raise ReproError(
            f"bench index {p} is not a BENCH_INDEX document (missing rows)")
    return list(doc["rows"])


@contextlib.contextmanager
def _index_lock(p: Path):
    """Exclusive advisory lock for the index's read-modify-write.

    The lock lives on a ``.lock`` sidecar (never on the index itself:
    the atomic ``os.replace`` swaps the inode the lock would be held
    on).  Held across *load → extend → replace*, it makes concurrent
    appenders — fleet workers racing on one results directory —
    serialize instead of dropping each other's rows.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX platforms
        yield
        return
    p.parent.mkdir(parents=True, exist_ok=True)
    lock_path = p.with_name(p.name + ".lock")
    with open(lock_path, "a") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def append_rows(path: Union[str, Path], rows: List[dict]) -> Path:
    """Append ``rows`` to the index at ``path`` (a file or its results
    directory), creating it on first use.  Existing rows are never
    modified; the write is atomic and the read-modify-write is guarded
    by a file lock so concurrent appenders never lose rows."""
    p = Path(path)
    if p.is_dir():
        p = p / INDEX_NAME
    with _index_lock(p):
        existing = load_rows(p)
        doc = {"version": _VERSION, "rows": existing + list(rows)}
        p.parent.mkdir(parents=True, exist_ok=True)
        tmp = p.with_name(p.name + f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, p)
    return p


def rows_from_report(report: dict, *, rev: Optional[str] = None,
                     timestamp: Optional[float] = None) -> List[dict]:
    """One index row per backend tier of a
    :func:`~repro.obs.benchrun.compare_backends` report."""
    rev = _resolve_rev(rev)
    ts = time.time() if timestamp is None else timestamp
    summary = {name: 0 for name in _COUNTER_SUMS}
    counters = report.get("counters") or []
    for rec in counters:
        for name in _COUNTER_SUMS:
            summary[name] += int(rec.get(name, 0))
    rows = []
    for backend, wall in sorted(report.get("wall_clock_s", {}).items()):
        row = {
            "id": report.get("id"),
            "backend": backend,
            "wall_clock_s": wall,
            "timing": report.get("timing", "best"),
            "launches": len(counters),
            "rev": rev,
            "timestamp": ts,
        }
        row.update(summary)
        if backend == "vectorized":
            row["speedup"] = report.get("speedup")
        rows.append(row)
    return rows


def row_from_load_report(report, *, rev: Optional[str] = None,
                         timestamp: Optional[float] = None,
                         bench_id: str = "serve_load") -> dict:
    """The serve-layer trajectory row for one
    :class:`~repro.serve.loadgen.LoadReport`."""
    ts = time.time() if timestamp is None else timestamp
    return {
        "id": bench_id,
        "backend": "serve",
        "shape": report.shape,
        "wall_clock_s": report.wall_s,
        "throughput_rps": report.throughput_rps,
        "latency_p50_ms": report.latency_p50_ms,
        "latency_p95_ms": report.latency_p95_ms,
        "latency_p99_ms": report.latency_p99_ms,
        "completed": report.completed,
        "requests": report.requests,
        "batch_size_mean": report.batch_size_mean,
        "plan_hit_rate": report.plan_hit_rate,
        "rev": _resolve_rev(rev),
        "timestamp": ts,
    }


def row_from_stream_run(*, bench_id: str, ops: str, elements: int,
                        dtype: str, wall_s: float, extras: dict,
                        rev: Optional[str] = None,
                        timestamp: Optional[float] = None) -> dict:
    """The out-of-core streaming trajectory row for one
    :func:`~repro.stream.engine.stream_run` (``backend="stream"``),
    keyed by end-to-end throughput over the sharded pipeline plus the
    sharding facts from the run's extras."""
    ts = time.time() if timestamp is None else timestamp
    return {
        "id": bench_id,
        "backend": "stream",
        "ops": ops,
        "elements": int(elements),
        "dtype": dtype,
        "wall_clock_s": wall_s,
        "throughput_meps": (elements / wall_s / 1e6) if wall_s > 0 else None,
        "shards": int(extras.get("shards", 1)),
        "shard_elems": extras.get("shard_elems"),
        "n_workers": int(extras.get("n_workers", 0)),
        "double_buffer": bool(extras.get("double_buffer", False)),
        "boundary_drops": int(extras.get("boundary_drops", 0)),
        "rev": _resolve_rev(rev),
        "timestamp": ts,
    }


def row_from_fleet_run(report, *, rev: Optional[str] = None,
                       timestamp: Optional[float] = None,
                       bench_id: str = "fleet_load") -> dict:
    """The fleet-tier trajectory row for one
    :class:`~repro.fleet.loadgen.FleetLoadReport` (``backend="fleet"``):
    end-to-end throughput and tail latency across the whole worker
    pool, plus the fleet facts (worker counts, routing skew, scale
    events) the serve row has no place for."""
    ts = time.time() if timestamp is None else timestamp
    return {
        "id": bench_id,
        "backend": "fleet",
        "shapes": "+".join(report.shapes),
        "wall_clock_s": report.wall_s,
        "throughput_rps": report.throughput_rps,
        "latency_p50_ms": report.latency_p50_ms,
        "latency_p95_ms": report.latency_p95_ms,
        "latency_p99_ms": report.latency_p99_ms,
        "completed": report.completed,
        "requests": report.requests,
        "workers_start": report.workers_start,
        "workers_peak": report.workers_peak,
        "workers_end": report.workers_end,
        "scale_ups": report.scale_ups,
        "scale_downs": report.scale_downs,
        "routing_skew": report.routing_skew,
        "plan_hit_rate": report.plan_hit_rate,
        "rev": _resolve_rev(rev),
        "timestamp": ts,
    }
