"""The six layer-benchmark workloads; each run is one fresh interpreter.

``run.py`` spawns this file once per measured run, and twice more with
``--setup-only`` to sample set-up time::

    PYTHONPATH=src python benchmarks/layers/workloads.py \\
        --workload batch_1k --seed 1 --seconds 12 --trace 0

The last stdout line is one JSON object: correctness counts, set-up
time, peak RSS, the metrics (end-to-end with ``--trace 0``, per-layer
with ``--trace 1``) and workload-specific detail.

Every workload runs the ``compact -> unique`` chain (drop 0.0, then drop
repeats).  The seed reaches only the input generators (values and
arrival times); every config is pinned here, never read from the
environment.  Each workload's front door has a *latency* op and a
*throughput* mode:

============  ============================  =============================
workload      latency op                    throughput mode
============  ============================  =============================
batch_1k/1m   ``repro.ds`` chain call       ``Pipeline(fuse=True)``
sim_64k       ``repro.ds`` chain call       ``Pipeline(fuse=True)``
serve_1k      open-loop request, 200 req/s  closed loop, 2 clients
fleet_1k      open-loop request, 200 req/s  closed loop, 2 clients
stream_4m     ``stream_run(workers=0)``     ``stream_run(workers=2)``
============  ============================  =============================

Per-layer numbers come from the *ladder*: the same chain on the
workload's own input through each in-process layer, from the
``repro.reference`` floor up (``Ladder``).  The in-process workloads
are nothing but the ladder; the others run it before their front door
when traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import numpy as np

import repro
from repro import DSConfig, Pipeline, PlanCache
from repro.core.predicates import less_than
from repro.primitives import ds_stream_compact, ds_unique
from repro.reference import compact_ref, partition_ref, remove_if_ref, \
    unique_ref

from recorder import Recorder, durations_us, write_chrome_trace

REMOVE = 0.0
CHAIN = (("compact", REMOVE), "unique")
# Loops run at least this many iterations, so a one-second smoke run
# still yields traced and untraced samples of every op.
MIN_ITERATIONS = 4
# Share of a traced run spent on the ladder by workloads whose front
# door is not the ladder itself.
LADDER_SHARE = 0.25


class Checker:
    """Byte-for-byte comparison of every output with its reference."""

    def __init__(self, corrupt: bool = False) -> None:
        # Test hook: flip the first byte of the first output checked,
        # which must turn the run incorrect.
        self.corrupt = corrupt
        self.checked = 0
        self.wrong = 0
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def __call__(self, label: str, out, expected: np.ndarray) -> bool:
        out = np.ascontiguousarray(out)
        with self._lock:
            if self.corrupt and out.size:
                out = out.copy()
                out.view(np.uint8)[0] ^= 0xFF
                self.corrupt = False
            self.checked += 1
        same = (out.dtype == expected.dtype and out.shape == expected.shape
                and np.array_equal(out.view(np.uint8),
                                   np.ascontiguousarray(expected)
                                   .view(np.uint8)))
        if not same:
            with self._lock:
                self.wrong += 1
                if len(self.errors) < 5:
                    self.errors.append(
                        f"{label}: got {out.dtype}{out.shape}, expected "
                        f"{expected.dtype}{expected.shape} (bytes differ)")
        return same


class Run:
    """State of one measured run: time budget, samples, checks, spans."""

    def __init__(self, seconds: float, trace: bool,
                 corrupt: bool = False) -> None:
        self.seconds = float(seconds)
        self.trace = trace
        self.rec = Recorder(store=True)
        self.mute = Recorder(store=False)
        self.check = Checker(corrupt)
        self.failed = 0
        self.warming = False
        self.samples: Dict[str, List[tuple]] = {}
        self._lock = threading.Lock()

    def recorder(self, i: int) -> Recorder:
        """Traced runs keep spans of every other op, so the same run
        also yields untraced samples for ``trace.overhead_x``."""
        if self.trace and not self.warming and i % 2 == 0:
            return self.rec
        return self.mute

    def sample(self, name: str, value: float, traced: bool) -> None:
        if not self.warming:
            with self._lock:
                self.samples.setdefault(name, []).append((value, traced))

    def values(self, name: str) -> List[float]:
        return [v for v, _ in self.samples.get(name, [])]

    def fail(self, label: str, exc: BaseException) -> None:
        with self._lock:
            self.failed += 1
            if len(self.check.errors) < 5:
                self.check.errors.append(
                    f"{label}: {type(exc).__name__}: {exc}")

    @staticmethod
    def loop(seconds: float):
        """Iteration indices until ``seconds`` have passed (and at least
        ``MIN_ITERATIONS``)."""
        stop = time.perf_counter() + seconds
        i = 0
        while i < MIN_ITERATIONS or time.perf_counter() < stop:
            yield i
            i += 1


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q))


def _metric(value: float, unit: str, n: int = 1) -> dict:
    return {"value": float(value), "unit": unit, "n": int(n)}


# -- the ladder ---------------------------------------------------------------


class Ladder:
    """The chain over one input through every in-process layer, from the
    NumPy floor up: reference -> primitives (``ds_stream_compact`` ->
    ``ds_unique``) -> dispatch (``repro.ds``) -> ``Pipeline`` fused and
    unfused.  Each round rotates the call order."""

    STEPS = ("reference", "primitives", "dispatch", "fused", "unfused")

    def __init__(self, x: np.ndarray, cfg: DSConfig) -> None:
        self.x = x
        self.cfg = cfg
        self.cache = PlanCache()
        self.ref_compact = compact_ref(x, REMOVE)
        self.ref_chain = unique_ref(self.ref_compact)
        self.counters: list = []

    def round(self, run: Run, i: int) -> None:
        rec = run.recorder(i)
        with rec.span("round", round=i) as root:
            k = i % len(self.STEPS)
            for step in self.STEPS[k:] + self.STEPS[:k]:
                getattr(self, "_" + step)(run, rec, root)

    def rounds(self, run: Run, seconds: float) -> None:
        for i in Run.loop(seconds):
            self.round(run, i)

    def _reference(self, run, rec, root) -> None:
        with rec.span("reference.chain", root) as sp:
            with rec.span("reference.compact", sp):
                a = compact_ref(self.x, REMOVE)
            with rec.span("reference.unique", sp):
                b = unique_ref(a)
        run.check("reference chain", b, self.ref_chain)

    def _primitives(self, run, rec, root) -> None:
        with rec.span("primitives.chain", root) as sp:
            with rec.span("primitives.compact", sp):
                a = ds_stream_compact(self.x, REMOVE, config=self.cfg)
            with rec.span("primitives.unique", sp):
                b = ds_unique(a.output, config=self.cfg)
        run.check("ds_stream_compact", a.output, self.ref_compact)
        run.check("ds_unique", b.output, self.ref_chain)
        self.counters = list(a.counters) + list(b.counters)

    def _dispatch(self, run, rec, root) -> None:
        with rec.span("dispatch.chain", root) as sp:
            with rec.span("dispatch.compact", sp):
                a = repro.ds("compact", self.x, REMOVE, config=self.cfg)
            with rec.span("dispatch.unique", sp):
                b = repro.ds("unique", a.output, config=self.cfg)
        run.check("repro.ds compact", a.output, self.ref_compact)
        run.check("repro.ds unique", b.output, self.ref_chain)
        run.sample("dispatch.chain", sp.dur_s, rec.store)

    def _fused(self, run, rec, root) -> None:
        with rec.span("pipeline.fused", root) as sp:
            p = Pipeline(config=self.cfg, plan_cache=self.cache)
            with rec.span("pipeline.enqueue", sp):
                fut = p.unique(p.compact(self.x, REMOVE))
            with rec.span("pipeline.plan", sp):
                p.plan()
            with rec.span("pipeline.run", sp):
                p.run()
        run.check("Pipeline(fuse=True)", fut.output, self.ref_chain)
        run.sample("pipeline.fused", sp.dur_s, rec.store)

    def _unfused(self, run, rec, root) -> None:
        with rec.span("pipeline.unfused", root) as sp:
            p = Pipeline(config=self.cfg, fuse=False, plan_cache=self.cache)
            fut = p.unique(p.compact(self.x, REMOVE))
            with rec.span("pipeline.unfused_run", sp):
                p.run()
        run.check("Pipeline(fuse=False)", fut.output, self.ref_chain)

    # Per-layer metric -> the traced span it is the median of.
    SPAN_METRICS = {
        "reference.chain_us": "reference.chain",
        "primitives.chain_us": "primitives.chain",
        "primitives.compact_us": "primitives.compact",
        "dispatch.chain_us": "dispatch.chain",
        "dispatch.compact_us": "dispatch.compact",
        "pipeline.enqueue_us": "pipeline.enqueue",
        "pipeline.plan_us": "pipeline.plan",
        "pipeline.run_us": "pipeline.run",
        "pipeline.unfused_run_us": "pipeline.unfused_run",
    }

    def layers(self, spans) -> dict:
        """Per-layer metrics from the traced ladder spans."""
        d = durations_us(spans)
        out = {metric: _metric(_median(d[span]), "us", len(d[span]))
               for metric, span in self.SPAN_METRICS.items()}
        us = {metric: m["value"] for metric, m in out.items()}
        ref = us["reference.chain_us"]
        prim = us["primitives.chain_us"]
        disp = us["dispatch.chain_us"]
        hits, misses = self.cache.stats()
        c = self.counters
        moved = sum(k.bytes_moved for k in c)
        steps = sum(k.steps for k in c)
        out.update({
            "primitives.overhead_x": _metric(prim / ref, "x"),
            "dispatch.self_us": _metric(disp - prim, "us"),
            "dispatch.overhead_x": _metric(disp / ref, "x"),
            "kernel.launches": _metric(len(c), "count"),
            "kernel.bytes_moved": _metric(moved, "B"),
            "kernel.gbps_computed": _metric(moved / (prim * 1e3), "GB/s"),
            "simgpu.steps": _metric(steps, "count"),
            "simgpu.n_spins": _metric(sum(k.n_spins for k in c), "count"),
            "simgpu.n_atomics": _metric(sum(k.n_atomics for k in c),
                                        "count"),
            "simgpu.us_per_step": _metric(prim / steps, "us"),
            "pipeline.fuse_gain_x": _metric(
                us["pipeline.unfused_run_us"] / us["pipeline.run_us"], "x"),
            "pipeline.overhead_x": _metric(
                _median(d["pipeline.fused"]) / ref, "x"),
            "pipeline.plan_hit_rate": _metric(
                hits / (hits + misses), "ratio", hits + misses),
        })
        return out


# -- workloads ----------------------------------------------------------------


class Workload:
    """Input generation (excluded from set-up time), set-up, the timed
    run, and the metrics.  Subclasses name their front-door op: the span
    and sample name of the latency op, and its elements per op."""

    op_name = ""
    # Detail metric for the peak RSS of the worker processes the front
    # door forks (None when it forks none).
    children_rss = None
    ladder: Ladder

    def inputs(self, rng: np.random.Generator, scratch: Path) -> None:
        raise NotImplementedError

    def setup(self, run: Run) -> None:
        raise NotImplementedError

    def run(self, run: Run) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def op_elems(self) -> float:
        raise NotImplementedError

    def throughput_meps(self, run: Run) -> float:
        raise NotImplementedError

    def detail(self, run: Run) -> dict:
        return {}

    def end_to_end(self, run: Run) -> dict:
        lat = [v * 1e3 for v in run.values(self.op_name)]
        return {
            "latency_p50_ms": _metric(_median(lat), "ms", len(lat)),
            "throughput_meps": _metric(self.throughput_meps(run), "Melem/s"),
        }

    def per_layer(self, run: Run) -> dict:
        out = self.ladder.layers(run.rec.spans)
        ops = durations_us([sp for sp in run.rec.spans
                            if sp.name == self.op_name])[self.op_name]
        scale = self.op_elems() / self.ladder.x.size
        op_us = _median(ops)
        out.update({
            "frontdoor.op_us": _metric(op_us, "us", len(ops)),
            "frontdoor.p99_us": _metric(_pct(ops, 99), "us", len(ops)),
            "frontdoor.self_us": _metric(
                op_us - out["primitives.chain_us"]["value"] * scale, "us"),
            "frontdoor.overhead_x": _metric(
                op_us / (out["reference.chain_us"]["value"] * scale), "x"),
        })
        samples = run.samples[self.op_name]
        traced = [v for v, t in samples if t]
        plain = [v for v, t in samples if not t]
        out["trace.overhead_x"] = _metric(
            _median(traced) / _median(plain), "x", len(samples))
        return out


class RoundWorkload(Workload):
    """batch_1k / batch_1m / sim_64k: rounds of the ladder over one
    float64 input with values 0..3 (a quarter are removed, and about a
    third of the survivors repeat their predecessor)."""

    op_name = "dispatch.chain"

    def __init__(self, n: int, backend: str) -> None:
        self.n = n
        self.backend = backend

    def inputs(self, rng, scratch) -> None:
        self.x = rng.integers(0, 4, self.n).astype(np.float64)

    def setup(self, run) -> None:
        self.ladder = Ladder(self.x, DSConfig(backend=self.backend))
        run.warming = True
        self.ladder.round(run, 0)
        run.warming = False

    def run(self, run) -> None:
        self.ladder.rounds(run, run.seconds)

    def op_elems(self) -> float:
        return float(self.n)

    def throughput_meps(self, run) -> float:
        return self.n / _median(run.values("pipeline.fused")) / 1e6

    def detail(self, run) -> dict:
        ds_s = run.values("dispatch.chain")
        fused = run.values("pipeline.fused")
        return {
            "ds_meps": _metric(self.n / _median(ds_s) / 1e6, "Melem/s",
                               len(ds_s)),
            "pipeline_meps": _metric(self.throughput_meps(run), "Melem/s",
                                     len(fused)),
        }


class Shape(NamedTuple):
    name: str
    ops: tuple
    x: np.ndarray
    expected: np.ndarray


def make_shape(kind: str, n: int, rng: np.random.Generator) -> Shape:
    """The five serve traffic shapes of ``repro.serve.loadgen``."""
    if kind == "compact":
        x = rng.integers(0, 4, n).astype(np.float64)
        return Shape(kind, (("compact", REMOVE),), x, compact_ref(x, REMOVE))
    if kind == "unique":
        x = np.repeat(rng.integers(0, 50, (n + 3) // 4), 4)[:n]
        x = x.astype(np.float64)
        return Shape(kind, ("unique",), x, unique_ref(x))
    if kind == "remove_if":
        x = rng.random(n)
        pred = less_than(0.5)
        return Shape(kind, (("remove_if", pred),), x, remove_if_ref(x, pred))
    if kind == "partition":
        x = rng.random(n)
        pred = less_than(0.5)
        return Shape(kind, (("partition", pred),), x,
                     partition_ref(x, pred)[0])
    x = rng.integers(0, 4, n).astype(np.float64)
    return Shape("chain", CHAIN, x, unique_ref(compact_ref(x, REMOVE)))


class ServeWorkload(Workload):
    """serve_1k / fleet_1k: an open loop at a fixed rate (phase A), then
    a closed loop of two clients (phase B)."""

    op_name = "request"
    RATE = 200.0
    CLIENTS = 2
    PHASE_A = 0.6   # share of the run; phase B gets the rest

    def __init__(self, fleet: bool) -> None:
        self.fleet = fleet
        self.front = None
        if fleet:
            self.children_rss = "fleet.worker_rss_mb"

    def inputs(self, rng, scratch) -> None:
        if self.fleet:
            # 5 shapes x 4 sizes = 20 batch keys, round-robin.
            self.shapes = [make_shape(kind, n, rng)
                           for n in (256, 512, 768, 1024)
                           for kind in ("compact", "unique", "remove_if",
                                        "partition", "chain")]
        else:
            # One batch key; distinct inputs so no two requests match.
            self.shapes = [make_shape("chain", 1024, rng) for _ in range(16)]
        self.arrival_rng = np.random.default_rng(rng.integers(1 << 62))
        canonical = next(s for s in self.shapes
                         if s.name == "chain" and s.x.size == 1024)
        self.canonical = canonical.x

    def setup(self, run) -> None:
        cfg = DSConfig(backend="vectorized")
        self.ladder = Ladder(self.canonical, cfg)
        if self.fleet:
            from repro.fleet import Fleet, FleetConfig

            self.front = Fleet(FleetConfig(n_workers=2), ds_config=cfg)
            for shape in self.shapes:
                self.front.prime(shape.ops, shape.x)
        else:
            from repro.serve import ServeConfig, Server

            self.front = Server(ServeConfig(), ds_config=cfg)
            self.front.prime(CHAIN, self.canonical)

    def close(self) -> None:
        if self.front is not None:
            self.front.close()
            self.front = None

    def _stats(self) -> dict:
        if self.fleet:
            stats = self.front.stats()
            merged = dict(stats["rollup"])
            merged["ring"] = stats["ring"]
            return merged
        return self.front.stats()

    def run(self, run) -> None:
        seconds = run.seconds
        if run.trace:
            self.ladder.rounds(run, seconds * LADDER_SHARE)
            seconds *= 1 - LADDER_SHARE
        self.open_loop(run, seconds * self.PHASE_A)
        self.stats_a = self._stats()
        self.closed_loop(run, seconds * (1 - self.PHASE_A))
        self.stats_b = self._stats()

    def open_loop(self, run: Run, seconds: float) -> None:
        """One sender thread submits on a seeded exponential schedule;
        this thread collects in submission order and times each request
        from when it was due."""
        gaps = self.arrival_rng.exponential(
            1.0 / self.RATE, int(seconds * self.RATE * 2) + 16)
        due = np.cumsum(gaps)
        due = due[:max(MIN_ITERATIONS, int(np.searchsorted(due, seconds)))]
        sent: List[Optional[tuple]] = [None] * len(due)
        ready = threading.Semaphore(0)
        t_start = time.perf_counter_ns() + 10_000_000

        def sender() -> None:
            for k, d in enumerate(due):
                t_due = t_start + int(d * 1e9)
                delay = (t_due - time.perf_counter_ns()) / 1e9
                if delay > 0:
                    time.sleep(delay)
                shape = self.shapes[k % len(self.shapes)]
                t0 = time.perf_counter_ns()
                try:
                    fut = self.front.submit_chain(shape.ops, shape.x)
                except Exception as exc:  # refused or failed: recorded
                    fut = exc
                sent[k] = (t_due, t0, time.perf_counter_ns(), fut, shape)
                ready.release()

        thread = threading.Thread(target=sender, name="layers-sender")
        thread.start()
        try:
            for k in range(len(due)):
                ready.acquire()
                self._collect(run, k, *sent[k])
        finally:
            thread.join()

    def _collect(self, run, k, t_due, t0, t1, fut, shape) -> None:
        if isinstance(fut, BaseException):
            run.fail(f"submit {shape.name}", fut)
            return
        rec = run.recorder(k)
        rid = rec.new_id()
        tw = time.perf_counter_ns()
        try:
            res = fut.result(timeout=30.0)
        except Exception as exc:
            run.fail(f"request {shape.name}", exc)
            return
        t_done = time.perf_counter_ns()
        rec.record("submit", t0, t1, parent=rid)
        rec.record("result", tw, t_done, parent=rid)
        rec.record("request", min(t_due, t0), t_done, span_id=rid,
                   shape=shape.name, n=int(shape.x.size))
        run.check(f"request {shape.name}", res.output, shape.expected)
        run.sample("request", (t_done - t_due) / 1e9, rec.store)
        run.sample("lag", (t0 - t_due) / 1e9, False)
        run.sample("submit", (t1 - t0) / 1e9, False)

    def closed_loop(self, run: Run, seconds: float) -> None:
        stop = time.perf_counter() + seconds
        elems = [0] * self.CLIENTS
        done = [0] * self.CLIENTS

        def client(c: int) -> None:
            k = c
            while time.perf_counter() < stop:
                shape = self.shapes[k % len(self.shapes)]
                k += self.CLIENTS
                try:
                    res = self.front.submit_chain(
                        shape.ops, shape.x).result(timeout=30.0)
                except Exception as exc:
                    run.fail(f"closed-loop {shape.name}", exc)
                    continue
                if run.check(f"closed-loop {shape.name}", res.output,
                             shape.expected):
                    elems[c] += shape.x.size
                    done[c] += 1

        t0 = time.perf_counter()
        threads = [threading.Thread(target=client, args=(c,),
                                    name=f"layers-client-{c}")
                   for c in range(self.CLIENTS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        elapsed = time.perf_counter() - t0
        self.closed_meps = sum(elems) / elapsed / 1e6
        self.closed_rps = sum(done) / elapsed

    def mean_elems(self) -> float:
        return float(np.mean([s.x.size for s in self.shapes]))

    def op_elems(self) -> float:
        return self.mean_elems()

    def throughput_meps(self, run) -> float:
        return self.closed_meps

    def detail(self, run) -> dict:
        p = "fleet" if self.fleet else "serve"
        a, b = self.stats_a, self.stats_b
        lat_ms = [v * 1e3 for v in run.values("request")]
        lat_a, wait_a = a["serve.latency_ms"], a["serve.batch_wait_ms"]

        def phase_b_mean(name: str) -> float:
            db = b[name]["sum"] - a[name]["sum"]
            return db / max(1, b[name]["count"] - a[name]["count"])

        out = {
            "throughput_rps": _metric(self.closed_rps, "req/s"),
            "latency_p90_ms": _metric(_pct(lat_ms, 90), "ms", len(lat_ms)),
            f"{p}.submit_us.p50": _metric(
                _median(run.values("submit")) * 1e6, "us", len(lat_ms)),
            f"{p}.batch_wait_ms.p50": _metric(wait_a["p50"], "ms",
                                              wait_a["count"]),
            f"{p}.batch_size.mean": _metric(
                phase_b_mean("serve.batch_size"), "count"),
            f"{p}.plan_hit_rate": _metric(b["plan_cache.hit_rate"], "ratio"),
            f"{p}.latency_p99_ms": _metric(_pct(lat_ms, 99), "ms",
                                           len(lat_ms)),
            f"{p}.retries": _metric(b.get("serve.retries", 0), "count"),
            f"{p}.degraded": _metric(b.get("serve.degraded", 0), "count"),
            f"{p}.shed": _metric(run.failed, "count"),
            "loadgen.lag_p99_ms": _metric(
                _pct(run.values("lag"), 99) * 1e3, "ms", len(lat_ms)),
        }
        # Server-side latency runs from admission to completion; the
        # client's extra time is hand-off (serve) or transport (fleet).
        gap = float(np.mean(lat_ms)) - lat_a["mean"]
        if self.fleet:
            out["fleet.worker_latency_ms.p50"] = _metric(
                lat_a["p50"], "ms", lat_a["count"])
            out["fleet.transport_ms.mean"] = _metric(gap, "ms")
            out["fleet.route_keys"] = _metric(b["ring"]["keys"], "count")
            out["fleet.routing_skew"] = _metric(b["ring"]["skew"], "ratio")
        else:
            out["serve.server_latency_ms.p50"] = _metric(
                lat_a["p50"], "ms", lat_a["count"])
            out["serve.handoff_ms.mean"] = _metric(gap, "ms")
            out["serve.exec_ms.mean"] = _metric(
                phase_b_mean("serve.latency_ms")
                - phase_b_mean("serve.batch_wait_ms"), "ms")
        return out


class StreamWorkload(Workload):
    """stream_4m: a float32 memmap, 35% removable values, repeat runs,
    and one run straddling every shard boundary; ``stream_run``
    alternates ``workers=0`` and ``workers=2``."""

    op_name = "stream.sequential"
    children_rss = "stream.pool_worker_rss_mb"
    N = 1 << 22
    SHARD = 1 << 19

    def inputs(self, rng, scratch) -> None:
        n = self.N
        values = rng.integers(1, 64, n).astype(np.float32)
        values[rng.random(n) < 0.35] = REMOVE
        starts = rng.integers(0, n - 8, n // 64)
        values[starts[:, None] + np.arange(8)] = values[starts][:, None]
        for b in range(self.SHARD, n, self.SHARD):
            values[b - 4:b + 4] = rng.integers(1, 64)
        path = scratch / "stream_input.f32"
        values.tofile(path)
        self.mm = np.memmap(path, dtype=np.float32, mode="r", shape=(n,))
        kept = [compact_ref(values[lo:lo + self.SHARD], REMOVE)
                for lo in range(0, n, self.SHARD)]
        # unique's shard-boundary protocol drops a shard's first kept
        # element when it repeats the previous shard's last one.
        self.expected_drops = sum(
            int(prev.size > 0 and cur.size > 0 and cur[0] == prev[-1])
            for prev, cur in zip(kept, kept[1:]))
        self.expected = unique_ref(np.concatenate(kept))
        self.canonical = values[:self.SHARD].copy()

    def setup(self, run) -> None:
        from repro.stream.source import MemmapSource

        self.source = MemmapSource(self.mm)
        self.cfg = DSConfig(backend="vectorized", shard_elems=self.SHARD)
        self.ladder = Ladder(self.canonical, self.cfg)
        for workers in (0, 2):
            self._stream(run, workers, run.mute)

    def _stream(self, run, workers: int, rec: Recorder) -> float:
        name = "stream.pooled" if workers else "stream.sequential"
        with rec.span(name, workers=workers) as sp:
            res = repro.stream_run(CHAIN, self.source, config=self.cfg,
                                   workers=workers)
        run.check(name, res.output, self.expected)
        drops = res.extras.get("boundary_drops")
        if drops != self.expected_drops:
            run.fail(name, ValueError(
                f"boundary_drops {drops} != {self.expected_drops}"))
        self.shards = res.extras.get("shards")
        return sp.dur_s

    def run(self, run) -> None:
        seconds = run.seconds
        if run.trace:
            self.ladder.rounds(run, seconds * LADDER_SHARE)
            seconds *= 1 - LADDER_SHARE
            self._loads(run)
        for i in Run.loop(seconds):
            rec = run.recorder(i // 2)
            for workers in ((0, 2) if i % 2 == 0 else (2, 0)):
                dur = self._stream(run, workers, rec)
                run.sample("stream.pooled" if workers
                           else "stream.sequential", dur, rec.store)

    def _loads(self, run) -> None:
        """Time one materialized ``MemmapSource.read`` per shard."""
        with run.rec.span("load") as root:
            for lo in range(0, self.N, self.SHARD):
                with run.rec.span("stream.load", root, lo=lo):
                    np.array(self.source.read(lo, lo + self.SHARD))

    def close(self) -> None:
        self.mm = None
        self.source = None

    def op_elems(self) -> float:
        return float(self.N)

    def throughput_meps(self, run) -> float:
        return self.N / _median(run.values("stream.pooled")) / 1e6

    def detail(self, run) -> dict:
        seq = _median(run.values("stream.sequential"))
        pooled = _median(run.values("stream.pooled"))
        out = {
            "stream_meps": _metric(self.N / seq / 1e6, "Melem/s",
                                   len(run.values("stream.sequential"))),
            "stream_pooled_meps": _metric(self.throughput_meps(run),
                                          "Melem/s",
                                          len(run.values("stream.pooled"))),
            "stream.shards": _metric(self.shards, "count"),
            "stream.boundary_drops": _metric(self.expected_drops, "count"),
            "stream.pool_speedup_x": _metric(seq / pooled, "x"),
        }
        if run.trace:
            loads = durations_us(run.rec.spans)["stream.load"]
            load_ms = _median(loads) / 1e3
            compute_ms = _median(durations_us(run.rec.spans)
                                 ["primitives.chain"]) / 1e3
            out["stream.load_ms"] = _metric(load_ms, "ms", len(loads))
            out["stream.compute_ms"] = _metric(compute_ms, "ms")
            out["stream.seq_overhead_x"] = _metric(
                seq * 1e3 / (self.shards * (load_ms + compute_ms)), "x")
        return out


WORKLOADS = {
    "batch_1k": lambda: RoundWorkload(1024, "vectorized"),
    "batch_1m": lambda: RoundWorkload(1 << 20, "vectorized"),
    "sim_64k": lambda: RoundWorkload(1 << 16, "simulated"),
    "serve_1k": lambda: ServeWorkload(fleet=False),
    "fleet_1k": lambda: ServeWorkload(fleet=True),
    "stream_4m": lambda: StreamWorkload(),
}


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-ns", type=int, default=None,
                        help="time.monotonic_ns() just before this "
                             "interpreter was spawned; set-up time runs "
                             "from here")
    parser.add_argument("--scratch", default=".",
                        help="directory for input files")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop before the first timed op")
    parser.add_argument("--trace-dir", default=None,
                        help="write this run's Chrome trace here")
    parser.add_argument("--inject-corruption", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spawn_ns = args.spawn_ns if args.spawn_ns is not None \
        else time.monotonic_ns()

    wl = WORKLOADS[args.workload]()
    run = Run(args.seconds, bool(args.trace), args.inject_corruption)
    shm_before = _shm_entries()
    t0 = time.perf_counter()
    # SeedSequence takes only non-negative seeds; any integer is valid here.
    rng = np.random.default_rng(args.seed % 2**64)
    wl.inputs(rng, Path(args.scratch))
    gen_s = time.perf_counter() - t0
    try:
        wl.setup(run)
        setup_s = (time.monotonic_ns() - spawn_ns) / 1e9 - gen_s
        if not args.setup_only:
            wl.run(run)
    finally:
        wl.close()
    # Checked here, after the front door closed and before interpreter
    # exit, where multiprocessing's resource tracker would unlink (and
    # so hide) any segment the program leaked.
    out = {"workload": args.workload, "setup_s": setup_s, "gen_s": gen_s,
           "shm_leaked": sorted(_shm_entries() - shm_before)}
    if not args.setup_only:
        metrics = wl.per_layer(run) if run.trace else wl.end_to_end(run)
        detail = wl.detail(run)
        if wl.children_rss:
            detail[wl.children_rss] = _metric(
                _rss_mb(resource.RUSAGE_CHILDREN), "MB")
        out.update({
            "checked": run.check.checked,
            "wrong": run.check.wrong,
            "failed": run.failed,
            "errors": run.check.errors,
            "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
            "metrics": metrics,
            "detail": detail,
        })
        if args.trace_dir and run.trace:
            write_chrome_trace(run.rec.spans,
                               Path(args.trace_dir) / f"{args.workload}.json",
                               workload=args.workload)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
