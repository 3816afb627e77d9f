"""The fleet front door: a multi-process serve cluster behind one API.

A :class:`Fleet` forks ``n_workers`` children, each running a full
:class:`repro.serve.Server` (micro-batching, retries, circuit breaker,
flight recorder — the whole single-process serving tier), and routes
every :meth:`submit_chain` to a worker by **consistent-hashing the
request's batch key** (:func:`repro.serve.request.make_batch_key`: op
chain + geometry + dtype + config + backend).  The batch key is exactly
what the plan cache hashes, so identical traffic always lands on the
worker whose plan cache is already warm for it; the bounded-loads ring
(:class:`repro.fleet.hashring.HashRing`) keeps the key placement within
``load_factor`` of the mean at the same time.

Payloads and responses cross the process boundary as shared-memory
descriptors (:mod:`repro.fleet.transport`) — the queues only ever carry
tuples of scalars.  Op chains cross by *name* with predicate
probe-verification at submit.

Lifecycle: :meth:`grow` forks a worker, rebalances the ring, and
re-primes the new owner for every warm key that moved *before* traffic
follows; :meth:`drain` removes a worker from the ring first (so no new
requests can route to it), re-primes the survivors that inherit its
keys, then asks it to finish its in-flight work and exit.  Plan-cache
warmth therefore survives scaling: the parent keeps a registry of every
warm shape under its TuningDB-shaped kernel key and replays
:meth:`~repro.serve.Server.prime` wherever keys land.

:meth:`autoscale_tick` aggregates the workers' ``serve.*`` stats
(:mod:`repro.obs.rollup`) into one
:class:`~repro.fleet.autoscaler.TickSnapshot` and applies the
hysteresis policy; a background ticker thread is optional
(``tick_interval_s > 0``) — the deterministic checks drive ticks
manually.

**Distributed tracing** (``FleetConfig.trace != "off"``): every request
gets a :class:`~repro.obs.distrib.TraceContext` riding the transport
``meta``, every worker's flight-recorder ring holds its spans for the
front door to collect (on drain and on demand), and
:meth:`Fleet.dump_trace` merges it all into one Chrome trace — the
router synthesizing per-request ``serve.request`` → ``route``/
``transport``/``worker``/``response`` spans from its own timestamps
plus the worker's response timing.  Router and workers stamp the one
process clock (:func:`repro.obs.tracer.now_us`), whose epoch the forked
workers inherit, so no offset is measured or applied.  On
breaker/SLO/deadline triggers (worker incident dumps
escalate through the outbox; request timeouts fire router-side) the
fleet gathers every worker's flight ring plus router context into
**one** fleet-wide ``incident-*/`` bundle, written by the router's own
:class:`~repro.obs.flight.FlightRecorder` in the format ``repro
analyze`` and ``repro replay`` already understand.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import errors as _errors
from repro.config import DSConfig
from repro.errors import FleetError
from repro.fleet.autoscaler import Autoscaler, TickSnapshot
from repro.fleet.config import FleetConfig
from repro.fleet.hashring import HashRing
from repro.fleet.transport import freeze_ops, fetch_result, stage_payload
from repro.fleet.worker import worker_main
from repro.futures import Future
from repro.obs.distrib import merge_fleet_trace
from repro.obs.flight import FlightRecorder
from repro.obs.rollup import fleet_p95_ms, merge_server_stats
from repro.obs.tracer import new_span_id, new_trace_id, now_us
from repro.primitives.common import DEFAULT_DEVICE, PrimitiveResult
from repro.serve.request import OpStage, make_batch_key
from repro.stream.engine import normalize_chain
from repro.stream.pool import fork_unavailable_reason, start_resource_tracker
from repro.stream.source import as_source

__all__ = ["Fleet", "FleetFuture"]


class FleetFuture(Future):
    """Client handle to one fleet request's eventual result; implements
    the unified :class:`repro.Future` contract."""

    __slots__ = ("request_id", "worker_id", "_event", "_result", "_error",
                 "_default_timeout", "_on_timeout")

    def __init__(self, request_id: int, worker_id: str,
                 default_timeout: float) -> None:
        self.request_id = request_id
        self.worker_id = worker_id
        self._event = threading.Event()
        self._result: Optional[PrimitiveResult] = None
        self._error: Optional[BaseException] = None
        self._default_timeout = default_timeout
        # Fleet hook fired when result() times out — the router-side
        # trigger of a fleet-wide incident bundle.
        self._on_timeout = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def _resolve(self, result: PrimitiveResult) -> None:
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> PrimitiveResult:
        bound = self._default_timeout if timeout is None else timeout
        if not self._event.wait(bound):
            if self._on_timeout is not None:
                try:
                    self._on_timeout(bound)
                except Exception:  # pragma: no cover - hook must not mask
                    pass
            raise FleetError(
                f"fleet request #{self.request_id} (worker "
                f"{self.worker_id}) not resolved within {bound}s")
        if self._error is not None:
            raise self._error
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._event.is_set() else "pending"
        return (f"FleetFuture(#{self.request_id} -> "
                f"{self.worker_id}, {state})")


class _WorkerHandle:
    __slots__ = ("worker_id", "process", "inbox")

    def __init__(self, worker_id, process, inbox) -> None:
        self.worker_id = worker_id
        self.process = process
        self.inbox = inbox


class _Pending:
    __slots__ = ("future", "scratch", "trace")

    def __init__(self, future, scratch, trace=None) -> None:
        self.future = future
        self.scratch = scratch
        # When fleet tracing is on: router-side request facts the
        # collector turns into serve.request/route/transport/worker/
        # response spans — trace_id, span_id, ops, t_submit_us,
        # t_sent_us, worker_id.
        self.trace = trace


def _revive_error(type_name: str, message: str) -> BaseException:
    """Rebuild a worker-side failure as its typed exception when the
    name maps into :mod:`repro.errors`; anything else (including
    builtins like ``ValueError``) comes back wrapped in
    :class:`FleetError` so callers keep one catchable family."""
    cls = getattr(_errors, type_name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            return cls(message)
        except TypeError:  # pragma: no cover - exotic signatures
            pass
    return FleetError(f"{type_name}: {message}")


class Fleet:
    """Multi-process serve cluster with consistent-hash plan routing.

    Parameters
    ----------
    config:
        :class:`~repro.fleet.config.FleetConfig`; defaults to
        ``FleetConfig.from_env()``.
    ds_config:
        Default :class:`~repro.config.DSConfig` for the workers'
        servers.
    device:
        Device every worker binds its streams to.
    autostart:
        Fork the initial pool immediately (else call :meth:`start`).
    """

    def __init__(self, config: Optional[FleetConfig] = None, *,
                 ds_config: Optional[DSConfig] = None,
                 device=DEFAULT_DEVICE, autostart: bool = True) -> None:
        reason = fork_unavailable_reason()
        if reason is not None:
            raise FleetError(f"fleet workers are unavailable: {reason}")
        self.config = config if config is not None \
            else FleetConfig.from_env()
        self.ds_config = ds_config
        self.device = device
        self._ctx = multiprocessing.get_context("fork")
        self._outbox = self._ctx.Queue()
        self._lock = threading.RLock()
        self._workers: Dict[str, _WorkerHandle] = {}
        self._ring = HashRing(vnodes=self.config.vnodes,
                              load_factor=self.config.load_factor)
        self._pending: Dict[int, _Pending] = {}
        self._waiters: Dict[object, dict] = {}
        self._req_ids = itertools.count(1)
        self._token_ids = itertools.count(1)
        self._worker_seq = itertools.count(0)
        #: kernel-key -> prime spec; how warmth survives scaling.
        self._warm: Dict[str, dict] = {}
        self._route_counts: Dict[str, int] = {}
        self.autoscaler = Autoscaler(self.config)
        self.scale_ups = 0
        self.scale_downs = 0
        self._last_completed = 0
        self._running = False
        self._collector: Optional[threading.Thread] = None
        self._ticker: Optional[threading.Thread] = None
        # -- distributed tracing state --
        self.tracing = self.config.trace != "off"
        # The router's ring holds the request spans it synthesizes (it
        # has no tracer, so it is never installed as a span sink) and
        # writes the fleet-wide incident bundles.
        self.flight = FlightRecorder(
            self.config.serve.flight_capacity,
            incident_dir=self.config.incident_dir or "incidents",
            cooldown_ms=self.config.serve.incident_cooldown_ms)
        #: spans archived from drained/dead workers, so a merged trace
        #: survives the processes that produced it.
        self._dead_spans: Dict[str, List[dict]] = {}
        if autostart:
            self.start()

    @property
    def fleet_incidents(self) -> List[Path]:
        """The fleet-wide incident bundles written so far."""
        return list(self.flight.dumps)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "Fleet":
        if self._running:
            return self
        self._running = True
        self._collector = threading.Thread(
            target=self._collect_loop, name="fleet-collector", daemon=True)
        self._collector.start()
        for _ in range(self.config.n_workers):
            self.grow(count_scale_event=False)
        if self.config.tick_interval_s > 0:
            self._ticker = threading.Thread(
                target=self._tick_loop, name="fleet-ticker", daemon=True)
            self._ticker.start()
        return self

    def close(self) -> None:
        """Drain every worker and stop the fleet."""
        if not self._running:
            return
        self._running = False  # stops the ticker loop
        if self._ticker is not None:
            self._ticker.join(timeout=self.config.tick_interval_s + 1.0)
            self._ticker = None
        with self._lock:
            worker_ids = list(self._workers)
        for wid in worker_ids:
            try:
                self.drain(wid, count_scale_event=False)
            except FleetError:  # pragma: no cover - kill instead
                handle = self._workers.pop(wid, None)
                if handle is not None and handle.process.is_alive():
                    handle.process.terminate()
        self._outbox.put(("stop",))
        if self._collector is not None:
            self._collector.join(timeout=5.0)
            self._collector = None
        # Any request still pending lost its worker.
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for entry in pending:  # pragma: no cover - drain resolves first
            entry.future._fail(FleetError("fleet closed mid-request"))
            self._release_scratch(entry)

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def n_workers(self) -> int:
        with self._lock:
            return len(self._workers)

    @property
    def worker_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._workers)

    # -- scaling --------------------------------------------------------

    def _serve_config_for(self, worker_id: str, index: int):
        cfg = self.config.serve
        changes = {"seed": (cfg.seed or 0) + index}
        if self.config.incident_dir is not None:
            changes["incident_dir"] = os.path.join(
                self.config.incident_dir, worker_id)
        return cfg.replace(**changes)

    def grow(self, *, count_scale_event: bool = True) -> str:
        """Fork one worker, add it to the ring, migrate + re-prime the
        keys the bounded-loads rebalance hands it, and return its id."""
        index = next(self._worker_seq)
        worker_id = f"w{index}"
        inbox = self._ctx.Queue()
        up = self._register_waiter(("up", worker_id))
        proc = self._ctx.Process(
            target=worker_main,
            args=(worker_id, inbox, self._outbox,
                  self._serve_config_for(worker_id, index),
                  self.ds_config, self.device, self.config.trace),
            name=f"fleet-{worker_id}", daemon=True)
        start_resource_tracker()
        proc.start()
        handle = _WorkerHandle(worker_id, proc, inbox)
        if not up["event"].wait(timeout=30.0):
            proc.terminate()  # pragma: no cover - fork never came up
            raise FleetError(f"worker {worker_id} failed to start")
        with self._lock:
            self._workers[worker_id] = handle
            self._route_counts.setdefault(worker_id, 0)
            self._ring.add(worker_id)
            moved = self._ring.rebalance()
            if count_scale_event:
                self.scale_ups += 1
            prime_specs = self._prime_specs_locked(moved)
        self._prime_workers(prime_specs)
        return worker_id

    def drain(self, worker_id: Optional[str] = None, *,
              count_scale_event: bool = True) -> dict:
        """Gracefully remove a worker: take it off the ring first (no
        new requests can route to it), re-prime the survivors that
        inherit its keys, let it finish its in-flight work, then join
        it.  Returns its final stats snapshot."""
        with self._lock:
            if not self._workers:
                raise FleetError("no workers to drain")
            if worker_id is None:
                loads = self._ring.loads()
                worker_id = min(sorted(self._workers),
                                key=lambda w: loads.get(w, 0))
            if worker_id not in self._workers:
                raise FleetError(f"unknown worker {worker_id!r}")
            handle = self._workers[worker_id]
            moved = (self._ring.remove(worker_id)
                     if len(self._workers) > 1 else {})
            if len(self._workers) == 1 and worker_id in self._ring:
                self._ring.remove(worker_id)
            prime_specs = self._prime_specs_locked(moved)
        self._prime_workers(prime_specs)
        waiter = self._register_waiter(next(self._token_ids))
        handle.inbox.put(("drain", waiter["token"]))
        if not waiter["event"].wait(timeout=self.config.drain_timeout_s):
            handle.process.terminate()
            with self._lock:
                self._workers.pop(worker_id, None)
            raise FleetError(
                f"worker {worker_id} did not drain within "
                f"{self.config.drain_timeout_s}s")
        handle.process.join(timeout=5.0)
        with self._lock:
            self._workers.pop(worker_id, None)
            if count_scale_event:
                self.scale_downs += 1
        stats, warm_keys, spans = waiter["payload"] or (None, [], [])
        if spans:
            # Archive the drained worker's span ring so a merged trace
            # dumped later still covers the whole fleet's history.
            with self._lock:
                self._dead_spans.setdefault(worker_id, []).extend(spans)
        return {"worker_id": worker_id, "stats": stats,
                "warm_keys": warm_keys}

    def _prime_specs_locked(self, moved: Dict[str, str]) -> List[tuple]:
        """(handle, spec) pairs for every migrated key we know how to
        re-warm.  Caller holds the lock."""
        out = []
        for key, new_worker in moved.items():
            spec = self._warm.get(key)
            handle = self._workers.get(new_worker)
            if spec is not None and handle is not None:
                out.append((handle, spec))
        return out

    def _prime_workers(self, prime_specs: List[tuple]) -> None:
        for handle, spec in prime_specs:
            desc, scratch, meta = stage_payload(spec["values"])
            waiter = self._register_waiter(next(self._token_ids))
            handle.inbox.put(("prime", waiter["token"], spec["frozen"],
                              desc, meta))
            ok = waiter["event"].wait(timeout=self.config.drain_timeout_s)
            if scratch is not None:
                scratch.close()
                scratch.unlink()
            if not ok:  # pragma: no cover - worker wedged
                raise FleetError(
                    f"re-priming {handle.worker_id} timed out")

    # -- submission -----------------------------------------------------

    def submit_chain(self, ops, values, *,
                     deadline_ms: Optional[float] = None) -> FleetFuture:
        """Submit one op-chain request; returns a :class:`FleetFuture`.

        Accepts the same op spec as
        :meth:`repro.serve.Server.submit_chain`.  The request routes by
        its batch key, so repeats of the same traffic shape always hit
        the same worker's warm plan cache.
        """
        stages = [OpStage(desc, args, kwargs)
                  for desc, args, kwargs in normalize_chain(ops)]
        frozen = freeze_ops(ops)  # verifies predicates cross safely
        source = as_source(values, site="Fleet.submit")
        array = source.materialize() if source.in_core else source
        cfg = self.ds_config if self.ds_config is not None else DSConfig()
        batch_key = make_batch_key(stages, array, cfg,
                                   cfg.resolved_backend())
        desc, scratch, meta = stage_payload(values)
        meta["deadline_ms"] = deadline_ms
        rid = next(self._req_ids)
        trace = None
        if self.tracing:
            # One trace per fleet request.  The root span id is minted
            # now so the worker's spans can parent under it before the
            # root itself is emitted (on response).
            trace = {
                "trace_id": new_trace_id(),
                "span_id": new_span_id(),
                "request_id": rid,
                "ops": "+".join(s.desc.short for s in stages),
                "t_submit_us": now_us(),
                "t_sent_us": None,
                "worker_id": None,
            }
            meta["trace"] = {
                "trace_id": trace["trace_id"],
                "parent_span_id": trace["span_id"],
                "request_id": rid,
            }
        with self._lock:
            if not self._running or not self._workers:
                raise FleetError("fleet is not running")
            worker_id = self._ring.route(batch_key)
            handle = self._workers[worker_id]
            self._route_counts[worker_id] = \
                self._route_counts.get(worker_id, 0) + 1
            self._note_warm_locked(batch_key, frozen, stages, array, cfg)
            future = FleetFuture(rid, worker_id,
                                 self.config.request_timeout_s)
            self._pending[rid] = _Pending(future, scratch, trace)
        if trace is not None:
            trace["worker_id"] = worker_id
            trace["t_sent_us"] = now_us()
            future._on_timeout = (
                lambda bound, _rid=rid, _wid=worker_id:
                self._gather_incident(
                    "deadline",
                    f"request #{_rid} on {_wid} exceeded {bound}s",
                    source_worker=_wid))
        handle.inbox.put(("req", rid, frozen, desc, meta))
        return future

    def submit(self, op: str, values, *args,
               deadline_ms: Optional[float] = None,
               **kwargs) -> FleetFuture:
        """Single-op convenience over :meth:`submit_chain`."""
        entry: tuple = (op, *args, kwargs) if kwargs else (op, *args)
        return self.submit_chain([entry], values, deadline_ms=deadline_ms)

    def _note_warm_locked(self, batch_key, frozen, stages, array,
                          cfg) -> None:
        """Register the request shape for re-priming, under the same
        TuningDB-shaped kernel key the worker's server reports from
        ``warm_keys()``.  In-core payloads keep a reference to the
        input so :meth:`grow`/:meth:`drain` can replay ``prime``."""
        if not getattr(array, "in_core", True) \
                or not isinstance(array, np.ndarray):
            return
        route_key = repr(batch_key)  # what the ring migrations report
        if route_key not in self._warm:
            from repro.tune.db import kernel_key

            self._warm[route_key] = {
                "frozen": frozen, "values": array,
                "kernel": kernel_key(stages, array, cfg,
                                     cfg.resolved_backend()),
            }

    def prime(self, ops, values) -> str:
        """Pre-warm the worker the shape routes to (plan cache);
        returns that worker's id."""
        stages = [OpStage(desc, args, kwargs)
                  for desc, args, kwargs in normalize_chain(ops)]
        frozen = freeze_ops(ops)
        source = as_source(values, site="Fleet.prime")
        array = source.materialize() if source.in_core else source
        cfg = self.ds_config if self.ds_config is not None else DSConfig()
        batch_key = make_batch_key(stages, array, cfg,
                                   cfg.resolved_backend())
        with self._lock:
            if not self._running or not self._workers:
                raise FleetError("fleet is not running")
            worker_id = self._ring.route(batch_key)
            handle = self._workers[worker_id]
            self._note_warm_locked(batch_key, frozen, stages, array, cfg)
        desc, scratch, meta = stage_payload(values)
        waiter = self._register_waiter(next(self._token_ids))
        handle.inbox.put(("prime", waiter["token"], frozen, desc, meta))
        ok = waiter["event"].wait(timeout=self.config.drain_timeout_s)
        if scratch is not None:
            scratch.close()
            scratch.unlink()
        if not ok:
            raise FleetError(f"priming {worker_id} timed out")
        return worker_id

    # -- control plane --------------------------------------------------

    def _register_waiter(self, token) -> dict:
        waiter = {"token": token, "event": threading.Event(),
                  "payload": None}
        with self._lock:
            self._waiters[token] = waiter
        return waiter

    def set_fault(self, mode) -> None:
        """Flip every worker's chaos injector (``None`` / ``"always"``
        / 0..1 rate) — the incident-replay story's failure source."""
        self._broadcast("fault", mode)

    def record_profile(self, **fields) -> None:
        """Push a ``loadgen.profile`` event into every worker's flight
        ring, so incident bundles the workers dump carry the traffic
        facts :mod:`repro.fleet.replay` reconstructs a run from."""
        self._broadcast("profile", dict(fields))

    def _broadcast(self, tag: str, payload) -> None:
        with self._lock:
            handles = list(self._workers.values())
        for handle in handles:
            waiter = self._register_waiter(next(self._token_ids))
            handle.inbox.put((tag, waiter["token"], payload))
            if not waiter["event"].wait(timeout=10.0):
                raise FleetError(
                    f"worker {handle.worker_id} did not ack {tag!r}")

    def worker_stats(self) -> Dict[str, dict]:
        """One ``Server.stats()`` snapshot per live worker."""
        with self._lock:
            handles = list(self._workers.values())
        waiters = []
        for handle in handles:
            waiter = self._register_waiter(next(self._token_ids))
            handle.inbox.put(("stats", waiter["token"]))
            waiters.append((handle.worker_id, waiter))
        out = {}
        for worker_id, waiter in waiters:
            if not waiter["event"].wait(timeout=10.0):
                raise FleetError(
                    f"worker {worker_id} did not answer a stats probe")
            if waiter["payload"] is None:
                raise FleetError(
                    f"worker {worker_id} failed its stats probe")
            stats, warm_keys = waiter["payload"]
            stats = dict(stats)
            stats["warm_key_list"] = warm_keys
            out[worker_id] = stats
        return out

    # -- distributed tracing --------------------------------------------

    def _gather_from_workers(self, tag: str) -> Dict[str, object]:
        """Broadcast a payload-less control message and collect the
        acks: ``{worker_id: payload}`` for every worker that answered
        (a wedged worker is simply absent — gathering must degrade,
        not hang, mid-incident)."""
        with self._lock:
            handles = list(self._workers.values())
        waiters = []
        for handle in handles:
            waiter = self._register_waiter(next(self._token_ids))
            handle.inbox.put((tag, waiter["token"]))
            waiters.append((handle.worker_id, waiter))
        out: Dict[str, object] = {}
        for worker_id, waiter in waiters:
            if waiter["event"].wait(timeout=10.0) \
                    and waiter["payload"] is not None:
                out[worker_id] = waiter["payload"]
        return out

    def collect_spans(self) -> Dict[str, List[dict]]:
        """Every worker's span-ring snapshot (live workers probed now;
        drained workers from the archive), keyed by worker id."""
        out: Dict[str, List[dict]] = {}
        with self._lock:
            for worker_id, spans in self._dead_spans.items():
                out[worker_id] = list(spans)
        if self.tracing:
            for worker_id, spans in self._gather_from_workers(
                    "trace").items():
                out.setdefault(worker_id, []).extend(spans or [])
        return out

    def dump_trace(self, path=None) -> dict:
        """Merge the router's request spans and every worker's span ring
        into one Chrome trace document (written to ``path`` when given).
        Every process stamps the one process clock, so one request's
        ``serve.request`` (router) visually contains the worker-side
        batch/kernel spans it caused."""
        return merge_fleet_trace(self.flight.span_dicts(),
                                 self.collect_spans(), path=path)

    def _emit_router_spans(self, trace: dict, timing: Optional[dict],
                           *, error: Optional[str] = None) -> None:
        """Synthesize the router's view of one finished request into the
        router's flight ring: a root ``serve.request`` spanning submit →
        response, with ``route`` / ``transport`` / ``worker`` /
        ``response`` children splitting the wall time.  Worker-side
        timestamps come from the response's ``timing`` dict, stamped on
        the same process clock as the router's own."""
        t_done = now_us()
        rid = trace["request_id"]
        t_submit = trace["t_submit_us"]
        t_sent = trace["t_sent_us"]
        t_sent = t_submit if t_sent is None else t_sent
        track = f"serve:req{rid}"

        def emit(name, start, end, span_id=None, **args):
            ts = round(start, 3)
            self.flight.add({
                "name": name, "cat": "serve", "track": track,
                "ts_us": ts, "dur_us": max(0.0, round(end, 3) - ts),
                "args": args,
                "span_id": span_id if span_id else new_span_id(),
            })

        root_args = {"trace_id": trace["trace_id"], "request_id": rid,
                     "ops": trace["ops"], "worker": trace["worker_id"]}
        if error is not None:
            root_args["error"] = error
        emit("serve.request", t_submit, t_done,
             span_id=trace["span_id"], **root_args)
        child = {"trace_id": trace["trace_id"],
                 "parent_span_id": trace["span_id"]}
        emit("serve.route", t_submit, t_sent, **child)
        if timing is not None:
            recv, resp = timing["recv_us"], timing["respond_us"]
            emit("serve.transport", t_sent, recv, **child)
            emit("serve.worker", recv, resp,
                 worker=trace["worker_id"], **child)
            emit("serve.response", resp, t_done, **child)

    def _gather_incident(self, trigger: str, reason: str, *,
                         source_worker: Optional[str] = None,
                         worker_bundle: Optional[str] = None
                         ) -> Optional[Path]:
        """Gather a **fleet-wide** incident bundle: every worker's
        flight ring (spans + events + local bundle paths) plus the
        router's context and the merged trace, written by
        the router's flight recorder under its per-trigger cooldown."""
        if self.config.incident_dir is None or not self.flight.claim(trigger):
            return None
        gathered = self._gather_from_workers("bundle")
        with self._lock:
            workers = {worker_id: {"spans": list(spans)}
                       for worker_id, spans in self._dead_spans.items()}
        worker_meta: Dict[str, dict] = {}
        for worker_id in sorted(gathered):
            payload = gathered[worker_id] or {}
            spans = payload.get("spans") or []
            entry = workers.setdefault(worker_id, {"spans": []})
            entry["spans"].extend(spans)
            entry["events"] = payload.get("events") or []
            worker_meta[worker_id] = {
                "incidents": payload.get("incidents") or [],
                "n_spans": len(spans),
            }
        return self.flight.dump(
            trigger, reason=reason, ds_config=self.ds_config,
            serve_config=self.config.serve,
            context={
                "n_workers": self.n_workers,
                "workers": worker_meta,
                "routing": dict(self._route_counts),
                "scale": {"ups": self.scale_ups,
                          "downs": self.scale_downs},
            },
            workers=workers, scope="fleet",
            source_worker=source_worker, worker_bundle=worker_bundle)

    def stats(self) -> dict:
        """The fleet health view: per-worker snapshots, the merged
        rollup (:mod:`repro.obs.rollup`), ring placement/skew, routing
        counts, autoscaler history and the warm-key registry."""
        workers = self.worker_stats()
        rollup = merge_server_stats(workers)
        with self._lock:
            ring = {
                "loads": self._ring.loads(),
                "keys": len(self._ring.assignments()),
                "skew": round(self._ring.skew(), 4),
            }
            routing = dict(self._route_counts)
            history = list(self.autoscaler.history[-20:])
            warm = sorted({spec["kernel"] for spec in self._warm.values()})
            scale = {"ups": self.scale_ups, "downs": self.scale_downs}
            trace = {
                "mode": self.config.trace,
                "router_spans": len(self.flight.spans()),
                "fleet_incidents": [str(p) for p in self.fleet_incidents],
            }
        return {
            "kind": "repro-fleet-stats",
            "n_workers": len(workers),
            "workers": workers,
            "rollup": rollup,
            "ring": ring,
            "routing": routing,
            "autoscale": {"history": history, **scale},
            "warm_keys": warm,
            "trace": trace,
        }

    # -- autoscaling ----------------------------------------------------

    def autoscale_tick(self) -> Optional[str]:
        """Aggregate one observation, run the policy, apply the
        decision.  Returns ``"up"``, ``"down"`` or ``None``."""
        workers = self.worker_stats()
        merged = merge_server_stats(workers)
        completed = int(merged.get("serve.completed", 0) or 0)
        snap = TickSnapshot(
            n_workers=len(workers),
            queue_depth=int(merged.get("queue_depth", 0)),
            inflight=int(merged.get("inflight", 0)),
            p95_ms=fleet_p95_ms(merged) or 0.0,
            completed_delta=completed - self._last_completed,
        )
        self._last_completed = completed
        decision = self.autoscaler.observe(snap)
        if decision == "up":
            self.grow()
        elif decision == "down":
            self.drain()
        return decision

    def _tick_loop(self) -> None:  # pragma: no cover - timing-driven
        while self._running:
            time.sleep(self.config.tick_interval_s)
            if not self._running:
                break
            try:
                self.autoscale_tick()
            except FleetError:
                continue  # a worker mid-drain; next tick recovers

    # -- the collector thread -------------------------------------------

    def _release_scratch(self, entry: _Pending) -> None:
        if entry.scratch is not None:
            try:
                entry.scratch.close()
                entry.scratch.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    def _collect_loop(self) -> None:
        """Single reader of the shared outbox; resolves request futures
        and control-message waiters."""
        while True:
            msg = self._outbox.get()
            tag = msg[0]
            if tag == "stop":
                return
            if tag == "res":
                _, rid, status, *rest = msg
                with self._lock:
                    entry = self._pending.pop(rid, None)
                if entry is None:  # pragma: no cover - late response
                    if status == "ok":
                        try:
                            fetch_result(rest[0])
                        except Exception:
                            pass
                    continue
                # Router spans are synthesized *before* the future
                # resolves, so a dump_trace() racing the client's
                # result() can never miss a finished request's root.
                try:
                    if status == "ok":
                        desc, extras, timing = rest
                        output = fetch_result(desc)
                        if entry.trace is not None:
                            self._emit_router_spans(entry.trace, timing)
                        entry.future._resolve(PrimitiveResult(
                            output=output, counters=[],
                            device=self.device, extras=dict(extras)))
                    else:
                        type_name, message, timing = rest
                        if entry.trace is not None:
                            self._emit_router_spans(
                                entry.trace, timing,
                                error=f"{type_name}: {message}")
                        entry.future._fail(
                            _revive_error(type_name, message))
                except Exception as exc:  # pragma: no cover
                    entry.future._fail(FleetError(
                        f"response transport failed: {exc}"))
                finally:
                    self._release_scratch(entry)
            elif tag == "up":
                _, worker_id, _n = msg
                self._fulfil(("up", worker_id), None)
            elif tag == "stats":
                _, _worker_id, token, stats, warm_keys = msg
                self._fulfil(token, (stats, warm_keys))
            elif tag == "drained":
                _, _worker_id, token, stats, warm_keys, spans = msg
                self._fulfil(token, (stats, warm_keys, spans))
            elif tag == "ack":
                _, _worker_id, token, payload = msg
                self._fulfil(token, payload)
            elif tag == "incident":
                # A worker's flight recorder just dumped locally; gather
                # the fleet-wide bundle on a side thread — the collector
                # must stay free to read the gather's own acks.
                _, worker_id, trigger, path, reason = msg
                threading.Thread(
                    target=self._gather_incident,
                    args=(trigger, reason),
                    kwargs={"source_worker": worker_id,
                            "worker_bundle": path},
                    name="fleet-incident", daemon=True).start()
            elif tag == "err":
                # Control-message failure: fulfil the waiter (payload
                # None) so the caller times out fast instead of slow.
                if len(msg) >= 4:
                    self._fulfil(msg[3], None)

    def _fulfil(self, token, payload) -> None:
        with self._lock:
            waiter = self._waiters.pop(token, None)
        if waiter is not None:
            waiter["payload"] = payload
            waiter["event"].set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Fleet(workers={self.n_workers}, "
                f"keys={len(self._ring.assignments())}, "
                f"scale_ups={self.scale_ups}, "
                f"scale_downs={self.scale_downs})")
