"""The micro-batching DS server: queue → batcher → worker pool.

Architecture (one in-process service; see docs/serving.md)::

    submit() ──admission──> request queue ──window──> batch queue
      │ Overloaded when full     │ max_wait_ms /        │
      │                          │ max_batch_size       ▼
      ▼                          ▼                 worker pool
    ServeFuture <──resolve── deadline check    (one Stream each)
                                               fast path: Pipeline
                                               (shared PlanCache,
                                                fusion, retries)
                                               fallback: sequential
                                               baseline via breaker

* **Admission control** — :meth:`Server.submit` bounds in-flight
  requests (queued + executing) at ``max_queue_depth`` and sheds the
  excess with a typed :class:`~repro.errors.Overloaded` instead of
  growing without bound.
* **Micro-batching** — a single batcher thread closes a window on
  ``max_batch_size`` or ``max_wait_ms`` (whichever first) and groups
  requests with equal :func:`~repro.serve.request.make_batch_key`
  (same op chain, geometry, dtype, params, config, backend) into one
  :class:`~repro.pipeline.Pipeline` batch, so identical traffic shares
  a plan-cache entry and chained ops ride fused flag chains.
* **Workers** — ``num_workers`` threads, each with its own
  :class:`~repro.simgpu.stream.Stream`, execute batches: fast path
  through the pipeline engine with bounded exponential-backoff retries
  on transient :class:`~repro.errors.LaunchError`; on repeated failure
  the per-op :class:`~repro.serve.breaker.CircuitBreaker` opens and the
  batch (and subsequent ones) is served by the sequential baseline
  (:mod:`repro.serve.degrade`) until a cooldown probe of the fast path
  succeeds.
* **Deadlines** — a request that expires while queued is finalized
  with :class:`~repro.errors.DeadlineExceeded` and *never executed*;
  :meth:`ServeFuture.cancel <repro.serve.request.ServeFuture.cancel>`
  similarly removes not-yet-dispatched work.
* **Observability** — every edge increments a ``serve.*`` metric on
  the server's registry (queue-depth gauge, batch-size/wait and
  latency histograms, shed/expired/retry/degraded counters), and when
  a :mod:`repro.obs` tracer is active each request additionally gets a
  ``serve.request`` span with ``queued``/``batch_window``/``execute``/
  ``finalize`` children.  Independently of tracing, an always-on
  :class:`~repro.obs.flight.FlightRecorder` rings the recent spans and
  lifecycle events; breaker-open, deadline-expiry, retry-exhaustion and
  SLO-breach triggers dump it into an incident bundle naming the
  affected ``request_id``\\ s, op chain and failing phase (see
  docs/observability.md).  Batch execution runs under
  :func:`repro.obs.annotate`, so kernel-launch spans carry the request
  ids they served, and each launch a batch ran is recorded as one
  ``launch.done`` event naming them.  With ``event_log`` set, the
  recorder also appends every event to that JSONL file.
"""

from __future__ import annotations

import queue as _queue_mod
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import obs as _obs
from repro.config import DEFAULT_CONFIG, DSConfig
from repro.errors import (
    DeadlineExceeded,
    LaunchError,
    Overloaded,
    RequestCancelled,
    ResourceError,
    ServeError,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.engine import Pipeline
from repro.pipeline.plan import PlanCache
from repro.primitives.common import DEFAULT_DEVICE, PrimitiveResult
from repro.primitives.opspec import get_op
from repro.serve.breaker import CircuitBreaker
from repro.serve.config import ServeConfig
from repro.serve.degrade import degraded_result, run_degraded_stage
from repro.serve.request import (
    CANCELLED,
    DISPATCHED,
    DONE,
    EXPIRED,
    FAILED,
    OpStage,
    QUEUED,
    ServeFuture,
    ServeRequest,
    make_batch_key,
)
from repro.simgpu.device import DeviceSpec
from repro.simgpu.stream import Stream
from repro.stream.engine import normalize_chain

__all__ = ["Server"]

#: Errors the executor treats as transient: retry, then degrade.  The
#: simulator raises LaunchError/ResourceError for launch-time failures;
#: injected faults reuse LaunchError.
TRANSIENT_ERRORS = (LaunchError, ResourceError)

# The obs tracer keeps per-track span stacks that are not safe against
# interleaved pushes from several threads on the *same* track (the
# pipeline's spans land on the host track).  Workers therefore serialize
# pipeline execution whenever a tracer is active; with tracing off the
# lock is never taken and workers run concurrently.
_TRACE_EXEC_LOCK = threading.Lock()


class Server:
    """An in-process micro-batching server over the DS primitives.

    Parameters
    ----------
    config:
        The :class:`~repro.serve.config.ServeConfig` knobs (batching,
        admission, retries, breaker).
    ds_config:
        Default :class:`~repro.config.DSConfig` for submitted ops
        (per-request override via ``submit(..., config=...)``).
    device:
        Device every worker stream binds to (name or spec).
    plan_cache:
        Shared :class:`~repro.pipeline.plan.PlanCache`; defaults to a
        fresh server-private cache so hit-rate numbers are isolated.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry`; defaults to the
        active tracer's registry when tracing is on (so ``serve.*``
        metrics export with everything else), else a private one.
    fault_hook:
        Test/chaos hook called with the batch's request list before
        every fast-path execution; raising a transient error simulates
        backend failure.
    tuning_db:
        A :class:`~repro.tune.db.TuningDB` of autotuner winners.  When
        given, every admitted request shape is looked up under its
        (normalized) batch key and any persisted kernel knobs
        (coarsening/wg_size/scan_variant/fusion) are applied before
        batching — so identical traffic lands on the *tuned* plan-cache
        entry; :meth:`prime` with ``tuned=True`` additionally warms
        those plans and adopts persisted serve batching knobs, and
        :meth:`stats` reports the active tuned knobs per batch key.
    autostart:
        Start the batcher/worker threads immediately.  Tests pass
        ``False`` to stage requests deterministically, then
        :meth:`start`.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        ds_config: Optional[DSConfig] = None,
        device: Union[DeviceSpec, str] = DEFAULT_DEVICE,
        plan_cache: Optional[PlanCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        breaker: Optional[CircuitBreaker] = None,
        fault_hook=None,
        tuning_db=None,
        autostart: bool = True,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.ds_config = ds_config if ds_config is not None else DEFAULT_CONFIG
        self.device = device
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        if metrics is None:
            tracer = _obs.active()
            metrics = tracer.metrics if tracer is not None else MetricsRegistry()
        self.metrics = metrics
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            self.config.breaker_threshold, self.config.breaker_cooldown_ms)
        self.fault_hook = fault_hook
        self.tuning_db = tuning_db
        # Tuned-knob resolution state: ``_tuned_cache`` memoizes the DB
        # lookup per *original* batch key (None = "no entry, stop
        # asking"); ``_tuned_active`` / ``_tuned_fuse`` are keyed by the
        # *tuned* batch key the request actually batches under.
        self._tuned_cache: Dict[tuple, Optional[dict]] = {}
        self._tuned_active: Dict[tuple, dict] = {}
        self._tuned_fuse: Dict[tuple, bool] = {}
        # Warm-set registry (the fleet router hook): every distinct
        # request shape this server has planned or served, keyed by its
        # TuningDB-shaped kernel key.  ``_warm_memo`` memoizes the key
        # construction per batch key so the hot admit path pays it once
        # per traffic shape, not once per request.
        self._warm_memo: Dict[tuple, str] = {}
        self._warm_shapes: Dict[str, dict] = {}
        # Always-on flight recorder (``flight_capacity=0`` disables it,
        # which the overhead check uses as its baseline).  Incidents are
        # only *dumped* when ``incident_dir`` is configured; the ring
        # records regardless so a later manual dump still has history.
        self.flight: Optional[FlightRecorder] = None
        if self.config.flight_capacity > 0:
            self.flight = FlightRecorder(
                self.config.flight_capacity,
                incident_dir=self.config.incident_dir or "incidents",
                cooldown_ms=self.config.incident_cooldown_ms,
                event_log=self.config.event_log or None).install()

        self._queue: deque = deque()
        self._cond = threading.Condition()
        self._mlock = threading.Lock()  # guards metric updates
        self._inflight = 0
        self._next_id = 0
        self._accepting = True
        self._stopping = False
        self._started = False
        self._batches: "_queue_mod.Queue" = _queue_mod.Queue()
        self._batcher: Optional[threading.Thread] = None
        self._workers: List[threading.Thread] = []
        if autostart:
            self.start()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "Server":
        """Start the batcher and worker threads (idempotent)."""
        with self._cond:
            if self._started:
                return self
            if self._stopping:
                raise ServeError("server was closed; create a new one")
            self._started = True
        self._batcher = threading.Thread(
            target=self._batch_loop, name="repro-serve-batcher", daemon=True)
        self._batcher.start()
        for i in range(self.config.num_workers):
            w = threading.Thread(target=self._worker_loop, args=(i,),
                                 name=f"repro-serve-worker-{i}", daemon=True)
            w.start()
            self._workers.append(w)
        return self

    def close(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting requests, then shut the threads down.

        With ``drain=True`` (default) every already-admitted request is
        still served before the workers exit; with ``drain=False``
        queued requests are finalized with
        :class:`~repro.errors.RequestCancelled`.
        """
        with self._cond:
            self._accepting = False
            if not drain:
                for req in list(self._queue):
                    if req.transition(QUEUED, CANCELLED):
                        self._count("serve.cancelled")
                        self._finalize(req, error=RequestCancelled(
                            f"request #{req.id}: server closed"))
                self._queue.clear()
            self._cond.notify_all()
        if self._started:
            deadline = time.monotonic() + timeout
            with self._cond:
                while self._inflight > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ServeError(
                            f"close(drain=True): {self._inflight} requests "
                            f"still in flight after {timeout}s")
                    self._cond.wait(remaining)
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if self._started:
            for _ in self._workers:
                self._batches.put(None)
            self._batcher.join(timeout)
            for w in self._workers:
                w.join(timeout)
        if self.flight is not None:
            self.flight.close()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close(drain=exc_type is None)
        return False

    # -- metrics helpers -----------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        with self._mlock:
            self.metrics.counter(name).inc(amount)

    def _observe(self, name: str, value: float) -> None:
        with self._mlock:
            self.metrics.histogram(name).record(value)

    def _gauge_queue_depth_locked(self) -> None:
        # Called with self._cond held; only the gauge write needs _mlock.
        depth = len(self._queue)
        with self._mlock:
            self.metrics.gauge("serve.queue_depth").set(depth)

    # -- flight recorder / incidents -----------------------------------

    def _event(self, event: str, **fields) -> None:
        """One structured lifecycle record on the flight recorder (and
        through it the ``event_log`` file, when configured)."""
        if self.flight is not None:
            self.flight.record_event(event, **fields)

    def _incident(self, trigger: str, reason: str, *, phase: str,
                  requests: Sequence[ServeRequest] = (), **context) -> None:
        """Fire one incident trigger.

        The trigger event always lands in the ring; a bundle
        is only written when ``incident_dir`` is configured, and then at
        most once per ``incident_cooldown_ms`` per trigger.  The
        bundle's context names the affected request ids, their op chain
        and the lifecycle phase that failed (queue/plan/execute/...).
        """
        ids = [req.id for req in requests]
        ops = "+".join(requests[0].op_key) if requests else None
        self._event("serve.incident_trigger", trigger=trigger,
                    reason=reason, phase=phase, request_ids=ids, ops=ops)
        if self.flight is None or self.config.incident_dir is None:
            return
        ctx = {"phase": phase, "request_ids": ids, "ops": ops}
        ctx.update(context)
        bundle = self.flight.maybe_dump(
            trigger, reason=reason, metrics=self.metrics,
            ds_config=self.ds_config, serve_config=self.config,
            context=ctx)
        if bundle is not None:
            self._count("serve.incidents")
            self._event("serve.incident_dumped", trigger=trigger,
                        bundle=str(bundle))

    # -- submission ----------------------------------------------------

    def submit(self, op: str, values, *args,
               config: Optional[DSConfig] = None,
               deadline_ms: Optional[float] = None,
               trace=None,
               **kwargs) -> ServeFuture:
        """Queue one op call; returns its :class:`ServeFuture`.

        ``op``/``args``/``kwargs`` mirror :func:`repro.ds`:
        ``server.submit("compact", x, 0.0)``.  ``values`` is any
        :class:`~repro.stream.source.DSSource` input — a plain array
        executes as one resident batch op, while a memmap / shared
        memory / shard-iterator source streams shard-by-shard through
        :mod:`repro.stream` (``ds_config.shard_elems`` /
        ``shard_workers`` apply).  Raises
        :class:`~repro.errors.Overloaded` when admission control sheds
        the request.
        """
        desc = get_op(op)
        return self._admit([(desc, tuple(args), dict(kwargs))], values,
                           config=config, deadline_ms=deadline_ms,
                           trace=trace)

    def submit_chain(self, ops: Sequence, values: np.ndarray, *,
                     config: Optional[DSConfig] = None,
                     deadline_ms: Optional[float] = None,
                     trace=None) -> ServeFuture:
        """Queue a chain of ops over one input; each op consumes its
        predecessor's output (so fusable chains fuse)::

            server.submit_chain([("compact", 0.0), "unique"], x)

        ``trace`` is an optional
        :class:`~repro.obs.distrib.TraceContext` carried over from a
        remote caller (the fleet front door): the request's
        ``serve.request`` span then advertises the caller's
        ``trace_id``/``parent_span_id`` so the fleet merger can parent
        this process's spans under the router's.
        """
        return self._admit(normalize_chain(ops), values,
                           config=config, deadline_ms=deadline_ms,
                           trace=trace)

    def _tuned_for(self, stages, array, cfg: DSConfig,
                   backend: str) -> Optional[dict]:
        """Resolve persisted tuned knobs for one request shape.

        Memoized per original batch key: the normalized-key
        construction and DB lookup run once per distinct traffic shape,
        not once per request.  Returns ``None`` when the DB has no
        entry for the shape.
        """
        orig_key = make_batch_key(stages, array, cfg, backend)
        try:
            return self._tuned_cache[orig_key]
        except KeyError:
            pass
        from repro.tune.db import KERNEL_CONFIG_KNOBS, kernel_key

        key = kernel_key(stages, array, cfg, backend)
        entry = self.tuning_db.get(key)
        resolved = None
        if entry is not None and entry.get("knobs"):
            knobs = dict(entry["knobs"])
            config_knobs = {k: v for k, v in knobs.items()
                            if k in KERNEL_CONFIG_KNOBS}
            resolved = {
                "key": key,
                "knobs": knobs,
                "config": cfg.replace(**config_knobs) if config_knobs
                else cfg,
                "fuse": bool(knobs.get("fuse", True)),
                "ops": "+".join(s.desc.short for s in stages),
                "n": int(array.size),
                "dtype": str(array.dtype),
            }
        self._tuned_cache[orig_key] = resolved
        return resolved

    def _activate_tuned(self, info: dict, batch_key: tuple) -> None:
        """Register tuned knobs under the batch key they serve."""
        if batch_key in self._tuned_active:
            return
        self._tuned_fuse[batch_key] = info["fuse"]
        self._tuned_active[batch_key] = info
        self._count("serve.tuned_keys")
        self._event("serve.tuned_applied", ops=info["ops"],
                    n=info["n"], dtype=info["dtype"],
                    knobs=repr(info["knobs"]), key=info["key"])

    def _note_warm(self, batch_key: tuple, stages, array, cfg: DSConfig,
                   backend: str) -> None:
        """Record one warm traffic shape under its TuningDB-shaped
        kernel key — the stable, persistable identity :mod:`repro.fleet`
        uses to re-prime replacement workers with the plans a drained
        worker had warmed.  Memoized per batch key so the admit path
        pays the key construction once per distinct shape; a race
        between client threads merely duplicates that cheap work.
        """
        if batch_key in self._warm_memo:
            return
        from repro.tune.db import kernel_key

        key = kernel_key(stages, array, cfg, backend)
        self._warm_memo[batch_key] = key
        if key not in self._warm_shapes:
            self._warm_shapes[key] = {
                "ops": "+".join(s.desc.name for s in stages),
                "n": int(array.size),
                "dtype": str(array.dtype),
                "backend": backend,
            }

    def warm_keys(self) -> List[str]:
        """TuningDB-shaped kernel keys of every distinct request shape
        this server has planned (via :meth:`prime`) or admitted, sorted.
        The fleet router collects these when draining a worker so its
        warm set survives the process."""
        return sorted(self._warm_shapes)

    def warm_shapes(self) -> Dict[str, dict]:
        """Per-warm-key shape facts (``ops``/``n``/``dtype``/``backend``)
        backing :meth:`warm_keys`."""
        return {k: dict(v) for k, v in self._warm_shapes.items()}

    def _admit(self, spec, values, *, config, deadline_ms,
               trace=None) -> ServeFuture:
        cfg = config if config is not None else self.ds_config
        # The unified DSSource front door: in-core inputs admit as the
        # plain array they always did; out-of-core sources (memmap,
        # shared memory, shard iterator) stay sources and execute
        # through the sharded streaming engine inside the pipeline.
        from repro.stream.source import as_source

        source = as_source(values, site="Server.submit")
        array = source.materialize() if source.in_core else source
        stages = [OpStage(desc, args, kwargs) for desc, args, kwargs in spec]
        backend = cfg.resolved_backend()
        if self.tuning_db is not None and isinstance(array, np.ndarray):
            tuned = self._tuned_for(stages, array, cfg, backend)
            if tuned is not None:
                cfg = tuned["config"]
                self._activate_tuned(
                    tuned, make_batch_key(stages, array, cfg, backend))
        batch_key = make_batch_key(stages, array, cfg, backend)
        if isinstance(array, np.ndarray):
            self._note_warm(batch_key, stages, array, cfg, backend)
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        deadline = (time.monotonic() + float(deadline_ms) / 1000.0
                    if deadline_ms is not None else None)
        with self._cond:
            if not self._accepting:
                raise ServeError("server is closed to new requests")
            if self._inflight >= self.config.max_queue_depth:
                with self._mlock:
                    self.metrics.counter("serve.shed").inc()
                self._event("serve.admission_rejected",
                            ops="+".join(s.desc.name for s in stages),
                            inflight=self._inflight,
                            limit=self.config.max_queue_depth)
                raise Overloaded(
                    f"server at capacity ({self._inflight} in flight, "
                    f"limit {self.config.max_queue_depth}); retry later",
                    queue_depth=self._inflight,
                    limit=self.config.max_queue_depth)
            request = ServeRequest(self._next_id, stages, array, cfg,
                                   batch_key, deadline)
            request.server = self
            request.trace = trace
            self._next_id += 1
            self._inflight += 1
            tracer = _obs.active()
            if tracer is not None:
                request.tracer = tracer
                request.t_submit_us = tracer.now_us()
            self._queue.append(request)
            self._count_locked_admitted()
            self._gauge_queue_depth_locked()
            self._event("serve.admit", request_id=request.id,
                        ops="+".join(request.op_key),
                        queue_depth=len(self._queue),
                        inflight=self._inflight)
            self._cond.notify_all()
        return request.future

    def _count_locked_admitted(self) -> None:
        with self._mlock:
            self.metrics.counter("serve.admitted").inc()

    def cancel(self, request: ServeRequest) -> bool:
        """Cancel ``request`` if still queued (see ServeFuture.cancel)."""
        if not request.transition(QUEUED, CANCELLED):
            return False
        self._count("serve.cancelled")
        self._finalize(request, error=RequestCancelled(
            f"request #{request.id} was cancelled before dispatch"))
        return True

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    # -- cache priming -------------------------------------------------

    def prime(self, ops: Sequence, values: np.ndarray, *,
              config: Optional[DSConfig] = None,
              tuned: bool = False) -> int:
        """Pre-plan every batch size for one request shape.

        Plans (without executing) the pipeline batches of size
        ``1..max_batch_size`` a stream of identical requests can
        produce, so a fresh server starts at a ~100% plan-cache hit
        rate instead of paying one planning miss per batch shape.

        With ``tuned=True`` (and a ``tuning_db``) the shape is first
        resolved against the tuning DB: persisted kernel knobs replace
        the config the plans are primed under (so the cache warms the
        plans traffic will actually hit), and — when the server has not
        started yet — a persisted serve entry for the shape adopts its
        (max_batch_size, max_wait_ms) batching knobs.  Returns the
        number of plans now cached for the shape.
        """
        cfg = config if config is not None else self.ds_config
        spec = normalize_chain(ops)
        from repro.stream.source import as_source

        src = as_source(values, site="Server.prime")
        array = src.materialize() if src.in_core else src
        stages = [OpStage(desc, args, kwargs) for desc, args, kwargs in spec]
        fuse = True
        if (tuned and self.tuning_db is not None
                and isinstance(array, np.ndarray)):
            backend = cfg.resolved_backend()
            info = self._tuned_for(stages, array, cfg, backend)
            if info is not None:
                cfg = info["config"]
                fuse = info["fuse"]
                self._activate_tuned(
                    info, make_batch_key(stages, array, cfg, backend))
            from repro.tune.db import SERVE_CONFIG_KNOBS, serve_key

            serve_knobs = self.tuning_db.knobs(
                serve_key(stages, array, cfg, backend))
            if serve_knobs:
                allowed = {k: v for k, v in serve_knobs.items()
                           if k in SERVE_CONFIG_KNOBS}
                if allowed and not self._started:
                    self.config = self.config.replace(**allowed)
                    self._event("serve.tuned_serve_config", **allowed)
        if isinstance(array, np.ndarray):
            backend = cfg.resolved_backend()
            self._note_warm(make_batch_key(stages, array, cfg, backend),
                            stages, array, cfg, backend)
        for k in range(1, self.config.max_batch_size + 1):
            p = Pipeline(Stream(self.device, seed=self.config.seed),
                         config=cfg, fuse=fuse, plan_cache=self.plan_cache)
            for _ in range(k):
                prev: object = array
                for desc, args, kwargs in spec:
                    prev = p.enqueue(desc, prev, *args, config=cfg, **kwargs)
            p.plan()
        return self.config.max_batch_size

    # -- batcher -------------------------------------------------------

    def _pop_live_locked(self) -> Optional[ServeRequest]:
        """Pop the first request that is still QUEUED and unexpired,
        finalizing expired ones on the way.  Caller holds ``_cond``."""
        while self._queue:
            req = self._queue.popleft()
            if req.state != QUEUED:
                continue  # cancelled; already finalized
            if req.expired():
                if req.transition(QUEUED, EXPIRED):
                    self._expire(req)
                continue
            if req.transition(QUEUED, DISPATCHED):
                self._mark_dispatched(req)
                return req
        return None

    def _extract_matching_locked(self, key: tuple,
                                 batch: List[ServeRequest]) -> None:
        """Move every queued request with ``key`` into ``batch`` (up to
        the batch bound).  Caller holds ``_cond``."""
        limit = self.config.max_batch_size
        kept = deque()
        while self._queue and len(batch) < limit:
            req = self._queue.popleft()
            if req.state != QUEUED:
                continue
            if req.expired():
                if req.transition(QUEUED, EXPIRED):
                    self._expire(req)
                continue
            if req.batch_key == key and req.transition(QUEUED, DISPATCHED):
                self._mark_dispatched(req)
                batch.append(req)
            else:
                kept.append(req)
        kept.extend(self._queue)
        self._queue = kept

    def _mark_dispatched(self, req: ServeRequest) -> None:
        req.t_dispatch = time.monotonic()
        if req.tracer is not None and req.tracer is _obs.active():
            req.t_dispatch_us = req.tracer.now_us()

    def _expire(self, req: ServeRequest) -> None:
        self._count("serve.expired")
        waited_ms = (time.monotonic() - req.t_submit) * 1e3
        self._event("serve.request_expired", request_id=req.id,
                    ops="+".join(req.op_key), phase="queue",
                    waited_ms=round(waited_ms, 3))
        self._incident(
            "deadline",
            f"request #{req.id} ({'+'.join(req.op_key)}) expired after "
            f"{waited_ms:.1f}ms in queue",
            phase="queue", requests=[req], waited_ms=round(waited_ms, 3))
        self._finalize(req, error=DeadlineExceeded(
            f"request #{req.id} expired after "
            f"{waited_ms:.1f}ms in queue"))

    def _batch_loop(self) -> None:
        wait_s = self.config.max_wait_ms / 1000.0
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait()
                if self._stopping and not self._queue:
                    return
                head = self._pop_live_locked()
                self._gauge_queue_depth_locked()
            if head is None:
                continue
            batch = [head]
            window_end = time.monotonic() + wait_s
            while len(batch) < self.config.max_batch_size:
                with self._cond:
                    self._extract_matching_locked(head.batch_key, batch)
                    self._gauge_queue_depth_locked()
                    if len(batch) >= self.config.max_batch_size:
                        break
                    remaining = window_end - time.monotonic()
                    if remaining <= 0 or self._stopping:
                        break
                    self._cond.wait(remaining)
            self._observe("serve.batch_wait_ms",
                          (time.monotonic() - head.t_submit) * 1e3)
            tracer = _obs.active()
            for req in batch:
                if req.tracer is not None and req.tracer is tracer:
                    req.t_window_us = tracer.now_us()
            self._event("serve.dispatch",
                        request_ids=[r.id for r in batch],
                        batch_size=len(batch),
                        ops="+".join(head.op_key))
            self._batches.put(batch)

    # -- workers -------------------------------------------------------

    def _worker_loop(self, worker_id: int) -> None:
        stream = Stream(self.device, seed=self.config.seed + worker_id)
        while True:
            batch = self._batches.get()
            if batch is None:
                return
            try:
                self._execute_batch(batch, stream, worker_id)
            except BaseException as exc:  # pragma: no cover - last resort
                for req in batch:
                    if req.state == DISPATCHED:
                        req.transition(DISPATCHED, FAILED)
                        self._count("serve.failed")
                        self._finalize(req, error=exc)
            finally:
                # The batch's launches are in its results and its
                # launch.done events; the worker's stream keeps none,
                # so a long-running server stays bounded.
                stream.reset()

    def _execute_batch(self, batch: List[ServeRequest], stream: Stream,
                       worker_id: int) -> None:
        # Deadline re-check at dispatch: expired-in-queue work is
        # dropped here, before any kernel runs.
        live = []
        for req in batch:
            if req.expired() and req.transition(DISPATCHED, EXPIRED):
                self._expire(req)
            else:
                live.append(req)
        if not live:
            return
        key = live[0].op_key
        attempt = 0
        degraded = False
        while True:
            if not self.breaker.allows(key):
                degraded = True
                break
            try:
                self._run_fast(live, stream)
                self.breaker.record_success(key)
                break
            except TRANSIENT_ERRORS as exc:
                now_open = self.breaker.record_failure(key)
                self._count("serve.fast_failures")
                error_text = f"{type(exc).__name__}: {exc}"
                self._event("serve.fast_path_failed",
                            request_ids=[r.id for r in live],
                            ops="+".join(key), phase="execute",
                            attempt=attempt, error=error_text)
                attempt += 1
                if now_open:
                    self._incident(
                        "breaker_open",
                        f"circuit breaker opened for {'+'.join(key)} "
                        f"after {self.config.breaker_threshold} "
                        f"consecutive failures ({error_text})",
                        phase="execute", requests=live, error=error_text)
                if attempt > self.config.max_retries or now_open:
                    if not now_open:
                        self._incident(
                            "launch_error",
                            f"fast path for {'+'.join(key)} exhausted "
                            f"{self.config.max_retries} retries "
                            f"({error_text})",
                            phase="execute", requests=live,
                            error=error_text)
                    degraded = True
                    break
                self._count("serve.retries")
                backoff_s = (self.config.retry_backoff_ms / 1000.0
                             * (2 ** (attempt - 1)))
                if backoff_s > 0:
                    time.sleep(backoff_s)
        if degraded:
            try:
                self._run_degraded(live, stream)
                self._count("serve.degraded", len(live))
            except BaseException as exc:
                for req in live:
                    req.transition(DISPATCHED, FAILED)
                    self._count("serve.failed")
                    self._finalize(req, error=exc)
                return
        self._count("serve.batches")
        self._observe("serve.batch_size", len(live))

    def _run_fast(self, live: List[ServeRequest], stream: Stream) -> None:
        """One pipeline batch over every request's op chain.

        Streamed requests (out-of-core :class:`DSSource` inputs) run
        their *whole* chain through :func:`repro.stream.engine.
        stream_run` instead — one single pass over the shards, the
        chain's intermediates never resident as full arrays.  The batch
        key keeps streamed and resident traffic apart, so a batch is
        normally homogeneous; the split here makes that a non-assumption.
        """
        if self.fault_hook is not None:
            self.fault_hook(live)
        # The request identity every launch/primitive span (through the
        # annotation scope) and launch.done event of this batch carries
        # — the end-to-end correlation key.
        notes = {"request_ids": [req.id for req in live],
                 "batch_ops": "+".join(live[0].op_key)}
        trace_ids = [req.trace.trace_id for req in live
                     if req.trace is not None]
        if trace_ids:
            notes["trace_ids"] = trace_ids
        first_launch = stream.num_launches
        tracing = _obs.active() is not None
        if tracing:
            _TRACE_EXEC_LOCK.acquire()
        results: Dict[int, PrimitiveResult] = {}
        try:
            with _obs.annotate(**notes):
                resident = [req for req in live if not req.streamed]
                for req in live:
                    if req.streamed:
                        from repro.stream.engine import stream_run

                        results[req.id] = stream_run(
                            [(s.desc, s.args, s.kwargs) for s in req.ops],
                            req.array, stream=stream, config=req.config,
                            trace=req.trace)
                if resident:
                    fuse = self._tuned_fuse.get(resident[0].batch_key, True)
                    p = Pipeline(stream, config=resident[0].config,
                                 fuse=fuse, plan_cache=self.plan_cache)
                    tails = []
                    for req in resident:
                        prev: object = req.array
                        for stage in req.ops:
                            prev = p.enqueue(stage.desc, prev, *stage.args,
                                             config=req.config,
                                             **stage.kwargs)
                        tails.append(prev)
                    p.run()
                    for req, tail in zip(resident, tails):
                        results[req.id] = tail.result()
        finally:
            if tracing:
                _TRACE_EXEC_LOCK.release()
            if self.flight is not None:
                for counters in stream.records[first_launch:]:
                    self.flight.record_event(
                        "launch.done", kernel=counters.kernel_name,
                        grid_size=counters.grid_size,
                        wg_size=counters.wg_size,
                        bytes_moved=counters.bytes_moved, **notes)
        for req in live:
            if req.transition(DISPATCHED, DONE):
                self._count("serve.completed")
                self._finalize(req, result=results[req.id])

    def _run_degraded(self, live: List[ServeRequest],
                      stream: Stream) -> None:
        """Serve every request through its sequential baseline."""
        for req in live:
            # A streamed request degrades by materializing: the
            # baseline is the correctness backstop, not the memory one.
            out = req.array.materialize() if req.streamed else req.array
            for stage in req.ops:
                out = run_degraded_stage(stage, out)
            if req.transition(DISPATCHED, DONE):
                self._count("serve.completed")
                self._finalize(
                    req, result=degraded_result(out, stream.device,
                                                req.op_key))

    # -- completion ----------------------------------------------------

    def _finalize(self, req: ServeRequest,
                  result: Optional[PrimitiveResult] = None,
                  error: Optional[BaseException] = None) -> None:
        latency_ms = (time.monotonic() - req.t_submit) * 1e3
        tracer = req.tracer
        t_done_us = (tracer.now_us()
                     if tracer is not None and tracer is _obs.active()
                     else None)
        degraded = bool(result is not None
                        and result.extras.get("degraded"))
        # Spans are emitted *before* the future resolves: a fleet
        # worker posts its response from a done-callback, and the
        # router may gather this server's span ring the moment the
        # client unblocks — the request's spans must already be there.
        self._emit_request_spans(req, degraded=degraded,
                                 t_done_us=t_done_us, error=error)
        if result is not None:
            # The shared Future extras schema: the serve layer owns the
            # correlation id, and every served result states whether it
            # was degraded (the streaming engine likewise stamps
            # ``shards``; repro.futures defaults fill the rest).
            result.extras["request_id"] = req.id
            result.extras.setdefault("degraded", False)
            self._observe("serve.latency_ms", latency_ms)
            req.future._resolve(result)
            self._event("serve.request_done", request_id=req.id,
                        ops="+".join(req.op_key),
                        latency_ms=round(latency_ms, 3),
                        degraded=degraded)
            if (self.config.slo_ms is not None
                    and latency_ms > self.config.slo_ms):
                self._count("serve.slo_breaches")
                self._event("serve.slo_breach", request_id=req.id,
                            ops="+".join(req.op_key),
                            latency_ms=round(latency_ms, 3),
                            slo_ms=self.config.slo_ms)
                self._incident(
                    "slo_breach",
                    f"request #{req.id} completed in {latency_ms:.1f}ms, "
                    f"over the {self.config.slo_ms:.1f}ms objective",
                    phase="finalize", requests=[req],
                    latency_ms=round(latency_ms, 3),
                    slo_ms=self.config.slo_ms)
        else:
            req.future._fail(error)
            error_text = f"{type(error).__name__}: {error}"
            if req.state == FAILED:
                # Expiry/cancellation get their own events at the
                # trigger site; this is the hard-failure path (both
                # fast and degraded execution raised).
                self._event("serve.request_failed", request_id=req.id,
                            ops="+".join(req.op_key), phase="execute",
                            error=error_text)
                self._incident(
                    "launch_error",
                    f"request #{req.id} ({'+'.join(req.op_key)}) "
                    f"failed: {error_text}",
                    phase="execute", requests=[req], error=error_text)
            elif req.state == CANCELLED:
                self._event("serve.request_cancelled",
                            request_id=req.id,
                            ops="+".join(req.op_key), phase="queue")
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()

    def _emit_request_spans(self, req: ServeRequest, *, degraded: bool,
                            t_done_us: Optional[float] = None,
                            error: Optional[BaseException] = None) -> None:
        tracer = req.tracer
        if tracer is None or tracer is not _obs.active():
            return
        if req.t_submit_us is None:
            return
        end_us = tracer.now_us()
        # One track per request: concurrent requests' span trees would
        # partially overlap on a shared track, which the Chrome-trace
        # exporter (correctly) rejects — slices on one tid must nest.
        track = f"serve:req{req.id}"
        args = {"id": req.id, "request_id": req.id,
                "ops": "+".join(req.op_key),
                "state": req.state, "degraded": degraded}
        if error is not None:
            args["error"] = f"{type(error).__name__}: {error}"
        if req.trace is not None:
            # Remote correlation: the fleet merger joins this span to
            # the router's serve.request through these args.
            args["trace_id"] = req.trace.trace_id
            if req.trace.parent_span_id:
                args["parent_span_id"] = req.trace.parent_span_id
            if req.trace.request_id is not None:
                args["fleet_request_id"] = req.trace.request_id
        root = tracer.add_span(
            "serve.request", track=track, cat="serve",
            start_us=req.t_submit_us, end_us=end_us, args=args)
        # Lifecycle stages as non-overlapping siblings, in order:
        # queued | batch_window | execute | finalize.  Each timestamp
        # is clamped to its predecessor so clock jitter between threads
        # can never produce overlapping slices.
        queued_end = (req.t_dispatch_us
                      if req.t_dispatch_us is not None else end_us)
        tracer.add_span("serve.queued", track=track, cat="serve",
                        start_us=req.t_submit_us, end_us=queued_end,
                        parent=root)
        exec_start = queued_end
        if req.t_dispatch_us is not None and req.t_window_us is not None:
            window_end = max(req.t_dispatch_us, req.t_window_us)
            tracer.add_span("serve.batch_window", track=track, cat="serve",
                            start_us=req.t_dispatch_us, end_us=window_end,
                            parent=root)
            exec_start = window_end
        exec_end = (max(exec_start, t_done_us)
                    if t_done_us is not None else end_us)
        if req.t_dispatch_us is not None:
            tracer.add_span("serve.execute", track=track,
                            cat="serve", start_us=exec_start,
                            end_us=exec_end, parent=root)
        if t_done_us is not None and exec_end < end_us:
            tracer.add_span("serve.finalize", track=track, cat="serve",
                            start_us=exec_end, end_us=end_us,
                            parent=root)

    # -- introspection -------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """A live snapshot: serve metrics (histograms with p50/p95/p99),
        queue/in-flight state, cache hit rates, breaker states and the
        flight recorder's ring occupancy + incident bundles."""
        out: Dict[str, object] = {}
        with self._mlock:
            for item in self.metrics.instruments():
                if item.name.startswith("serve."):
                    d = item.to_dict()
                    if d["type"] == "histogram":
                        # The power-of-two buckets ride along so the
                        # fleet rollup can merge percentiles exactly
                        # (bucket-wise sums) instead of conservatively.
                        out[item.name] = {k: d[k] for k in
                                          ("count", "sum", "min", "max",
                                           "mean", "p50", "p95", "p99",
                                           "buckets", "nonfinite")}
                    else:
                        out[item.name] = d["value"]
        with self._cond:
            out["inflight"] = self._inflight
            out["queue_depth"] = len(self._queue)
        hits, misses = self.plan_cache.stats()
        out["plan_cache.hits"] = hits
        out["plan_cache.misses"] = misses
        planned = hits + misses
        out["plan_cache.hit_rate"] = hits / planned if planned else 0.0
        out["warm_keys"] = len(self._warm_shapes)
        # Active tuned knobs per batch key, in human-readable form:
        # "ops|n=<size>|<dtype>" -> the knob dict the key serves under.
        out["tuned"] = {
            f"{info['ops']}|n={info['n']}|{info['dtype']}":
                dict(info["knobs"])
            for info in self._tuned_active.values()
        }
        out["breaker"] = {"+".join(k): v
                          for k, v in self.breaker.snapshot().items()}
        if self.flight is not None:
            out["flight"] = {
                "capacity": self.flight.capacity,
                "n_spans": len(self.flight.spans()),
                "n_events": len(self.flight.events()),
                "incidents": [str(p) for p in self.flight.dumps],
            }
        else:
            out["flight"] = None
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Server(device={self.device!r}, "
                f"workers={self.config.num_workers}, "
                f"inflight={self.inflight})")
