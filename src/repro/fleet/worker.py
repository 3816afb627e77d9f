"""The fleet worker process: one full :class:`repro.serve.Server` per
forked child, driven by a control-message loop.

Workers are forked (never spawned) so they inherit the parent's
imports; requests still arrive *by value* through the transport layer
— frozen op chains plus shared-memory payload descriptors — because a
long-lived worker must serve requests submitted long after the fork,
which inheritance cannot deliver.

The inbox protocol (one ``multiprocessing`` queue per worker; all
workers share one outbox back to the router):

========================  ==============================================
message                   effect
========================  ==============================================
``("req", rid, ops,       revive + attach, submit to the server, answer
desc, meta)``             asynchronously via ``ServeFuture.
                          add_done_callback`` → ``("res", rid, ...,
                          timing)`` (``meta["trace"]`` carries the
                          router's trace context when fleet tracing is
                          on; ``timing`` holds ``recv_us``/
                          ``respond_us`` on the process clock)
``("prime", token, ops,   :meth:`Server.prime` the shape (plan-cache
desc, meta)``             warmup) → ``("ack", wid, token, plans)``
``("stats", token)``      → ``("stats", wid, token, stats, warm_keys)``
``("fault", token, m)``   set the chaos injector mode → ack
``("profile", token,      record a ``loadgen.profile`` event into the
fields)``                 flight ring (makes worker bundles replayable)
``("trace", token)``      → ``("ack", wid, token, flight_span_dicts)``
``("bundle", token)``     → ``("ack", wid, token, {"spans": ...,
                          "events": ..., "incidents": ...})`` — this
                          worker's flight ring for a fleet-wide
                          incident bundle
``("drain", token)``      stop taking requests, finish in-flight work,
                          → ``("drained", wid, token, stats, warm_keys,
                          spans)`` and exit the loop
========================  ==============================================

Responses go through the shared outbox **after** the result array is
staged into a fresh shm segment, so the router only ever reads
descriptors off the queue.  The callback fires on the server's worker
thread — micro-batching inside each fleet worker keeps working exactly
as in the single-process serve tier.

The worker stamps time on the process clock
(:func:`repro.obs.tracer.now_us`), whose epoch it inherited from the
router at fork, so its timing, spans and events sit on the router's
timebase with no offset.  When fleet tracing is on
(``FleetConfig.trace != "off"``), it installs a default-clock tracer
whose completed spans land in the server's
:class:`~repro.obs.flight.FlightRecorder` ring, the only span sink in
the worker; the ``trace``/``bundle``/``drain`` replies snapshot it.
The flight recorder also notifies the router of every local incident
dump via ``("incident", wid, trigger, path, reason)`` so the front door
can gather a fleet-wide bundle.
"""

from __future__ import annotations

import traceback

import numpy as np

from repro.obs.tracer import Tracer, install, now_us

__all__ = ["worker_main"]


def _respond(outbox, worker_id: str, rid: int, future, shm,
             recv_us) -> None:
    """Done-callback body: stage the result (or the error) and post it."""
    from repro.fleet.transport import stage_result

    def timing():
        return {"recv_us": recv_us, "respond_us": now_us()}

    try:
        err = future.exception()
        if err is not None:
            outbox.put(("res", rid, "err", type(err).__name__, str(err),
                        timing()))
            return
        result = future.result(timeout=0)
        desc, seg = stage_result(np.asarray(result.output))
        extras = {k: v for k, v in (result.extras or {}).items()
                  if isinstance(v, (str, int, float, bool, type(None)))}
        outbox.put(("res", rid, "ok", desc, extras, timing()))
        seg.close()
    except Exception as exc:  # pragma: no cover - transport failure
        outbox.put(("res", rid, "err", type(exc).__name__,
                    f"response staging failed on {worker_id}: {exc}",
                    timing()))
    finally:
        if shm is not None:
            try:
                shm.close()
            except Exception:  # pragma: no cover
                pass


def worker_main(worker_id: str, inbox, outbox, serve_config, ds_config,
                device=None, trace_mode=None) -> None:
    """Run one fleet worker until drained.  This is the forked child's
    entire life; it never returns control to the caller's code."""
    from repro.fleet.transport import attach_payload, revive_ops
    from repro.serve.loadgen import MutableFaultInjector
    from repro.serve.server import Server

    if trace_mode and trace_mode != "off":
        from repro.obs.distrib import TraceContext

        # retain=False: the flight ring is the only span consumer, so
        # the tracer must not also accumulate every span for the life
        # of the worker — that is both unbounded memory on a
        # long-running server and measurable GC pressure on the traced
        # hot path.
        install(Tracer(trace_mode, retain=False))
    else:
        TraceContext = None  # noqa: N806 - sentinel for the req path

    injector = MutableFaultInjector(seed=serve_config.seed or 0)
    kwargs = {"ds_config": ds_config, "fault_hook": injector,
              "autostart": True}
    if device is not None:
        kwargs["device"] = device
    server = Server(serve_config, **kwargs)
    if server.flight is not None:
        # Local incident dumps escalate to the front door, which then
        # gathers every worker's flight ring into one fleet-wide bundle.
        server.flight.on_dump = (
            lambda trigger, bundle, reason:
            outbox.put(("incident", worker_id, trigger, str(bundle),
                        reason)))
    outbox.put(("up", worker_id, server.config.num_workers))

    def ring_snapshot():
        if server.flight is None:
            return []
        return server.flight.span_dicts()

    draining = False
    while not draining:
        msg = inbox.get()
        recv_us = now_us()
        tag = msg[0]
        try:
            if tag == "req":
                _, rid, frozen, desc, meta = msg
                ops = revive_ops(frozen)
                values, shm = attach_payload(desc, meta)
                trace = (TraceContext.from_dict(meta.get("trace"))
                         if TraceContext is not None else None)
                try:
                    fut = server.submit_chain(
                        ops, values, deadline_ms=meta.get("deadline_ms"),
                        trace=trace)
                except Exception:
                    if shm is not None:
                        shm.close()
                    raise
                fut.add_done_callback(
                    lambda f, _rid=rid, _shm=shm, _recv=recv_us:
                    _respond(outbox, worker_id, _rid, f, _shm, _recv))
            elif tag == "prime":
                _, token, frozen, desc, meta = msg
                ops = revive_ops(frozen)
                values, shm = attach_payload(desc, meta)
                try:
                    plans = server.prime(ops, values)
                finally:
                    if shm is not None:
                        shm.close()
                outbox.put(("ack", worker_id, token, plans))
            elif tag == "stats":
                _, token = msg
                outbox.put(("stats", worker_id, token, server.stats(),
                            server.warm_keys()))
            elif tag == "fault":
                _, token, mode = msg
                injector.mode = mode
                outbox.put(("ack", worker_id, token, injector.injected))
            elif tag == "profile":
                # The router pushes its traffic profile into this
                # worker's flight ring, so any incident bundle dumped
                # here carries enough to reconstruct the load
                # (repro.fleet.replay needs the loadgen.profile event).
                _, token, fields = msg
                if server.flight is not None:
                    server.flight.record_event("loadgen.profile",
                                               **fields)
                outbox.put(("ack", worker_id, token, None))
            elif tag == "trace":
                _, token = msg
                outbox.put(("ack", worker_id, token, ring_snapshot()))
            elif tag == "bundle":
                _, token = msg
                incidents = ([str(p) for p in server.flight.dumps]
                             if server.flight is not None else [])
                events = (server.flight.events()
                          if server.flight is not None else [])
                outbox.put(("ack", worker_id, token,
                            {"spans": ring_snapshot(), "events": events,
                             "incidents": incidents}))
            elif tag == "drain":
                _, token = msg
                draining = True
                server.close(drain=True)
                outbox.put(("drained", worker_id, token, server.stats(),
                            server.warm_keys(), ring_snapshot()))
            else:  # pragma: no cover - protocol bug guard
                outbox.put(("err", worker_id,
                            f"unknown control message {tag!r}"))
        except Exception as exc:
            # A poisoned message must not kill the worker: requests get
            # an error response, control messages get an error ack.
            if tag == "req":
                outbox.put(("res", msg[1], "err", type(exc).__name__,
                            f"{exc} ({traceback.format_exc(limit=2)})",
                            {"recv_us": recv_us, "respond_us": now_us()}))
            elif tag in ("prime", "stats", "fault", "trace", "bundle",
                         "drain"):
                outbox.put(("err", worker_id,
                            f"{tag} failed: {type(exc).__name__}: {exc}",
                            msg[1]))
                if tag == "drain":  # still honour the exit request
                    draining = True
