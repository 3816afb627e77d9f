"""The sharded streaming engine: run DS op chains over out-of-core input.

``stream_run(ops, source)`` is the engine behind all three front doors
(:func:`repro.ds`, :class:`~repro.pipeline.engine.Pipeline`,
:meth:`repro.serve.Server.submit`) whenever the input is not already
in core: the :mod:`planner <repro.stream.plan>` splits the source into
device-sized shards, each shard streams through the *ordinary* DS
kernels (the exact runners a monolithic call would use), and shard
boundaries are chained with the same protocol the paper's kernels use
between work-groups — each shard publishes its kept-element count to a
:class:`~repro.stream.ledger.ShardLedger` (the Figure 7 flag, carried
by the decoupled-lookback state machine), so the irregular primitives
stay single-pass over inputs that never fit in memory at once.

Execution is bulk-synchronous pseudo-streaming with three stages per
shard — **load** (``source.read``), **compute** (the DS chain),
**store** (a pool worker's copy into the shared output region; empty
in-process, where the output stays where the chain left it).  There is
one shard loop: a *producer* — the in-process loop or the worker pool
(:mod:`repro.stream.pool`) — hands each finished shard to the stitcher
as a :class:`ShardDone` record, and the stitcher publishes it to the
ledger, traces its stages as ``cat="stream"`` spans on track
``shard:<k>`` (what lets ``python -m repro analyze`` decompose a stream
pipeline's time) and assembles the output in shard order.

Boundary semantics per op (the shard protocol; see docs/streaming.md):

* **compact / remove_if / copy_if** — element-wise predicates: shard
  outputs concatenate in shard order at ledger offsets.  Any position
  in a chain.
* **unique** — one cross-boundary stencil tap: shard *k* drops its
  first output element iff its stage-input's first element equals the
  stage-input's *last* element of the nearest non-empty predecessor
  (empty shards pass the carry through).  Any position in-process,
  where the drop is applied inline; final-stage-only under the worker
  pool, which applies it in ascending shard order before the stitcher
  sees the shards (an inline drop rewrites downstream inputs, which
  only the in-process loop can do).
* **partition** — final stage only: each shard yields
  ``[trues; falses]`` plus ``n_true``; stitching concatenates every
  shard's trues in shard order, then every shard's falses — exactly
  the monolithic stable partition.
* **pad / unpad** — sole-stage only, on row-aligned shards
  (:func:`~repro.stream.plan.plan_shards` with ``row_elems=cols``):
  each shard is an independent sub-matrix and the outputs stack.

Chains containing any other op fall back to materializing the source
and running monolithically, with one :class:`RuntimeWarning` naming
the blocking op.
"""

from __future__ import annotations

import itertools
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import obs as _obs
from repro.config import DEFAULT_CONFIG, DSConfig
from repro.errors import FleetError, ReproError
from repro.primitives.common import (
    PrimitiveResult,
    primitive_span,
    resolve_stream,
)
from repro.primitives.opspec import OpDescriptor, get_op
from repro.stream.ledger import ShardLedger
from repro.stream.plan import plan_shards
from repro.stream.source import DSSource, as_source

__all__ = [
    "DEFAULT_SHARD_ELEMS",
    "STREAMABLE_OPS",
    "is_out_of_core",
    "normalize_chain",
    "run_shard_chain",
    "ShardChainResult",
    "ShardDone",
    "stream_run",
]

DEFAULT_SHARD_ELEMS = 1 << 20
"""Default shard size in elements — the simulated device's capacity
stand-in.  Override with ``DSConfig.shard_elems`` / ``REPRO_SHARD_ELEMS``."""

#: Ops with a shard-boundary protocol, mapped to their boundary
#: category (``filter`` | ``unique`` | ``partition`` | ``pad`` |
#: ``unpad``).  Anything else must materialize.
STREAMABLE_OPS: Dict[str, str] = {
    "ds_stream_compact": "filter",
    "ds_remove_if": "filter",
    "ds_copy_if": "filter",
    "ds_unique": "unique",
    "ds_partition": "partition",
    "ds_pad": "pad",
    "ds_unpad": "unpad",
}


def is_out_of_core(source: DSSource) -> bool:
    """Whether the front doors should stream ``source``.

    The rule is deliberately conservative: an in-core ndarray *never*
    auto-streams (its counters and extras must not change under an
    existing caller's feet), regardless of size; everything else —
    memmap, shared memory, iterator — does.  ``stream_run`` itself
    accepts in-core sources too (the parity tests stream plain arrays
    directly).
    """
    return not source.in_core


def normalize_chain(ops) -> List[Tuple[OpDescriptor, tuple, dict]]:
    """Normalize an op-chain spec into ``(descriptor, args, kwargs)``
    triples.

    The one chain normalizer of every front door (``stream_run``,
    ``Server.submit_chain``, ``Fleet.submit_chain``, the tuner).
    Accepts the serve-layer spelling (``"unique"`` /
    ``("compact", 0.0)`` / ``("partition", pred, {"in_place": True})``),
    descriptors in place of names, pre-built ``(descriptor, args,
    kwargs)`` triples, and a bare string/descriptor for a single-op
    chain.  Only a descriptor-headed item can be a triple, so a named
    op's tuple argument followed by keywords stays one argument.
    """
    if isinstance(ops, (str, OpDescriptor)):
        ops = [ops]
    stages: List[Tuple[OpDescriptor, tuple, dict]] = []
    for item in ops:
        if isinstance(item, (str, OpDescriptor)):
            item = (item,)
        item = list(item)
        if not item:
            raise ReproError("empty op spec in an op chain")
        head = item[0]
        desc = head if isinstance(head, OpDescriptor) else get_op(head)
        rest = item[1:]
        if (isinstance(head, OpDescriptor) and len(rest) == 2
                and isinstance(rest[0], tuple)
                and isinstance(rest[1], dict)):
            # Pre-normalized triple: (desc, args_tuple, kwargs_dict).
            stages.append((desc, tuple(rest[0]), dict(rest[1])))
            continue
        kwargs = {}
        if rest and isinstance(rest[-1], dict):
            kwargs = rest.pop()
        stages.append((desc, tuple(rest), dict(kwargs)))
    if not stages:
        raise ReproError("an op chain needs at least one op")
    return stages


def streamable_reason(
        stages: List[Tuple[OpDescriptor, tuple, dict]]) -> Optional[str]:
    """Why this chain cannot stream (``None`` when it can)."""
    last = len(stages) - 1
    for i, (desc, _, _) in enumerate(stages):
        cat = STREAMABLE_OPS.get(desc.name)
        if cat is None:
            return f"{desc.name} has no shard-boundary protocol"
        if cat == "partition" and i != last:
            return ("ds_partition streams only as the final stage "
                    "(its output interleaves trues and falses)")
        if cat in ("pad", "unpad") and len(stages) != 1:
            return f"{desc.name} streams only as a sole-stage chain"
    return None


def pool_restriction(
        stages: List[Tuple[OpDescriptor, tuple, dict]],
        source: DSSource) -> Optional[str]:
    """Why this chain/source pair needs the sequential streaming path
    instead of the worker pool (``None`` when the pool applies)."""
    last = len(stages) - 1
    for i, (desc, _, _) in enumerate(stages):
        cat = STREAMABLE_OPS.get(desc.name)
        if cat == "unique" and i != last:
            return ("ds_unique before another stage needs the sequential "
                    "path (its boundary carry rewrites downstream inputs)")
    if not source.sized:
        return "an unsized shard-iterator source streams sequentially"
    return None


@dataclass
class ShardChainResult:
    """One shard's trip through the chain.

    ``output`` is the shard's output with any boundary drop applied.
    ``edges`` maps the index of each ``unique`` stage to that stage's
    input ``(first, last)`` element pair (``None`` for an empty stage
    input) — the boundary-carry material the pool's final-``unique``
    drop consumes.  ``drops`` counts the boundary drops applied to this
    shard's output (inline in-process, by the pool otherwise).
    """

    output: np.ndarray
    counters: list
    n_final_in: int
    final_extras: dict
    edges: Dict[int, Optional[Tuple[object, object]]]
    drops: int


def run_shard_chain(
    stages: List[Tuple[OpDescriptor, tuple, dict]],
    values: np.ndarray,
    stream,
    config: DSConfig,
    carries: Optional[Dict[int, object]] = None,
) -> ShardChainResult:
    """Run the whole chain over one in-core shard.

    ``carries`` (in-process) maps each ``unique`` stage index to the
    stage-input last element of the nearest non-empty predecessor
    shard; boundary drops are applied inline and the dict is updated
    for the next shard.  With ``carries=None`` (pool workers, and the
    monolithic fallback) no drops are applied — the pool applies the
    final ``unique``'s drop from ``edges``.
    """
    counters: list = []
    edges: Dict[int, Optional[Tuple[object, object]]] = {}
    out: np.ndarray = values
    final_extras: dict = {}
    n_final_in = 0
    drops = 0
    for i, (desc, args, kwargs) in enumerate(stages):
        x = np.asarray(out)
        n_final_in = int(x.size)
        flat = None
        if STREAMABLE_OPS.get(desc.name) == "unique":
            flat = x.reshape(-1)
            edges[i] = ((flat[0], flat[-1]) if flat.size else None)
        res = desc.runner(x, *args, stream=stream, config=config, **kwargs)
        counters.extend(res.counters)
        out = res.output
        final_extras = res.extras
        if flat is not None and carries is not None and flat.size:
            prev_last = carries.get(i)
            if prev_last is not None and flat[0] == prev_last:
                out = out[1:]
                drops += 1
            carries[i] = flat[-1]
    return ShardChainResult(output=out, counters=counters,
                            n_final_in=n_final_in,
                            final_extras=final_extras,
                            edges=edges, drops=drops)


@dataclass
class ShardDone:
    """A finished shard, as a producer hands it to the stitcher.

    ``result.output`` has any boundary drop applied (for a pooled
    shard it is a view of the shared output region); ``t_ns`` holds
    the ``perf_counter_ns`` stamps of load start, load end (compute
    start), compute end (store start) and store end; ``worker`` is the
    pool process that ran the shard (``None`` in-process).
    """

    index: int
    n_elems: int
    result: ShardChainResult
    t_ns: Tuple[int, int, int, int]
    worker: Optional[int] = None


def _row_elems(stages, source: DSSource) -> Optional[int]:
    """Row alignment for pad/unpad chains (None for 1-D element ops)."""
    cat = STREAMABLE_OPS[stages[0][0].name]
    if cat not in ("pad", "unpad"):
        return None
    shape = source.shape
    if len(shape) != 2:
        raise ReproError(
            f"{stages[0][0].name} streams over 2-D sources only; got "
            f"shape {shape} (wrap the input with an explicit matrix "
            f"shape, e.g. np.memmap(..., shape=(rows, cols)))")
    return int(shape[1])


def _out_cols(stages, row_elems: int) -> int:
    """Output row width of a sole-stage pad/unpad chain."""
    delta = int(stages[0][1][0])
    cat = STREAMABLE_OPS[stages[0][0].name]
    return row_elems + delta if cat == "pad" else row_elems - delta


def _monolithic_fallback(stages, source: DSSource, stream,
                         config: DSConfig, reason: str) -> PrimitiveResult:
    warnings.warn(
        f"stream_run: {reason}; materializing the whole source in core "
        f"and running monolithically",
        RuntimeWarning, stacklevel=3)
    res = run_shard_chain(stages, source.materialize(), stream, config)
    extras = dict(res.final_extras)
    extras.update({"streamed": False, "shards": 1})
    return PrimitiveResult(output=res.output, counters=res.counters,
                           device=stream.device, extras=extras)


def _local_shards(stages, src: DSSource, shards, stream,
                  config: DSConfig, shard_elems: int,
                  row_elems: Optional[int]):
    """The in-process producer: read and run each shard in order
    (``shards`` is ``None`` for an unsized source), applying
    ``unique``'s boundary carry inline, so ``unique`` works at any
    chain position."""
    carries: Dict[int, object] = {}
    for k in itertools.count():
        t0 = time.perf_counter_ns()
        if shards is None:
            arr = src.next_shard(shard_elems)
        elif k < len(shards):
            arr = src.read(shards[k].lo, shards[k].hi)
        else:
            arr = None
        if arr is None:
            return
        arr = np.asarray(arr)
        n_in = int(arr.size)
        if row_elems is not None:
            arr = arr.reshape(-1, row_elems)
        t1 = time.perf_counter_ns()
        res = run_shard_chain(stages, arr, stream, config, carries)
        t2 = time.perf_counter_ns()
        yield ShardDone(k, n_in, res, (t0, t1, t2, t2))


def stream_run(
    ops,
    source,
    *,
    stream=None,
    config: Optional[DSConfig] = None,
    workers: Optional[int] = None,
    trace=None,
) -> PrimitiveResult:
    """Stream an op chain over ``source``, shard by shard.

    ``ops`` is a chain spec (see :func:`normalize_chain`); ``source``
    is anything :func:`~repro.stream.source.as_source` accepts.
    ``workers`` defaults to ``config.shard_workers``; ``workers > 0``
    runs pool-capable chains over more than one shard on that many of
    the process's long-lived pool workers (at most one per shard), and
    anything else in this process; a pooled chain crosses to the
    workers as data, so one whose predicate has no revivable name runs
    here, with a warning.  ``trace`` is an optional distributed trace
    context (a :class:`~repro.obs.distrib.TraceContext` or its dict
    form) whose identity every per-shard span carries, so the shards
    correlate with the originating fleet request.  Returns one merged
    :class:`~repro.primitives.common.PrimitiveResult` whose output is
    byte-identical to the monolithic chain, whose counters are the
    per-shard launch records in shard order, and whose
    ``extras["n_workers"]`` counts the processes that ran.
    """
    config = config if config is not None else DEFAULT_CONFIG
    src = as_source(source, site="stream_run")
    stages = normalize_chain(ops)
    stream = resolve_stream(stream, seed=config.seed)
    shard_elems = int(config.shard_elems or DEFAULT_SHARD_ELEMS)
    reason = streamable_reason(stages)
    if reason is not None:
        return _monolithic_fallback(stages, src, stream, config, reason)
    row_elems = _row_elems(stages, src)
    shards = (plan_shards(int(src.n_elems), shard_elems,
                          row_elems=row_elems) if src.sized else None)
    n_workers = int(workers if workers is not None
                    else config.shard_workers)
    frozen = None
    if n_workers > 0:
        from repro.stream.codec import freeze_ops
        from repro.stream.pool import fork_unavailable_reason

        block = (pool_restriction(stages, src)
                 or fork_unavailable_reason())
        if block is None:
            # Long-lived workers revive the chain from data, which must
            # compute over this source's dtype what the chain does here.
            try:
                frozen = freeze_ops([(desc.name, *args, kwargs)
                                     for desc, args, kwargs in stages],
                                    numpy_scalars=True, dtype=src.dtype)
            except FleetError as exc:
                block = str(exc)
        if block is not None:
            warnings.warn(
                f"stream_run: {block}; falling back to the single-process "
                f"streaming path", RuntimeWarning, stacklevel=2)
        # One shard cannot amortize a hand-off to the pool; the
        # in-process loop is byte-identical.
        n_workers = (0 if block is not None or len(shards) <= 1
                     else min(n_workers, len(shards)))
    if n_workers:
        from repro.stream.pool import pool_shards

        # The pool's shared regions back the records' outputs, so its
        # scope spans the whole stitch.
        producer = pool_shards(stages, src, shards, frozen=frozen,
                               stream=stream, config=config,
                               n_workers=n_workers, row_elems=row_elems)
    else:
        producer = nullcontext(_local_shards(
            stages, src, shards, stream, config, shard_elems, row_elems))
    ledger = ShardLedger(len(shards or ()))
    with primitive_span(
        "stream.run", backend=config.backend,
        ops="+".join(d.short for d, _, _ in stages),
        shard_elems=shard_elems, n_workers=n_workers,
    ) as sp, producer as records:
        output, counters, extras = _stitch(stages, src, records, ledger,
                                           row_elems, trace)
        extras.update({"shard_elems": shard_elems, "n_workers": n_workers})
        sp.set(shards=ledger.n_shards,
               boundary_drops=extras["boundary_drops"],
               ledger_spins=ledger.n_spins)
    return PrimitiveResult(output=output, counters=counters,
                           device=stream.device, extras=extras)


def _stitch(stages, src: DSSource, records: Iterable[ShardDone],
            ledger: ShardLedger, row_elems: Optional[int],
            trace) -> Tuple[np.ndarray, list, dict]:
    """The one stitcher of both producers.

    Takes each record as it arrives (in completion order under the
    pool): publishes its count to ``ledger`` and resolves every
    offset the lookback walk can, spinning on gaps exactly like a
    work-group polling an unset flag, and traces the shard's stages.
    Then builds the output, counters and extras in shard order.
    """
    final_cat = STREAMABLE_OPS[stages[-1][0].name]
    tracer = _obs.active()
    if tracer is not None:
        # Producer stamps are perf_counter_ns; CLOCK_MONOTONIC is
        # shared by forked workers, so one reference pair maps every
        # stamp onto the tracer clock.
        ref_us, ref_ns = tracer.now_us(), time.perf_counter_ns()
        if trace is not None and hasattr(trace, "to_dict"):
            trace = trace.to_dict()
        trace_args = {}
        if trace:
            trace_args["trace_id"] = trace.get("trace_id")
            if trace.get("parent_span_id"):
                trace_args["parent_span_id"] = trace["parent_span_id"]
    done: Dict[int, ShardDone] = {}
    unresolved: List[int] = []
    for rec in records:
        k = rec.index
        done[k] = rec
        if k >= ledger.n_shards:  # an unsized source discovers shards
            ledger.grow(k + 1 - ledger.n_shards)
        count = (rec.result.final_extras.get("n_true", 0)
                 if final_cat == "partition"
                 else np.asarray(rec.result.output).size)
        ledger.publish(k, int(count))
        unresolved.append(k)
        unresolved = [i for i in unresolved
                      if ledger.try_resolve(i) is None]
        if tracer is not None:
            args = {"shard": k, "n_elems": rec.n_elems, **trace_args}
            if rec.worker is not None:
                args["worker"] = rec.worker
            t = [ref_us + (t_ns - ref_ns) / 1e3 for t_ns in rec.t_ns]
            for i, stage in enumerate(("load", "compute", "store")):
                tracer.add_span(f"stream.{stage}", track=f"shard:{k}",
                                cat="stream", start_us=t[i],
                                end_us=t[i + 1], args=args)

    order = [done[k] for k in sorted(done)]
    counters = [c for rec in order for c in rec.result.counters]
    extras = dict(order[-1].result.final_extras) if order else {}
    parts = [rec.result.output for rec in order]
    if final_cat == "partition":
        n_true = [int(rec.result.final_extras.get("n_true", 0))
                  for rec in order]
        parts = ([p[:nt] for p, nt in zip(parts, n_true)]
                 + [p[nt:] for p, nt in zip(parts, n_true)])
        extras.update({"n_true": sum(n_true), "n_false": sum(
            int(rec.result.final_extras.get("n_false", 0))
            for rec in order)})
    if final_cat in ("pad", "unpad"):
        output = (np.vstack(parts) if parts else np.empty(
            (0, _out_cols(stages, row_elems)), dtype=src.dtype))
        extras["rows"] = int(output.shape[0])
    else:
        output = (np.concatenate(parts) if parts
                  else np.empty(0, dtype=src.dtype))
    if final_cat in ("filter", "unique"):
        total = ledger.total()
        n_in = sum(rec.result.n_final_in for rec in order)
        extras.update({"n_kept": int(total),
                       "n_removed": int(n_in - total)})
    extras.update({"streamed": True, "shards": ledger.n_shards,
                   "boundary_drops": sum(rec.result.drops for rec in order)})
    return output, counters, extras
