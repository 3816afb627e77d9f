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
**store** (placing the shard's output at its ledger-resolved offset).
With ``double_buffer`` (the default) a prefetch thread loads shard
*k+1* while shard *k* computes.  Every stage is traced as a
``cat="stream"`` span on track ``shard:<k>``, which is what lets
``python -m repro analyze`` decompose a stream pipeline's time.

Boundary semantics per op (the shard protocol; see docs/streaming.md):

* **compact / remove_if / copy_if** — element-wise predicates: shard
  outputs concatenate in shard order at ledger offsets.  Any position
  in a chain.
* **unique** — one cross-boundary stencil tap: shard *k* drops its
  first output element iff its stage-input's first element equals the
  stage-input's *last* element of the nearest non-empty predecessor
  (empty shards pass the carry through).  Any position sequentially;
  final-stage-only under the worker pool (an inline drop rewrites
  downstream inputs, which only the sequential path can do).
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

import queue as _queue_mod
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs as _obs
from repro.config import DEFAULT_CONFIG, DSConfig
from repro.errors import ReproError
from repro.primitives.common import (
    PrimitiveResult,
    primitive_span,
    resolve_stream,
)
from repro.primitives.opspec import OpDescriptor, get_op
from repro.stream.ledger import ShardLedger
from repro.stream.plan import plan_shards
from repro.stream.source import DSSource, ShardIterSource, as_source

__all__ = [
    "DEFAULT_SHARD_ELEMS",
    "STREAMABLE_OPS",
    "is_out_of_core",
    "normalize_chain",
    "run_shard_chain",
    "ShardChainResult",
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


def is_out_of_core(source: DSSource,
                   shard_elems: Optional[int] = None) -> bool:
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

    Accepts the serve-layer spelling (``"unique"`` /
    ``("compact", 0.0)`` / ``("partition", pred, {"in_place": True})``),
    descriptors in place of names, pre-built triples, and a bare
    string/descriptor for a single-op chain.
    """
    if isinstance(ops, (str, OpDescriptor)):
        ops = [ops]
    stages: List[Tuple[OpDescriptor, tuple, dict]] = []
    for item in ops:
        if isinstance(item, (str, OpDescriptor)):
            item = (item,)
        item = list(item)
        if not item:
            raise ReproError("empty op spec in stream chain")
        head = item[0]
        desc = head if isinstance(head, OpDescriptor) else get_op(head)
        rest = item[1:]
        if (len(rest) == 2 and isinstance(rest[0], tuple)
                and isinstance(rest[1], dict)):
            # Pre-normalized triple: (desc, args_tuple, kwargs_dict).
            stages.append((desc, tuple(rest[0]), dict(rest[1])))
            continue
        kwargs = {}
        if rest and isinstance(rest[-1], dict):
            kwargs = rest.pop()
        stages.append((desc, tuple(rest), dict(kwargs)))
    if not stages:
        raise ReproError("a stream chain needs at least one op")
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

    ``edges`` maps the index of each ``unique`` stage to that stage's
    input ``(first, last)`` element pair (``None`` for an empty stage
    input) — the boundary-carry material pool-mode stitching consumes.
    ``drops`` counts carries applied *inline* (sequential mode only).
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

    ``carries`` (sequential mode) maps each ``unique`` stage index to
    the stage-input last element of the nearest non-empty predecessor
    shard; boundary drops are applied inline and the dict is updated
    for the next shard.  With ``carries=None`` (pool mode) no drops are
    applied — the caller stitches from ``edges``.
    """
    counters: list = []
    edges: Dict[int, Optional[Tuple[object, object]]] = {}
    out: np.ndarray = values
    final_extras: dict = {}
    n_final_in = 0
    drops = 0
    for i, (desc, args, kwargs) in enumerate(stages):
        cat = STREAMABLE_OPS[desc.name]
        x = np.asarray(out)
        flat = x.reshape(-1)
        if cat == "unique":
            edges[i] = ((flat[0], flat[-1]) if flat.size else None)
        if i == len(stages) - 1:
            n_final_in = int(flat.size)
        res = desc.runner(x, *args, stream=stream, config=config, **kwargs)
        counters.extend(res.counters)
        out = res.output
        final_extras = res.extras
        if cat == "unique" and carries is not None:
            prev_last = carries.get(i)
            if (prev_last is not None and flat.size
                    and flat[0] == prev_last):
                out = out[1:]
                drops += 1
            if flat.size:
                carries[i] = flat[-1]
    return ShardChainResult(output=out, counters=counters,
                            n_final_in=n_final_in,
                            final_extras=final_extras,
                            edges=edges, drops=drops)


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


def _monolithic_fallback(stages, source: DSSource, stream,
                         config: DSConfig, reason: str) -> PrimitiveResult:
    warnings.warn(
        f"stream_run: {reason}; materializing the whole source in core "
        f"and running monolithically",
        RuntimeWarning, stacklevel=3)
    out: np.ndarray = source.materialize()
    counters: list = []
    extras: dict = {}
    for desc, args, kwargs in stages:
        res = desc.runner(out, *args, stream=stream, config=config,
                          **kwargs)
        counters.extend(res.counters)
        out = res.output
        extras = res.extras
    extras = dict(extras)
    extras.update({"streamed": False, "shards": 1})
    return PrimitiveResult(output=out, counters=counters,
                           device=stream.device, extras=extras)


class _ShardFeed:
    """The load stage: yields ``(k, array, load_start_us, load_end_us)``.

    With ``double_buffer`` a daemon thread reads one shard ahead of the
    consumer (bounded queue of depth 1: one shard computing, one shard
    loading).  The thread touches *only* the source and the clock —
    never the tracer's span stacks, which are not thread-safe; all
    spans are emitted later from the consuming thread with explicit
    timestamps.
    """

    _DONE = object()

    def __init__(self, source: DSSource, shard_elems: int,
                 row_elems: Optional[int], now, double_buffer: bool) -> None:
        self._source = source
        self._shard_elems = int(shard_elems)
        self._row_elems = row_elems
        self._now = now
        self._double = bool(double_buffer)
        self._queue: "_queue_mod.Queue" = _queue_mod.Queue(maxsize=1)
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        if self._double:
            self._thread = threading.Thread(
                target=self._pump, name="repro-stream-prefetch", daemon=True)
            self._thread.start()

    def _read_all(self):
        src = self._source
        if src.sized:
            for sh in plan_shards(int(src.n_elems), self._shard_elems,
                                  row_elems=self._row_elems):
                t0 = self._now()
                arr = src.read(sh.lo, sh.hi)
                yield sh.index, arr, t0, self._now()
        else:
            assert isinstance(src, ShardIterSource)
            k = 0
            while True:
                t0 = self._now()
                arr = src.next_shard(self._shard_elems)
                if arr is None:
                    return
                yield k, arr, t0, self._now()
                k += 1

    def _pump(self) -> None:
        try:
            for item in self._read_all():
                self._queue.put(item)
        except BaseException as exc:  # re-raised on the consumer side
            self._error = exc
        finally:
            self._queue.put(self._DONE)

    def __iter__(self):
        if not self._double:
            yield from self._read_all()
            return
        while True:
            item = self._queue.get()
            if item is self._DONE:
                if self._error is not None:
                    raise self._error
                return
            yield item


def stream_run(
    ops,
    source,
    *,
    stream=None,
    config: Optional[DSConfig] = None,
    workers: Optional[int] = None,
    double_buffer: Optional[bool] = None,
    trace=None,
) -> PrimitiveResult:
    """Stream an op chain over ``source``, shard by shard.

    ``ops`` is a chain spec (see :func:`normalize_chain`); ``source``
    is anything :func:`~repro.stream.source.as_source` accepts.
    ``workers`` / ``double_buffer`` default to ``config.shard_workers``
    / ``config.double_buffer``; ``workers > 0`` dispatches pool-capable
    chains to :func:`~repro.stream.pool.pool_run`.  ``trace`` is an
    optional distributed trace context (a
    :class:`~repro.obs.distrib.TraceContext` or its dict form) handed
    to the pool's forked workers so per-shard spans correlate with the
    originating fleet request.  Returns one merged
    :class:`~repro.primitives.common.PrimitiveResult` whose output is
    byte-identical to the monolithic chain and whose counters are the
    per-shard launch records in shard order.
    """
    config = config if config is not None else DEFAULT_CONFIG
    src = as_source(source, site="stream_run")
    stages = normalize_chain(ops)
    stream = resolve_stream(stream, seed=config.seed)
    shard_elems = int(getattr(config, "shard_elems", None)
                      or DEFAULT_SHARD_ELEMS)
    reason = streamable_reason(stages)
    if reason is not None:
        return _monolithic_fallback(stages, src, stream, config, reason)
    n_workers = int(workers if workers is not None
                    else getattr(config, "shard_workers", 0) or 0)
    dbuf = bool(getattr(config, "double_buffer", True)
                if double_buffer is None else double_buffer)
    if n_workers > 0:
        block = pool_restriction(stages, src)
        if block is None:
            from repro.stream.pool import fork_unavailable_reason, pool_run
            block = fork_unavailable_reason()
            if block is None:
                return pool_run(stages, src, stream=stream, config=config,
                                n_workers=n_workers,
                                shard_elems=shard_elems, trace=trace)
        warnings.warn(
            f"stream_run: {block}; falling back to the single-process "
            f"streaming path", RuntimeWarning, stacklevel=2)
        n_workers = 0
    return _sequential_run(stages, src, stream, config, shard_elems, dbuf)


def _sequential_run(stages, src: DSSource, stream, config: DSConfig,
                    shard_elems: int, dbuf: bool) -> PrimitiveResult:
    tracer = _obs.active()
    now = tracer.now_us if tracer is not None else (
        lambda: time.perf_counter_ns() / 1e3)
    row_elems = _row_elems(stages, src)
    final_cat = STREAMABLE_OPS[stages[-1][0].name]
    sized = src.sized
    ledger = ShardLedger(len(plan_shards(int(src.n_elems), shard_elems,
                                         row_elems=row_elems))
                         if sized else 0)

    outputs: List = []
    counters: list = []
    carries: Dict[int, object] = {}
    final_extras: dict = {}
    drops_total = 0
    final_in_total = 0
    n_true_total = 0
    n_false_total = 0

    with primitive_span(
        "stream.run", backend=config.backend,
        ops="+".join(d.short for d, _, _ in stages),
        shard_elems=shard_elems, n_workers=0, double_buffer=dbuf,
    ) as sp:
        feed = _ShardFeed(src, shard_elems, row_elems, now, dbuf)
        for k, arr, l0, l1 in feed:
            if not sized:
                ledger.grow(1)
            arr = np.asarray(arr)
            n_in = int(arr.size)
            if row_elems is not None:
                arr = arr.reshape(-1, row_elems)
            c0 = now()
            res = run_shard_chain(stages, arr, stream, config, carries)
            c1 = now()
            counters.extend(res.counters)
            drops_total += res.drops
            final_in_total += res.n_final_in
            final_extras = res.final_extras
            if final_cat == "partition":
                nt = int(res.final_extras.get("n_true", 0))
                nf = int(res.final_extras.get("n_false", 0))
                n_true_total += nt
                n_false_total += nf
                outputs.append((res.output[:nt], res.output[nt:]))
                ledger.publish(k, nt)
            else:
                outputs.append(res.output)
                ledger.publish(k, int(np.asarray(res.output).size))
            offset = ledger.try_resolve(k)
            s1 = now()
            if tracer is not None:
                track = f"shard:{k}"
                tracer.add_span("stream.load", track=track, cat="stream",
                                start_us=l0, end_us=l1,
                                args={"shard": k, "n_elems": n_in})
                tracer.add_span("stream.compute", track=track, cat="stream",
                                start_us=c0, end_us=c1,
                                args={"shard": k, "n_elems": n_in,
                                      "offset": offset})
                tracer.add_span("stream.store", track=track, cat="stream",
                                start_us=c1, end_us=s1,
                                args={"shard": k, "offset": offset})
        output, extras = _assemble(stages, src, outputs, ledger, final_cat,
                                   final_extras, final_in_total,
                                   n_true_total, n_false_total, row_elems)
        extras.update({"streamed": True, "shards": ledger.n_shards,
                       "shard_elems": shard_elems, "n_workers": 0,
                       "double_buffer": dbuf,
                       "boundary_drops": drops_total})
        sp.set(shards=ledger.n_shards, boundary_drops=drops_total,
               ledger_spins=ledger.n_spins)
    return PrimitiveResult(output=output, counters=counters,
                           device=stream.device, extras=extras)


def _assemble(stages, src: DSSource, outputs, ledger: ShardLedger,
              final_cat: str, final_extras: dict, final_in_total: int,
              n_true_total: int, n_false_total: int,
              row_elems: Optional[int]) -> Tuple[np.ndarray, dict]:
    """Merge per-shard outputs (in shard order) and build final extras."""
    extras = dict(final_extras)
    if final_cat == "partition":
        trues = [t for t, _ in outputs]
        falses = [f for _, f in outputs]
        parts = trues + falses
        output = (np.concatenate(parts) if parts
                  else np.empty(0, dtype=src.dtype))
        extras.update({"n_true": n_true_total, "n_false": n_false_total})
        return output, extras
    if final_cat in ("pad", "unpad"):
        if outputs:
            output = np.vstack(outputs)
        else:
            desc, args, _ = stages[0]
            delta = int(args[0])
            cols = int(src.shape[1])
            out_cols = cols + delta if final_cat == "pad" else cols - delta
            output = np.empty((0, out_cols), dtype=src.dtype)
        extras.update({"rows": int(output.shape[0])})
        return output, extras
    output = (np.concatenate(outputs) if outputs
              else np.empty(0, dtype=src.dtype))
    total = ledger.total()
    extras.update({"n_kept": int(total),
                   "n_removed": int(final_in_total - total)})
    return output, extras
