"""One shard loop and one chain normalizer.

Both streaming modes hand finished shards to one stitcher, which
publishes them to the ledger and traces their stages, so the two modes
trace the same spans with the same args (a pooled shard adds
``worker``), carry a caller's trace identity alike, and report in
``n_workers`` only the processes that ran.  The in-process loop starts
no thread.  Every front door normalizes its op chain with
:func:`~repro.stream.engine.normalize_chain`.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro import DSConfig, obs
from repro.core.predicates import Predicate
from repro.errors import ReproError
from repro.fleet import Fleet
from repro.fleet.transport import freeze_ops
from repro.obs.distrib import TraceContext
from repro.serve import ServeConfig, Server
from repro.stream import ArraySource, stream_run
from repro.stream.cli import _mode_mismatches
from repro.stream.engine import normalize_chain
from repro.stream.pool import fork_unavailable_reason

needs_fork = pytest.mark.skipif(
    fork_unavailable_reason() is not None,
    reason=f"fork start method unavailable: {fork_unavailable_reason()}")

CHAIN = [("compact", 0.0), "unique"]


@pytest.fixture
def values(rng):
    return rng.integers(0, 5, 4096).astype(np.float32)


def _config():
    return DSConfig(backend="vectorized", shard_elems=1024)


def _traced_shards(values, workers, trace=None):
    """``{track: [(span name, args)]}`` of one traced run's shard
    tracks."""
    tracer = obs.enable("spans")
    try:
        stream_run(CHAIN, ArraySource(values), config=_config(),
                   workers=workers, trace=trace)
    finally:
        obs.disable()
    return {track: [(sp.name, sp.args) for sp in tracer.roots(track)]
            for track in tracer.tracks if track.startswith("shard:")}


def test_in_process_run_starts_no_thread(values):
    seen = []

    def probe(v):
        seen.append(threading.active_count())
        return v < 2

    before = threading.active_count()
    stream_run([("remove_if", Predicate(probe, "probe"))],
               ArraySource(values), config=_config(), workers=0)
    assert len(seen) == 4
    assert max(seen) <= before


@pytest.mark.parametrize("workers", [0, pytest.param(2, marks=needs_fork)])
def test_every_shard_span_carries_the_trace(values, workers):
    ctx = TraceContext.new(parent_span_id="feedc0de")
    shards = _traced_shards(values, workers, trace=ctx)
    spans = [args for track in shards.values() for _, args in track]
    assert len(shards) == 4 and len(spans) == 12
    for args in spans:
        assert args["trace_id"] == ctx.trace_id
        assert args["parent_span_id"] == "feedc0de"


@needs_fork
def test_modes_trace_the_same_shard_spans(values):
    def shape(shards):
        return {track: [(name, sorted(set(args) - {"worker"}))
                        for name, args in spans]
                for track, spans in shards.items()}

    seq = _traced_shards(values, 0)
    pooled = _traced_shards(values, 2)
    assert shape(seq) == shape(pooled)
    for spans in seq.values():
        assert [name for name, _ in spans] == [
            "stream.load", "stream.compute", "stream.store"]
        assert all({"shard", "n_elems"} <= set(args) for _, args in spans)
        assert not any("worker" in args for _, args in spans)
    assert all("worker" in args
               for spans in pooled.values() for _, args in spans)


@needs_fork
def test_n_workers_counts_processes_that_ran(values):
    one_shard = stream_run(CHAIN, ArraySource(values[:1000]),
                           config=_config(), workers=2)
    assert one_shard.extras["shards"] == 1
    assert one_shard.extras["n_workers"] == 0
    pooled = stream_run(CHAIN, ArraySource(values), config=_config(),
                        workers=8)
    assert pooled.extras["n_workers"] == 4  # min(workers, shards)


def test_stream_check_flags_mode_drift(values):
    res = stream_run(CHAIN, ArraySource(values), config=_config())
    pooled = dataclasses.replace(res, extras={**res.extras, "n_workers": 2})
    assert _mode_mismatches([("seq", res, 0.0), ("pool", pooled, 0.0)]) == []
    drifted = dataclasses.replace(res, counters=res.counters[:-1],
                                  extras={**res.extras, "shards": 99})
    assert len(_mode_mismatches([("seq", res, 0.0),
                                 ("pool", drifted, 0.0)])) == 2


@pytest.mark.parametrize("door", ["stream_run", "Server", "Fleet"])
def test_empty_chain_is_one_error(values, door):
    with pytest.raises(ReproError, match="at least one op"):
        if door == "stream_run":
            stream_run([], values)
        elif door == "Server":
            Server(ServeConfig(), autostart=False).submit_chain([], values)
        else:
            Fleet(autostart=False).submit_chain([], values)


def test_named_op_keeps_a_tuple_argument():
    # Only a descriptor-headed item is a pre-normalized triple.
    [(desc, args, kwargs)] = normalize_chain(
        [("ragged_pad", (2, 1, 3), {"stride": 4})])
    assert desc.name == "ds_ragged_pad"
    assert args == ((2, 1, 3),)
    assert kwargs == {"stride": 4}


def test_bare_op_name_is_a_one_op_chain(values):
    cfg = ServeConfig(max_wait_ms=1.0, num_workers=1)
    with Server(cfg, ds_config=_config()) as srv:
        res = srv.submit_chain("unique", values).result(timeout=10.0)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    np.testing.assert_array_equal(res.output, values[keep])
    assert freeze_ops("unique") == [["unique"]]
