"""``repro.stream`` — out-of-core sharded streaming over the DS primitives.

Everything below :mod:`repro.stream` assumed the whole input fits one
simulated device.  This package lifts that cap with the paper's own
mechanism applied one level up: split the input into device-sized
**shards**, stream each shard through the ordinary DS kernels in
load/compute/store stages, and chain shard boundaries with the same
flag protocol :mod:`repro.core.adjacent_sync` uses between
work-groups — a :class:`~repro.stream.ledger.ShardLedger`
carries each shard's kept-count downstream exactly like the Figure 7
flags (and resolves out-of-order completions with the decoupled
lookback state machine of :mod:`repro.collectives.lookback`), so the
irregular primitives stay single-pass over the out-of-core input.

Public surface:

* :class:`~repro.stream.source.DSSource` and
  :func:`~repro.stream.source.as_source` — the unified input protocol
  (ndarray | memmap | shared-memory handle | shard iterator) accepted
  by :func:`repro.ds`, :class:`~repro.pipeline.engine.Pipeline` and
  :meth:`repro.serve.Server.submit`;
* :func:`~repro.stream.engine.stream_run` — stream an op chain over a
  source (the engine behind all three front doors).  One shard loop
  serves both of its modes: shards run in this process, or — with
  ``workers=N`` — in a forked worker pool over shared-memory NumPy
  buffers (:mod:`repro.stream.pool`), one shard per task; either way
  one stitcher publishes them to the ledger and assembles the output;
* :func:`~repro.stream.plan.plan_shards` — the sharding planner.

See ``docs/streaming.md`` for the shard protocol and memory model.
"""

from repro.stream.engine import (
    DEFAULT_SHARD_ELEMS,
    STREAMABLE_OPS,
    is_out_of_core,
    stream_run,
)
from repro.stream.ledger import ShardLedger
from repro.stream.plan import Shard, plan_shards
from repro.stream.source import (
    ArraySource,
    DSSource,
    MemmapSource,
    ShardIterSource,
    SharedMemorySource,
    as_source,
)

__all__ = [
    "DSSource",
    "ArraySource",
    "MemmapSource",
    "SharedMemorySource",
    "ShardIterSource",
    "as_source",
    "Shard",
    "plan_shards",
    "ShardLedger",
    "stream_run",
    "is_out_of_core",
    "DEFAULT_SHARD_ELEMS",
    "STREAMABLE_OPS",
]
