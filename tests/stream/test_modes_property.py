"""In-process and pooled streaming agree with the monolithic chain.

Both modes of :func:`repro.stream.stream_run` feed one stitcher, so
for every chain the pool can run they must produce the monolithic
chain's bytes, the same extras apart from ``n_workers`` and the same
launches.  Hypothesis draws the shard size, an input size around the
shard edges and small values with runs planted across every edge, so
``unique``'s boundary carry and ``partition``'s trues/falses order are
exercised at every boundary.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DSConfig
from repro.core.predicates import less_than
from repro.stream import ArraySource, stream_run
from repro.stream.engine import normalize_chain
from repro.stream.pool import fork_unavailable_reason

pytestmark = pytest.mark.skipif(
    fork_unavailable_reason() is not None,
    reason=f"fork start method unavailable: {fork_unavailable_reason()}")

CHAINS = {
    "compact": [("compact", 0.0)],
    "unique": ["unique"],
    "compact-unique": [("compact", 0.0), "unique"],
    "remove_if-unique": [("remove_if", less_than(2.0)), "unique"],
    "compact-partition": [("compact", 0.0), ("partition", less_than(3.0))],
    # unique before another stage runs in-process even when pooled.
    "unique-compact": ["unique", ("compact", 0.0)],
}


@st.composite
def shard_inputs(draw):
    shard = draw(st.sampled_from([1, 7, 32, 61, 64, 65]))
    n = draw(st.sampled_from(sorted({0, 1, shard - 1, shard + 1,
                                     3 * shard, 5 * shard + 3})))
    values = np.array(draw(st.lists(st.integers(0, 4), min_size=n,
                                    max_size=n)), dtype=np.float32)
    for edge in range(shard, n, shard):
        value, left, right = draw(st.tuples(
            st.integers(0, 4), st.integers(1, 3), st.integers(1, 3)))
        values[max(0, edge - left):edge + right] = value
    return shard, values


def _monolithic(chain, values, config):
    out = values
    for desc, args, kwargs in normalize_chain(chain):
        result = desc.runner(out, *args, config=config, **kwargs)
        out = result.output
    return result


def _launches(result):
    return [(c.kernel_name, c.bytes_moved) for c in result.counters]


@pytest.mark.parametrize("backend", ["simulated", "vectorized"])
@pytest.mark.parametrize("chain", list(CHAINS.values()), ids=list(CHAINS))
@settings(max_examples=12, derandomize=True, deadline=None)
@given(case=shard_inputs())
def test_modes_match_monolithic(chain, backend, case):
    shard, values = case
    config = DSConfig(wg_size=32, coarsening=2, backend=backend,
                      shard_elems=shard)
    ref = _monolithic(chain, values, config).output
    runs = {}
    for workers in (0, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            runs[workers] = stream_run(chain, ArraySource(values),
                                       config=config, workers=workers)
    for res in runs.values():
        assert res.output.dtype == ref.dtype
        assert res.output.shape == ref.shape
        assert res.output.tobytes() == ref.tobytes()
    seq, pooled = runs[0].extras, runs[2].extras
    assert seq["n_workers"] == 0
    assert ({k: v for k, v in seq.items() if k != "n_workers"}
            == {k: v for k, v in pooled.items() if k != "n_workers"})
    assert _launches(runs[0]) == _launches(runs[2])
