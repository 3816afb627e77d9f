"""Pass discipline of the vectorized launches: host work per launch is a
constant number of whole-array operations, never a Python loop over
work-groups.

The guard counts Python and C function calls under ``sys.setprofile``
rather than timing anything, so it is exact: a launch whose grid is 16x
larger must make exactly as many calls.  The garbage collector stays
off in the counted window, since a finalizer it runs there (a garbage
cycle's ``__del__``, say) would be counted too.
"""

import gc
import sys

import numpy as np
import pytest

from repro import obs
from repro.core.fused import FuseStage, run_fused_irregular
from repro.core.irregular import run_irregular_ds
from repro.core.predicates import is_even, not_equal_to
from repro.simgpu.buffers import Buffer
from repro.simgpu.stream import Stream

WG_SIZE, COARSENING = 32, 2
TILE = WG_SIZE * COARSENING


def _fused_chain(buf, stream):
    run_fused_irregular(
        buf, [FuseStage("pred", not_equal_to(0.0)), FuseStage("stencil"),
              FuseStage("pred", is_even())],
        stream, wg_size=WG_SIZE, coarsening=COARSENING, backend="vectorized")


def _irregular(buf, stream):
    run_irregular_ds(buf, not_equal_to(0.0), stream, wg_size=WG_SIZE,
                     coarsening=COARSENING, backend="vectorized")


def _calls_made(launch, n_workgroups, device):
    """Function calls one untraced vectorized launch makes over
    ``n_workgroups`` tiles (after a warm-up launch, so first-call
    imports do not count)."""
    a = np.random.default_rng(3).integers(0, 4, n_workgroups * TILE)
    a = a.astype(np.float64)
    launch(Buffer(a, "warm"), Stream(device, seed=1))
    buf, stream = Buffer(a, "fuse_in"), Stream(device, seed=1)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        launch(buf, stream)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


@pytest.mark.parametrize("launch", [_fused_chain, _irregular],
                         ids=["fused", "irregular"])
def test_call_count_independent_of_grid(maxwell, launch):
    assert obs.active() is None  # untraced: no per-group phase spans
    small = _calls_made(launch, 32, maxwell)
    large = _calls_made(launch, 512, maxwell)
    assert small == large, (
        f"{small} calls over 32 work-groups but {large} over 512: "
        f"a per-work-group Python loop")
