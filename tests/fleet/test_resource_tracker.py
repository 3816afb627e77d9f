"""Fleet workers share their router's multiprocessing resource tracker.

A worker forked before the router's tracker runs starts one of its
own at its first segment attach; the router's unlinks never reach it,
so at exit it reports every segment the worker saw as leaked and
fails to unlink each one — noise that would drown a real leak report.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.stream.pool import fork_unavailable_reason

pytestmark = pytest.mark.skipif(
    fork_unavailable_reason() is not None,
    reason=f"fork start method unavailable: {fork_unavailable_reason()}")

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import numpy as np
from repro.fleet import Fleet, FleetConfig
from repro.serve.config import ServeConfig
from repro.serve.loadgen import make_shape

spec = make_shape("chain", 256, seed=1)
config = FleetConfig(n_workers=1, min_workers=1, max_workers=1,
                     tick_interval_s=0.0,
                     serve=ServeConfig(max_wait_ms=1.0))
with Fleet(config) as fleet:
    for _ in range(20):
        res = fleet.submit_chain(list(spec.ops), spec.array)
        assert np.array_equal(res.result(timeout=60.0).output,
                              spec.expected)
print("served")
"""


def test_a_fleet_run_leaves_no_resource_tracker_noise():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "served"
    noise = [line for line in proc.stderr.splitlines()
             if "resource_tracker" in line]
    assert not noise, "\n".join(noise[:6])
