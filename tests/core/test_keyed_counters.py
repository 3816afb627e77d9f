"""Keyed launches keep their counters: a fixture recorded from the
dedicated keyed kernel pins every ``LaunchCounters`` field of
``ds_unique_by_key`` and ``ds_compact_records`` across both backends,
three launch geometries, race tracking and resident-limited schedules.

Regenerate the fixture (only when a counter change is intended) with::

    PYTHONPATH=src python tests/core/test_keyed_counters.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import DSConfig
from repro.core.predicates import less_than
from repro.perfmodel.model import price_launch
from repro.primitives import ds_compact_records, ds_unique_by_key
from repro.simgpu import Stream
from repro.simgpu.counters import LaunchCounters

FIXTURE = Path(__file__).with_name("keyed_counters.json")

# Extras every Algorithm 2 launch records, which the keyed launches did
# not record when the fixture was taken.
NEW_EXTRAS = ("coarsening", "spilled", "scan_first")

GEOMETRIES = {"wg64_cf2": (64, 2), "wg32_cfauto": (32, None),
              "wg256_cf64": (256, 64)}
N = 20_000


def _data():
    rng = np.random.default_rng(2015)
    keys = np.repeat(rng.integers(0, 500, N), rng.integers(1, 6, N))[:N]
    return {
        "keys": keys.astype(np.float32),
        "values": rng.random(N).astype(np.float32),
        "key_column": rng.integers(0, 100, N).astype(np.int64),
        "a": rng.random(N).astype(np.float32),
        "b": rng.integers(0, 1000, N).astype(np.int16),
    }


def _cases():
    """``(case id, op, backend, geometry, race_tracking, order)``."""
    cases = []
    for op in ("unique_by_key", "compact_records"):
        for backend in ("simulated", "vectorized"):
            for geom in GEOMETRIES:
                cases.append((op, backend, geom, False, None))
        for geom in GEOMETRIES:
            cases.append((op, "simulated", geom, True, None))
        for order in ("descending", "random"):
            for backend in ("simulated", "vectorized"):
                cases.append((op, backend, "wg64_cf2", False, order))
    return [("-".join(str(p) for p in case), case) for case in cases]


def _run(op, backend, geom, race, order):
    data = _data()
    wg_size, coarsening = GEOMETRIES[geom]
    config = DSConfig(wg_size=wg_size, coarsening=coarsening,
                      backend=backend, race_tracking=race)
    if order is None:
        stream = Stream("maxwell", seed=11)
    else:
        stream = Stream("maxwell", seed=11, order=order, resident_limit=4)
    if op == "unique_by_key":
        result = ds_unique_by_key(data["keys"], data["values"], stream,
                                  config=config)
    else:
        result = ds_compact_records(
            data["key_column"], {"a": data["a"], "b": data["b"]},
            less_than(40), stream, config=config)
    assert len(result.counters) == 1
    return result.counters[0].to_dict()


def _strip(counters: dict) -> dict:
    extras = {k: v for k, v in counters["extras"].items()
              if k not in NEW_EXTRAS}
    return {**counters, "extras": extras}


CASES = _cases()


@pytest.mark.parametrize("case", [c for _, c in CASES],
                         ids=[cid for cid, _ in CASES])
def test_counters_match_fixture(case):
    expected = json.loads(FIXTURE.read_text())
    case_id = "-".join(str(p) for p in case)
    got = _strip(_run(*case))
    assert got == _strip(expected[case_id])


def test_fixture_covers_every_case():
    assert set(json.loads(FIXTURE.read_text())) == {cid for cid, _ in CASES}


@pytest.mark.parametrize("backend", ["simulated", "vectorized"])
def test_spilling_keyed_launch_is_priced_with_the_penalty(backend):
    """A keyed launch records the same geometry extras as every other
    Algorithm 2 launch, so the model's spill penalty applies to it as it
    does in ``perfmodel.pipelines.ds_keyed_launches``."""
    keys = np.arange(65_536, dtype=np.float32)
    values = np.ones(65_536, dtype=np.float32)
    result = ds_unique_by_key(
        keys, values, Stream("maxwell", seed=3),
        config=DSConfig(coarsening=64, backend=backend))
    counters = result.counters[0]
    assert counters.extras["spilled"] == 1.0
    assert counters.extras["coarsening"] == 64
    unspilled = LaunchCounters.from_dict(counters.to_dict())
    unspilled.extras["spilled"] = 0.0
    device = result.device
    assert (price_launch(counters, device).total_us
            > price_launch(unspilled, device).total_us)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {cid: _run(*case) for cid, case in CASES}, indent=1, sort_keys=True)
        + "\n")
    print(f"wrote {len(CASES)} cases to {FIXTURE}")
