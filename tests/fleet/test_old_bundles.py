"""Incident bundles written before the flight recorder became the only
bundle writer still load: ``repro analyze`` renders them and ``repro
replay --plan`` reconstructs the traffic that tripped them.

The fixtures under ``old_bundles/`` come from a two-worker fleet traced
in ``spans`` mode with ``flight_capacity=16``, driven through a
breaker-open incident: ``worker-incident`` is worker ``w1``'s own
bundle, ``fleet-incident`` the fleet-wide bundle the router gathered
when that worker escalated it.
"""

import json
from pathlib import Path

import pytest

from repro.fleet.cli import replay_main
from repro.obs.analyze import main as analyze_main

BUNDLES = Path(__file__).parent / "old_bundles"
NAMES = ["worker-incident", "fleet-incident"]


@pytest.mark.parametrize("name", NAMES)
def test_analyze_renders_old_bundle(name, capsys):
    assert analyze_main([str(BUNDLES / name)]) == 0
    out = capsys.readouterr().out
    assert "incident: trigger=breaker_open" in out
    assert "serve.fast_path_failed" in out
    assert "launch irregular_ds" in out


def test_analyze_joins_old_fleet_bundle_across_processes(capsys):
    assert analyze_main([str(BUNDLES / "fleet-incident")]) == 0
    out = capsys.readouterr().out
    assert "fleet requests (3;" in out
    assert "worker view [worker w1]" in out


@pytest.mark.parametrize("name", NAMES)
def test_replay_plans_old_bundle(name, capsys):
    assert replay_main([str(BUNDLES / name), "--plan"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["trigger"] == "breaker_open"
    assert (plan["shape"], plan["n"], plan["fault"]) == \
        ("compact", 64, "always")
    assert plan["serve_config"]["flight_capacity"] == 16
