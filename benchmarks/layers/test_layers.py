"""Tests of the layer benchmark itself::

    python -m pytest benchmarks/layers -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_py(*args, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "layers" / "run.py"),
         *args], cwd=root, capture_output=True, text=True, timeout=600)


def _assert_declared(metrics: dict, declared: list, key: str) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got[key]), m["name"]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("layers")
    proc = run_py("--smoke", "--out", str(out / "R.json"),
                  "--trace-dir", str(out / "traces"))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads((out / "R.json").read_text()), out / "traces", \
        proc.stdout


def test_smoke_emits_every_declared_metric(smoke):
    report, _, stdout = smoke
    assert sorted(report["workloads"]) == sorted(WORKLOADS)
    for name, wl in report["workloads"].items():
        assert wl["correct"] and wl["failed"] == 0, (name, wl["errors"])
        _assert_declared(wl["end_to_end"], SPEC["end_to_end"], "median")
        _assert_declared(wl["per_layer"], SPEC["per_layer"], "value")
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert f"{name:<10} {m['name']} " in stdout
    host = report["host"]
    assert host["nproc"] and host["python"] and host["numpy"]


def test_smoke_writes_valid_chrome_traces(smoke):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.export import validate_chrome_trace

    _, traces, _ = smoke
    for name in WORKLOADS:
        doc = json.loads((traces / f"{name}.json").read_text())
        validate_chrome_trace(doc)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_result_line(trace):
    proc = run_py("--workload", "batch_1k", "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = _last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    _assert_declared(line["metrics"],
                     SPEC["per_layer"] if trace else SPEC["end_to_end"],
                     "value")


def test_corrupted_output_fails_the_run():
    proc = run_py("--workload", "batch_1k", "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--inject-corruption")
    assert proc.returncode == 1
    line = _last_json(proc.stdout)
    assert line["correct"] is False and line["failed"] == 1


def test_checkout_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "layers",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_py("--workload", "batch_1k", "--seed", "1", "--seconds", "1",
                  "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _doc(median: float, q1: float, q3: float) -> dict:
    e2e = {m["name"]: {"median": median, "q1": q1, "q3": q3}
           for m in SPEC["end_to_end"]}
    return {"workloads": {"batch_1k": {"end_to_end": e2e}}}


@pytest.mark.parametrize("b, expected", [
    (_doc(10.2, 10.1, 10.3), "within bound"),
    (_doc(13.0, 12.9, 13.1), "worse"),
    (_doc(7.0, 6.9, 7.1), "better"),
    (_doc(10.0, 8.0, 12.0), "unresolved"),
])
def test_compare_verdicts(b, expected):
    a = _doc(10.0, 9.9, 10.1)
    rows = compare.compare(a, b, SPEC)
    latency = [r for r in rows if r[1]["name"] == "latency_p50_ms"]
    assert latency[0][5] == expected


def test_compare_exit_code(tmp_path):
    (tmp_path / "a.json").write_text(json.dumps(_doc(10.0, 9.9, 10.1)))
    (tmp_path / "b.json").write_text(json.dumps(_doc(10.1, 10.0, 10.2)))
    (tmp_path / "c.json").write_text(json.dumps(_doc(13.0, 12.9, 13.1)))
    a, b, c = (str(tmp_path / f"{x}.json") for x in "abc")
    assert compare.main([a, b]) == 0
    # Every metric moved up 30%: latency is worse (exit 1) even though
    # throughput reads better.
    assert compare.main([a, c]) == 1
