"""Compare two result files of ``run.py`` against the bounds in
``BENCHMARK.json``::

    python3 benchmarks/layers/compare.py A.json B.json

For each (workload, end-to-end metric) it prints both medians, the
change, the bound and a verdict:

* ``unresolved`` — either side's spread across its runs (interquartile
  range over median) is wider than the bound, so the runs cannot tell;
* ``worse`` / ``better`` — B moved past the bound in that direction;
* ``within bound`` — otherwise.

Exits 1 if any pair is worse or missing from B.  Quartiles come from
the ``--runs`` of each file; a single-run file has no spread.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """(change as a share of A's median, verdict) for one pair."""
    change = (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    worse_by = change if better == "lower" else -change
    if spread > bound:
        return change, "unresolved"
    if worse_by > bound:
        return change, "worse"
    if worse_by < -bound:
        return change, "better"
    return change, "within bound"


def compare(a_doc: dict, b_doc: dict, spec: dict) -> list:
    rows = []
    for workload, a_wl in a_doc["workloads"].items():
        b_wl = b_doc["workloads"].get(workload, {})
        for m in spec["end_to_end"]:
            a = a_wl["end_to_end"][m["name"]]
            b = b_wl.get("end_to_end", {}).get(m["name"])
            if b is None:
                rows.append((workload, m, a, None, None, "missing"))
                continue
            change, word = verdict(a, b, m["better"], m["bound"])
            rows.append((workload, m, a, b, change, word))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="baseline result file")
    parser.add_argument("b", help="result file to judge")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    docs = [json.loads(Path(p).read_text()) for p in (args.a, args.b)]
    rows = compare(docs[0], docs[1], spec)
    print(f"{'workload':<10} {'metric':<16} {'A median':>12} "
          f"{'B median':>12} {'change':>8} {'bound':>6}  verdict")
    for workload, m, a, b, change, word in rows:
        b_text = f"{b['median']:>12.5g}" if b else f"{'-':>12}"
        c_text = f"{change * 100:>+7.1f}%" if b else f"{'-':>8}"
        print(f"{workload:<10} {m['name']:<16} {a['median']:>12.5g} "
              f"{b_text} {c_text} {m['bound'] * 100:>5.0f}%  {word}")
    bad = [r for r in rows if r[5] in ("worse", "missing")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
