"""Traced execution of the paper experiments (``python -m repro trace``).

Maps experiment ids to small representative runs of the figure's
primary DS primitive, executes each under a fresh
:class:`~repro.obs.tracer.Tracer` per backend, and exports the
combined Chrome-trace document — one *process* per backend — plus the
aggregate metrics.  Load the file in ``chrome://tracing`` or
https://ui.perfetto.dev to see the schedule: the simulated backend has
one *thread* per work-group, with phase spans along every work-group
track and ``sync_wait`` gaps on the Figure 7 synchronization chain; the
vectorized backend has no work-groups to time, and each of its launch
spans holds the two host phases it ran, ``movement`` and
``accounting``.  Both show the single-launch structure the paper's
algorithms are about.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.config import DSConfig
from repro.errors import ReproError
from repro.obs import tracer as _tracer
from repro.obs.export import (
    export_chrome_trace,
    export_jsonl,
    validate_chrome_trace,
)

__all__ = ["TRACEABLE", "DEFAULT_ELEMENTS", "run_traced", "trace_experiment"]

DEFAULT_ELEMENTS = 16 * 1024
"""Default workload size for traced runs — big enough for a few dozen
work-groups (a readable timeline), small enough that full event-level
tracing stays instant."""


def _fig08(n: int, backend: Optional[str]):
    from repro.primitives import ds_pad
    from repro.workloads import padding_matrix

    rows = max(2, n // 64)
    matrix = padding_matrix(rows, 63)
    return ds_pad(matrix, 1, config=DSConfig(seed=3, backend=backend))


def _fig09(n: int, backend: Optional[str]):
    from repro.primitives import ds_unpad
    from repro.workloads import padding_matrix

    rows = max(2, n // 64)
    matrix = padding_matrix(rows, 64)
    return ds_unpad(matrix, 1, config=DSConfig(seed=3, backend=backend))


def _fig12(n: int, backend: Optional[str]):
    from repro.primitives import ds_remove_if
    from repro.workloads import predicate_fraction_array

    values, predicate = predicate_fraction_array(n, 0.5, seed=12)
    return ds_remove_if(values, predicate,
                        config=DSConfig(seed=12, backend=backend))


def _fig13(n: int, backend: Optional[str]):
    from repro.primitives import ds_stream_compact
    from repro.workloads import compaction_array

    values = compaction_array(n, 0.5, seed=8)
    return ds_stream_compact(values, 0.0,
                             config=DSConfig(seed=8, backend=backend))


def _fig16(n: int, backend: Optional[str]):
    from repro.primitives import ds_unique
    from repro.workloads import runs_array

    values = runs_array(n, 0.25, seed=16)
    return ds_unique(values, config=DSConfig(seed=16, backend=backend))


def _fig19(n: int, backend: Optional[str]):
    from repro.primitives import ds_partition
    from repro.workloads import predicate_fraction_array

    values, predicate = predicate_fraction_array(n, 0.5, seed=19)
    return ds_partition(values, predicate,
                        config=DSConfig(seed=19, backend=backend))


TRACEABLE: Dict[str, Callable] = {
    "fig08": _fig08,  # DS Padding (regular, expanding)
    "fig09": _fig09,  # DS Unpadding (regular, shrinking)
    "fig12": _fig12,  # DS Remove_if (irregular)
    "fig13": _fig13,  # DS Stream Compaction (irregular)
    "fig16": _fig16,  # DS Unique (irregular, stencil)
    "fig19": _fig19,  # DS Partition (irregular + copy-back)
}


def run_traced(
    experiment: str,
    *,
    elements: int = DEFAULT_ELEMENTS,
    backends=("simulated", "vectorized"),
    mode: str = "full",
) -> Dict[str, _tracer.Tracer]:
    """Run one experiment under a fresh tracer per backend."""
    if experiment not in TRACEABLE:
        raise ReproError(
            f"experiment {experiment!r} is not traceable; "
            f"choose from {sorted(TRACEABLE)}")
    run = TRACEABLE[experiment]
    tracers: Dict[str, _tracer.Tracer] = {}
    for backend in backends:
        with _tracer.tracing(mode) as t:
            run(int(elements), backend)
        tracers[backend] = t
    return tracers


def trace_experiment(
    experiment: str,
    out_path: str,
    *,
    elements: int = DEFAULT_ELEMENTS,
    backends=("simulated", "vectorized"),
    mode: str = "full",
    jsonl_path: Optional[str] = None,
    check: bool = False,
) -> dict:
    """Run, export and (optionally) validate one traced experiment.

    Returns the Chrome-trace document that was written to ``out_path``.
    ``jsonl_path`` additionally writes the flat JSONL log of the first
    backend's tracer.  ``check=True`` re-validates the exported document
    (the ``make trace-smoke`` gate).
    """
    tracers = run_traced(experiment, elements=elements, backends=backends,
                         mode=mode)
    doc = export_chrome_trace(tracers, out_path)
    if jsonl_path:
        export_jsonl(next(iter(tracers.values())), jsonl_path)
    if check:
        validate_chrome_trace(doc)
        _check_structure(tracers)
    return doc


def _check_structure(tracers: Dict[str, _tracer.Tracer]) -> None:
    """Assert the structural guarantees the exported trace advertises:
    a root primitive span and launch spans labelled with the backend,
    work-group tracks on the simulated backend only, and exactly the
    ``movement`` and ``accounting`` host phases under every vectorized
    launch span."""
    for name, t in tracers.items():
        prims = t.find_spans(cat="primitive")
        if not prims:
            raise ReproError(f"{name}: trace has no primitive root span")
        launches = t.find_spans(cat="launch")
        if not launches:
            raise ReproError(f"{name}: trace has no launch span")
        wg_tracks = [tr for tr in t.tracks if tr.startswith("wg:")]
        if name == "simulated" and not wg_tracks:
            raise ReproError(f"{name}: trace has no work-group tracks")
        if name == "vectorized" and wg_tracks:
            raise ReproError(
                f"{name}: trace has work-group tracks, but vectorized "
                f"launches have no work-groups to time")
        for launch in launches:
            if launch.args.get("backend") != name:
                raise ReproError(
                    f"{name}: launch span {launch.name!r} labelled "
                    f"{launch.args.get('backend')!r}")
            if name == "vectorized":
                phases = [c.name for c in launch.children
                          if c.cat == "phase"]
                if phases != ["movement", "accounting"]:
                    raise ReproError(
                        f"{name}: launch span {launch.name!r} has host "
                        f"phases {phases}, expected movement and "
                        f"accounting")
