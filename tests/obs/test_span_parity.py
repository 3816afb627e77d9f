"""What each execution backend's spans record, for the same input.

Both backends agree on the host-side structure — one root primitive
span per call labelled with its backend, and the same launches, by
name, in the same order.  Below the launch span each records only what
it ran:

* the event-level simulator has work-groups, so every group of a launch
  leaves one phase tree on its own ``wg:`` track — ``load -> sync ->
  store`` for regular launches, ``load -> reduce -> sync -> store`` with
  the flag-round scans nested in ``store`` for irregular ones (the copy
  kernel has no algorithm phases).  ``sched`` spans such as
  ``sync_wait`` are schedule-dependent, exactly like ``n_spins``, and
  are left out;
* a vectorized launch runs whole-array operations, so it records two
  host phases under its launch span, ``movement`` then ``accounting``,
  whatever the grid size, and no ``wg:`` track exists.
"""

from collections import Counter as Multiset

import numpy as np
import pytest

from repro import obs
from repro.config import DSConfig
from repro.pipeline import Pipeline
from repro.primitives import (
    ds_copy_if,
    ds_pad,
    ds_partition,
    ds_remove_if,
    ds_stream_compact,
    ds_unique,
    ds_unique_by_key,
    ds_unpad,
)
from repro.workloads import (
    compaction_array,
    padding_matrix,
    predicate_fraction_array,
    runs_array,
)

N = 4096
WG = 64
REGULAR = ("load", "sync", "store")
IRREGULAR = ("load", "reduce", "sync", "store")


def phase_tree(span):
    """Nested ``(name, children)`` shape of one span, phases only."""
    return (span.name, tuple(phase_tree(c) for c in span.children
                             if c.cat == "phase"))


def wg_phase_forest(tracer, launch=None):
    """Multiset of per-work-group-track phase trees (only those inside
    ``launch`` when given)."""
    forest = Multiset()
    for track in tracer.tracks:
        if not track.startswith("wg:"):
            continue
        trees = tuple(phase_tree(sp) for sp in tracer.roots(track)
                      if sp.cat == "phase" and (
                          launch is None
                          or launch.start_us <= sp.start_us
                          and sp.end_us <= launch.end_us))
        if trees:
            forest[trees] += 1
    return forest


def expected_phases(launch_name):
    """Top-level phases each work-group of a simulated launch runs."""
    if launch_name.startswith("regular_ds"):
        return REGULAR
    if "copy" in launch_name:
        return ()
    return IRREGULAR


def assert_simulated_phase_trees(tracer):
    """One phase tree per work-group of every launch, its phases in
    pipeline order, with scans nested only inside ``store``."""
    for launch in tracer.find_spans(cat="launch"):
        forest = wg_phase_forest(tracer, launch)
        expected = expected_phases(launch.name)
        if not expected:
            assert not forest, f"{launch.name}: unexpected phase spans"
            continue
        assert sum(forest.values()) == launch.args["grid_size"]
        for trees in forest:
            assert tuple(name for name, _ in trees) == expected
            for name, children in trees:
                if expected == IRREGULAR and name == "store":
                    assert children
                    assert {c for c, _ in children} == {"scan"}
                else:
                    assert children == ()


def assert_host_phases(tracer):
    """No work-group track; every launch holds exactly its two host
    phases, in order, inside the launch span.  Returns the launches."""
    assert not [tr for tr in tracer.tracks if tr.startswith("wg:")]
    launches = tracer.find_spans(cat="launch")
    assert launches
    for launch in launches:
        assert [(c.name, c.cat, c.track) for c in launch.children] == [
            ("movement", "phase", "host"), ("accounting", "phase", "host")]
        movement, accounting = launch.children
        assert (launch.start_us <= movement.start_us <= movement.end_us
                <= accounting.start_us <= accounting.end_us
                <= launch.end_us)
    return launches


def traced(run):
    tracers = {}
    for backend in ("simulated", "vectorized"):
        with obs.tracing("spans") as t:
            run(backend)
        tracers[backend] = t
    return tracers


def assert_span_parity(run, primitive_name):
    tracers = traced(run)
    sim, vec = tracers["simulated"], tracers["vectorized"]

    # One root primitive span per call, on both backends, labelled.
    for name, t in tracers.items():
        roots = t.find_spans(primitive_name, cat="primitive")
        assert roots, f"{name}: no {primitive_name} primitive span"
        for sp in roots:
            assert sp.args["backend"] == name
            assert sp.end_us is not None

    # The same launches, by name, in the same order.
    assert [sp.name for sp in sim.find_spans(cat="launch")] == \
        [sp.name for sp in vec.find_spans(cat="launch")]

    assert_simulated_phase_trees(sim)
    assert_host_phases(vec)


class TestRegularPrimitives:
    def test_pad(self):
        matrix = padding_matrix(64, 31)
        assert_span_parity(
            lambda b: ds_pad(matrix, 1,
                             config=DSConfig(wg_size=WG, seed=3, backend=b)),
            "ds_pad")

    def test_unpad(self):
        matrix = padding_matrix(64, 32)
        assert_span_parity(
            lambda b: ds_unpad(matrix, 1,
                               config=DSConfig(wg_size=WG, seed=3, backend=b)),
            "ds_unpad")

    def test_regular_tree_shape(self):
        """Regular DS phases are load -> sync -> store, no reduce."""
        matrix = padding_matrix(64, 31)
        with obs.tracing("spans") as t:
            ds_pad(matrix, 1,
                   config=DSConfig(wg_size=WG, seed=3, backend="simulated"))
        forest = wg_phase_forest(t)
        assert forest
        for trees, _ in forest.items():
            assert [name for name, _ in trees] == ["load", "sync", "store"]


class TestIrregularPrimitives:
    def test_stream_compact(self):
        values = compaction_array(N, 0.5, seed=8)
        assert_span_parity(
            lambda b: ds_stream_compact(values, 0.0,
                                        config=DSConfig(
                                            wg_size=WG, seed=8, backend=b)),
            "ds_stream_compact")

    def test_remove_if(self):
        values, pred = predicate_fraction_array(N, 0.5, seed=12)
        assert_span_parity(
            lambda b: ds_remove_if(values, pred,
                                   config=DSConfig(
                                       wg_size=WG, seed=12, backend=b)),
            "ds_remove_if")

    def test_copy_if(self):
        values, pred = predicate_fraction_array(N, 0.25, seed=5)
        assert_span_parity(
            lambda b: ds_copy_if(values, pred,
                                 config=DSConfig(
                                     wg_size=WG, seed=5, backend=b)),
            "ds_copy_if")

    def test_unique(self):
        values = runs_array(N, 0.25, seed=16)
        assert_span_parity(
            lambda b: ds_unique(values,
                                config=DSConfig(
                                    wg_size=WG, seed=16, backend=b)),
            "ds_unique")

    def test_partition(self):
        values, pred = predicate_fraction_array(N, 0.5, seed=19)
        assert_span_parity(
            lambda b: ds_partition(values, pred,
                                   config=DSConfig(
                                       wg_size=WG, seed=19, backend=b)),
            "ds_partition")

    def test_irregular_tree_shape(self):
        """Irregular DS phases are load -> reduce -> sync -> store,
        with the flag-round scans nested inside store."""
        values = compaction_array(N, 0.5, seed=8)
        with obs.tracing("spans") as t:
            ds_stream_compact(values, 0.0,
                              config=DSConfig(
                                  wg_size=WG, seed=8, backend="simulated"))
        saw_scan = False
        for trees, _ in wg_phase_forest(t).items():
            for name, children in trees:
                assert name in ("load", "reduce", "sync", "store")
                if name == "store" and children:
                    assert {c for c, _ in children} == {"scan"}
                    saw_scan = True
        assert saw_scan

    def test_sync_wait_only_on_simulated(self):
        values = compaction_array(N, 0.5, seed=8)
        tracers = traced(
            lambda b: ds_stream_compact(values, 0.0,
                                        config=DSConfig(
                                            wg_size=WG, seed=8, backend=b)))
        assert tracers["simulated"].find_spans("sync_wait", cat="sched")
        assert not tracers["vectorized"].find_spans("sync_wait")


class TestKeyedPrimitives:
    def test_unique_by_key(self):
        keys = runs_array(N, 0.25, seed=21)
        vals = np.arange(N, dtype=np.float32)
        assert_span_parity(
            lambda b: ds_unique_by_key(keys, vals,
                                       config=DSConfig(
                                           wg_size=WG, seed=21, backend=b)),
            "ds_unique_by_key")


def vectorized_spans(run, n):
    """Trace ``run(n)`` on the vectorized backend; check every launch
    holds only its host phases and return ``(n_spans, launches)``."""
    with obs.tracing("spans") as t:
        run(n, DSConfig(backend="vectorized"))
    launches = assert_host_phases(t)
    return sum(1 for _ in t.iter_spans()), launches


def run_compact(n, config):
    ds_stream_compact(compaction_array(n, 0.5, seed=8), 0.0, config=config)


def run_fused_step(n, config):
    p = Pipeline(config=config)
    p.unique(p.compact(runs_array(n, 0.25, seed=16), 0.0))
    p.run()


def run_partition(n, config):
    ds_partition(*predicate_fraction_array(n, 0.5, seed=19), config=config)


class TestVectorizedSpanCount:
    """A traced vectorized launch records the same spans at every grid
    size (grid 1 at n = 1,024 and 256 at n = 1M with the default
    config): the launch and its two host phases."""

    def test_compact(self):
        small, (launch,) = vectorized_spans(run_compact, 1024)
        large, (big_launch,) = vectorized_spans(run_compact, 1 << 20)
        assert launch.args["grid_size"] < big_launch.args["grid_size"]
        # primitive, launch, movement, accounting
        assert small == large == 4

    def test_fused_pipeline_step(self):
        small, (launch,) = vectorized_spans(run_fused_step, 1024)
        large, _ = vectorized_spans(run_fused_step, 1 << 20)
        assert launch.name.startswith("fused")
        assert small == large

    def test_partition_runs_the_copy_launch(self):
        small, launches = vectorized_spans(run_partition, 1024)
        large, _ = vectorized_spans(run_partition, 1 << 20)
        assert launches[-1].name == "partition_copy_back"
        assert small == large


class TestMetricsParity:
    def test_stream_counters_match_launch_counters(self):
        values = compaction_array(N, 0.5, seed=8)
        results = {}
        tracers = {}
        for backend in ("simulated", "vectorized"):
            with obs.tracing("spans") as t:
                results[backend] = ds_stream_compact(values, 0.0,
                                                     config=DSConfig(
                                                         wg_size=WG, seed=8, backend=backend))
            tracers[backend] = t
        for backend, t in tracers.items():
            c = results[backend].counters[0]
            m = t.metrics
            assert m.counter("stream.launches").value == 1
            assert m.counter("stream.bytes_loaded").value == c.bytes_loaded
            assert m.counter("stream.bytes_stored").value == c.bytes_stored
            assert m.counter("stream.atomics").value == c.n_atomics
            assert m.gauge("sched.peak_resident").value == c.peak_resident
        sim_m, vec_m = tracers["simulated"].metrics, \
            tracers["vectorized"].metrics
        for name in ("stream.bytes_loaded", "stream.bytes_stored",
                     "stream.atomics", "stream.barriers"):
            assert sim_m.counter(name).value == vec_m.counter(name).value

    @pytest.mark.slow
    def test_spin_wait_histograms_cover_waiting_groups(self):
        values = compaction_array(N, 0.5, seed=8)
        with obs.tracing("spans") as t:
            result = ds_stream_compact(values, 0.0,
                                       config=DSConfig(
                                           wg_size=WG, seed=8, backend="simulated"))
        n_wgs = result.extras["n_workgroups"]
        hists = t.metrics.instruments("sched.spin_wait_us")
        assert 0 < len(hists) <= n_wgs
        waits = t.find_spans("sync_wait", cat="sched")
        assert sum(h.count for h in hists) == len(waits)
        for h in hists:
            assert h.count > 0 and h.min >= 0.0
