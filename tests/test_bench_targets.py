"""The benchmark's traced functions must exist in the package.

bench/layers.py names each traced function as a string; its tracer
looks them up only when a run is traced.  These tests import the
benchmark's target list and resolve every name, so a renamed or removed
function fails here instead of in a traced run, and check that each
target is called on some workload.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import mjsreduce as mj

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("layers"), importlib.import_module("spans")


def test_every_traced_target_resolves(bench_modules):
    layers, _ = bench_modules
    assert layers.TARGETS
    for target in layers.TARGETS:
        obj = importlib.import_module(f"mjsreduce.{target.module}")
        for part in target.qualname.split("."):
            assert hasattr(obj, part), f"{target.name}: no attribute {part!r}"
            obj = getattr(obj, part)
        assert callable(obj), f"{target.name} is not callable"


def test_tracer_installs_and_restores_every_target(bench_modules):
    layers, spans = bench_modules
    import mjsreduce.lqr as lqr

    before = lqr.closed_loop_average_cost
    tracer = spans.Tracer(layers.TARGETS)
    try:
        tracer.install()
        assert lqr.closed_loop_average_cost is not before
    finally:
        tracer.uninstall()
    assert lqr.closed_loop_average_cost is before


def test_tracer_counts_fill(bench_modules, monkeypatch):
    # The count callbacks read result fields and argument names of the
    # package (JsrBounds.levels_completed, TransientEstimate.complete,
    # A_list, ...), so a rename fails here, not in a traced run.
    layers, spans = bench_modules
    model, partition, _ = mj.generate(mj.SynthConfig(6, 2, 2, 1, seed=3))
    reduced = mj.average_model(model, partition)
    monkeypatch.setattr(mj.stability, "JSR_LEVELS", 3)
    tracer = spans.Tracer(layers.TARGETS)
    try:
        tracer.install()
        mj.stability_report(model)
        mj.kmeans_partition(np.arange(12.0).reshape(6, 2), 2, restarts=3, seed=0)
        mj.riccati_solve(model, np.eye(2), np.eye(1))
        mj.simulate_coupled_batch(model, reduced, partition, np.ones(2), 5, 4, seed=0)
    finally:
        tracer.uninstall()
    c = tracer.counters
    assert c["stability.jsr_bounds.levels"] == 3
    assert c["jsr_levels.s6"] == 3
    assert c["stability.jsr_bounds.complete"] == 1
    assert c["stability.kappa_estimate.complete"] == 1
    assert c["clustering.kmeans_partition.restarts"] == 3
    assert c["clustering.kmeans_partition.short"] == 0
    assert c["lqr.riccati_solve.iterations"] > 0
    assert c["model.simulate_coupled_batch.steps"] == 4 * 5
    names = {sp.name for sp in tracer.spans}
    assert {"stability.jsr_bounds", "stability.kappa_estimate"} <= names


def test_an_auto_reduction_traces_the_kmeans_run_of_each_branch(bench_modules):
    # reduce_model(branch=None) draws one set of restart streams for its
    # two branches, and each branch's k-means still runs through
    # kmeans_partition, so the per-layer k-means metrics count both.
    layers, spans = bench_modules
    model, _, _ = mj.generate(mj.SynthConfig(6, 2, 2, 1, seed=3))
    tracer = spans.Tracer(layers.TARGETS)
    try:
        tracer.install()
        mj.reduce_model(model, 2, restarts=3, seed=0)
    finally:
        tracer.uninstall()
    calls = [sp for sp in tracer.spans if sp.name == "clustering.kmeans_partition"]
    assert len(calls) == 2
    assert tracer.counters["clustering.kmeans_partition.restarts"] == 2 * 3
    assert tracer.counters["clustering.kmeans_partition.short"] == 0


# Targets that no workload calls; ROADMAP item 1a drops them from
# bench/layers.py.
UNCALLED = {"stability.tau_estimate", "stability.augmented_matrix"}


def test_every_traced_target_is_called_on_some_workload(bench_modules):
    # One round of each workload at seed 0, set-up included, since
    # synth.generate runs only there.  A target that no workload calls
    # reads 0 on every per-layer metric and measures nothing.
    layers, spans = bench_modules
    workloads = importlib.import_module("workloads")
    tracer = spans.Tracer(layers.TARGETS)
    try:
        tracer.install()
        for make_inputs, make_ops in workloads.WORKLOADS.values():
            for op in make_ops(make_inputs(0), None):
                op.run()
    finally:
        tracer.uninstall()
    called = spans.per_function(tracer.spans)
    assert {t.name for t in layers.TARGETS if t.name not in called} == UNCALLED
