"""The benchmark's traced functions must exist in the package.

bench/layers.py names each traced function as a string; its tracer
looks them up only when a run is traced.  These tests import the
benchmark's target list and resolve every name, so a renamed or removed
function fails here instead of in a traced run.
"""

import importlib
from pathlib import Path

import pytest

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
