"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import measure  # noqa: E402
from spans import Span, Target, Tracer, per_function, root_time, self_times  # noqa: E402


# -- tail percentile rule -------------------------------------------------


@pytest.mark.parametrize("n", [20, 37, 100, 1000])
def test_tail_leaves_ten_samples_beyond(n):
    values = list(range(1, n + 1))
    value, q, beyond = measure.tail(values)
    assert beyond == 10
    assert q == pytest.approx(100.0 * (1 - 10 / n))
    assert sum(v > value for v in values) == 10
    assert value == pytest.approx(np.percentile(values, q))


def test_tail_is_the_median_at_twenty_samples():
    values = [float(v) for v in range(20)]
    value, q, _ = measure.tail(values)
    assert q == 50.0
    assert value == measure.percentile(values, 50.0)


@pytest.mark.parametrize("n", [1, 5, 19])
def test_tail_falls_back_to_the_maximum_below_twenty_samples(n):
    values = [3.0] * (n - 1) + [7.0]
    assert measure.tail(values) == (7.0, 100.0, 0)


# -- calibration ----------------------------------------------------------


def test_scale_is_a_power_of_reference_time_over_calibration_time():
    assert measure.scale(measure.CAL_REF_S) == 1.0
    expected = 0.5**measure.CAL_EXPONENT
    assert measure.scale(2 * measure.CAL_REF_S) == pytest.approx(expected)


def test_probe_runs_a_minimum_count_and_a_minimum_time():
    cal = measure.Calibration()
    assert len(cal.probe()) == measure.CAL_MIN_RUNS
    assert sum(cal.probe(0.05)) >= 0.05
    assert len(cal.ends) == len(cal.times()) > measure.CAL_MIN_RUNS
    assert cal.ends == sorted(cal.ends)


class _FixedHost(measure.Calibration):
    """Calibration runs that take the given times, in turn, instantly."""

    def __init__(self, times):
        self._next = iter(times)
        super().__init__()

    def run_once(self):
        return next(self._next)


def test_scale_near_averages_the_runs_in_the_window():
    cal = _FixedHost([9.0, 1.0, 3.0])  # the first is the warm-up run
    cal.probe()
    t = cal.ends[-1]
    assert cal.scale_near(t, t) == pytest.approx(measure.scale(2.0))
    far = t + 10 * measure.CAL_WINDOW_S
    with pytest.raises(ValueError):
        cal.scale_near(far, far)


class _SlowHost(measure.Calibration):
    """Calibration runs that take 2 ** (1 / CAL_EXPONENT) times the
    reference time, so that op times scale by one half."""

    def run_once(self):
        return 2 ** (1 / measure.CAL_EXPONENT) * measure.CAL_REF_S


def test_timed_phase_scales_each_run_by_the_calibration_beside_it():
    import run
    from workloads import Op

    ops = [Op("nap", "k", run=lambda: time.sleep(0.01), check=lambda out: None, reference=None)]
    ph = run.timed_phase(ops, seconds=0.0, min_rounds=3, deadline=float("inf"), cal=_SlowHost())
    for raw, scaled in zip(ph.raw["nap"], ph.latencies["nap"]):
        assert scaled == pytest.approx(raw / 2)
    assert ph.typical()["nap"] == pytest.approx(np.median(ph.raw["nap"]) / 2)


# -- self time of nested spans --------------------------------------------


def _span(id, name, start, end, parent=None, agg=None):
    return Span(id=id, name=name, start=start, end=end, parent=parent, op=1, agg=agg or {})


def test_self_time_subtracts_children_and_folded_calls():
    spans = [
        _span(0, "a", 0.0, 10.0),
        _span(1, "b", 1.0, 4.0, parent=0, agg={"leaf": [3, 0.5]}),
        _span(2, "c", 5.0, 9.0, parent=0),
        _span(3, "d", 6.0, 7.0, parent=2),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.5, 2: 3.0, 3: 1.0}
    fn = per_function(spans)
    assert fn["leaf"] == {"calls": 3, "busy_s": 0.5, "self_s": 0.5}
    assert fn["c"] == {"calls": 1, "busy_s": 4.0, "self_s": 3.0}
    assert root_time(spans) == 10.0
    # Self times partition the root's interval.
    assert sum(rec["self_s"] for rec in fn.values()) == pytest.approx(10.0)


def test_busy_time_counts_reentered_function_once():
    spans = [
        _span(0, "f", 0.0, 6.0),
        _span(1, "g", 1.0, 5.0, parent=0),
        _span(2, "f", 2.0, 4.0, parent=1),
    ]
    fn = per_function(spans)
    assert fn["f"]["calls"] == 2
    assert fn["f"]["busy_s"] == 6.0
    assert fn["f"]["self_s"] == pytest.approx(2.0 + 2.0)


def test_tracer_records_parents_ops_and_folds_inner_calls():
    ticks = iter(range(100))
    tracer = Tracer([], clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(Target("m", "leaf", aggregate_under=("m.outer",)), lambda: None)
    inner = tracer.wrap(Target("m", "inner"), lambda: leaf())
    outer = tracer.wrap(Target("m", "outer"), lambda: [leaf(), leaf(), inner()])
    tracer.op = 7
    outer()
    by_name = {sp.name: sp for sp in tracer.spans}
    assert set(by_name) == {"m.outer", "m.inner", "m.leaf"}
    assert by_name["m.outer"].agg["m.leaf"][0] == 2  # folded under outer
    assert by_name["m.inner"].parent == by_name["m.outer"].id
    assert by_name["m.leaf"].parent == by_name["m.inner"].id  # not folded there
    assert all(sp.op == 7 for sp in tracer.spans)
    assert len({sp.id for sp in tracer.spans}) == 3


def test_install_replaces_every_binding_and_uninstall_restores():
    import mjsreduce
    from mjsreduce import clustering, experiments, lqr

    original = clustering.reduce_model
    tracer = Tracer([Target("clustering", "reduce_model")])
    tracer.install()
    try:
        for mod in (clustering, lqr, experiments, mjsreduce):
            assert mod.reduce_model is not original
            assert mod.reduce_model.__wrapped__ is original
    finally:
        tracer.uninstall()
    for mod in (clustering, lqr, experiments, mjsreduce):
        assert mod.reduce_model is original


def test_install_wraps_classmethods():
    from mjsreduce import BoundInputs

    raw = BoundInputs.__dict__["from_model"]
    tracer = Tracer([Target("bounds", "BoundInputs.from_model")])
    tracer.install()
    try:
        assert BoundInputs.__dict__["from_model"] is not raw
        assert BoundInputs.from_model.__func__.__wrapped__ is raw.__func__
    finally:
        tracer.uninstall()
    assert BoundInputs.__dict__["from_model"] is raw


# -- check functions ------------------------------------------------------


def test_rel_close():
    checks.rel_close(1.0 + 1e-12, 1.0, 1e-9, "x")
    with pytest.raises(checks.CheckFailed):
        checks.rel_close(1.0 + 1e-6, 1.0, 1e-9, "x")
    with pytest.raises(checks.CheckFailed):
        checks.rel_close(float("nan"), 1.0, 1e-9, "x")


def test_dense_rho_of_single_mode_is_square_of_rho():
    A = np.array([[[0.5, 1.0], [0.0, 0.2]]])
    assert checks.dense_rho(A, np.ones((1, 1))) == pytest.approx(0.25)


def test_dense_rho_matches_package_oracle():
    from mjsreduce import SynthConfig, augmented_matrix, generate, spectral_radius

    model, _, _ = generate(SynthConfig(6, 2, 3, 0, eps_A=0.3, eps_T=0.3, seed=4))
    ours = checks.dense_rho(model.A, model.T)
    assert ours == pytest.approx(spectral_radius(augmented_matrix(model)), rel=1e-12)


def test_jsr_bracket():
    ext = (0.5, 0.9)  # (max rho(A_i), max ||A_i||)
    checks.jsr_bracket(0.6, 0.8, ext, ref=(0.55, 0.85))
    checks.jsr_bracket(0.6, 0.62, ext, ref=(0.55, 0.85))  # tighter still overlaps
    for lower, upper, ref in (
        (0.7, 0.6, None),  # lower above upper
        (0.4, 0.8, None),  # lower below max rho
        (0.6, 0.95, None),  # upper above max norm
        (0.6, 0.8, (0.85, 0.88)),  # misses the reference
    ):
        with pytest.raises(checks.CheckFailed):
            checks.jsr_bracket(lower, upper, ext, ref=ref)


def test_mode_extremes():
    A = np.array([np.diag([0.3, -0.6]), [[0.0, 2.0], [0.0, 0.0]]])
    assert checks.mode_extremes(A) == pytest.approx((0.6, 2.0))


def test_scalar_checks():
    checks.mr_in_range(0.0, 4)
    checks.mr_in_range(4.0, 4)
    with pytest.raises(checks.CheckFailed):
        checks.mr_in_range(4.5, 4)
    checks.at_least_one(1.0, "tau")
    with pytest.raises(checks.CheckFailed):
        checks.at_least_one(0.99, "tau")
    checks.costs_agree(100.0, 101.5, 0.02)
    with pytest.raises(checks.CheckFailed):
        checks.costs_agree(100.0, 103.0, 0.02)
    with pytest.raises(checks.CheckFailed):
        checks.costs_agree(100.0, float("inf"), 0.02)


def test_below_bound():
    checks.below_bound([0.0, 0.5, 1.0], [0.0, 0.6, 1.0], "diff")
    with pytest.raises(checks.CheckFailed, match=r"t = \[1\]"):
        checks.below_bound([0.0, 0.7, 1.0], [0.0, 0.6, 1.0], "diff")


def test_partition_digest_depends_on_labels_and_rate():
    base = checks.partition_digest([0, 0, 1, 1], 0.0)
    assert base == checks.partition_digest(np.array([0, 0, 1, 1]), 0.0)
    assert base != checks.partition_digest([0, 1, 0, 1], 0.0)
    assert base != checks.partition_digest([0, 0, 1, 1], 0.5)


# -- timed phase ----------------------------------------------------------


def test_failed_ops_count_against_attempted():
    import run
    from workloads import Op

    def boom():
        raise ZeroDivisionError

    def reject(out):
        raise checks.CheckFailed("wrong")

    ops = [
        Op("good", "k", run=lambda: 1, check=lambda out: None, reference=None),
        Op("raises", "k", run=boom, check=lambda out: None, reference=None),
        Op("wrong", "k", run=lambda: 2, check=reject, reference=None),
    ]
    ph = run.timed_phase(ops, seconds=0.0, min_rounds=3, deadline=float("inf"))
    assert (ph.rounds, ph.attempted, ph.failed) == (3, 9, 6)
    assert ph.errors == {"ZeroDivisionError": 3, "CheckFailed": 3}
    assert list(ph.latencies) == ["good"] and len(ph.latencies["good"]) == 3
    stats = run.latency_stats(ph)
    assert stats["ops_per_s"] == pytest.approx(3 / 9 / ph.typical()["good"])


def test_benchmark_json_lists_every_per_layer_metric():
    import json

    import layers

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == layers.per_layer_spec()
