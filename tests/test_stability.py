import dataclasses
import functools
import inspect
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mjsreduce.stability as stability
from conftest import random_model
from mjsreduce.bounds import BoundInputs, empirical_traj_diff, transition_kernel_enum
from mjsreduce.clustering import reduce_model
from mjsreduce.experiments import demoted_weights
from mjsreduce.errors import (
    DegenerateInput,
    DimensionMismatch,
    NotConverged,
    RhoTooSmall,
    TooLarge,
    XiTooSmall,
)
from mjsreduce.model import (
    MjsModel,
    Partition,
    expand_reduced,
    simulate_coupled_batch,
)
from mjsreduce.perturbation import construct_T0
from mjsreduce.stability import (
    MomentOperator,
    augmented_matrix,
    default_level,
    jsr_bounds,
    kappa_estimate,
    spectral_radius,
    stability_comparison,
    stability_report,
    tau_estimate,
)
from mjsreduce.synth import SynthConfig, fig4_model, generate


def rotation_model(rng, s, n, scale):
    """Orthogonal modes scaled by `scale`: every trajectory has norm
    scale^t ||x0|| exactly, and the moment propagator has spectral
    radius scale^2 exactly."""
    mats = []
    for _ in range(s):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        mats.append(scale * Q)
    T = rng.dirichlet(np.ones(s), size=s)
    return MjsModel(np.stack(mats), None, T)


def test_certificate_entry_points_take_no_tuning_options():
    # A certificate depends on the model and a decay level only; depths,
    # caps and tolerances are module constants (budget stays settable).
    for fn, names in (
        (stability_report, ("model", "rho", "xi", "budget")),
        (stability_comparison, ("model", "reduction", "branch")),
        (
            BoundInputs.from_model,
            ("model", "partition", "branch", "x0", "budget"),
        ),
        # Kernels and simulations start from the stationary law.
        (transition_kernel_enum, ("model", "x0", "t")),
        (
            simulate_coupled_batch,
            ("model", "reduced", "partition", "x0", "horizon", "n_traj", "seed"),
        ),
        (
            empirical_traj_diff,
            ("model", "reduced", "partition", "x0", "horizon", "n_traj", "seed"),
        ),
        (spectral_radius, ("M",)),
        (augmented_matrix, ("model",)),
        (construct_T0, ("T", "partition", "branch")),
        (demoted_weights, ("model",)),
    ):
        assert tuple(inspect.signature(fn).parameters) == names, fn.__qualname__
    budget = stability.JSR_BUDGET
    assert (stability.TAU_STEPS, stability.JSR_LEVELS, budget) == (64, 8, 100_000)
    for fn in (stability_report, BoundInputs.from_model):
        assert inspect.signature(fn).parameters["budget"].default == budget
    jsr = inspect.signature(jsr_bounds).parameters
    assert (jsr["k_max"].default, jsr["budget"].default) == (stability.JSR_LEVELS, budget)
    assert inspect.signature(tau_estimate).parameters["k_max"].default == stability.TAU_STEPS


def test_augmented_matrix_single_mode_is_kron():
    A = np.array([[[0.5, 0.2], [0.0, 0.3]]])
    m = MjsModel(A, None, np.array([[1.0]]))
    assert np.array_equal(augmented_matrix(m), np.kron(A[0], A[0]))


def test_augmented_matrix_matches_moment_recursion(rng):
    # The stacked per-mode second moments must evolve by one multiply
    # with the augmented matrix; this pins down the block layout.
    m = random_model(rng, s=3, n=2, p=0)
    aug = augmented_matrix(m)
    x0 = np.array([1.0, -0.5])
    op = MomentOperator(m.A, m.T)
    mom = m.pi[:, None, None] * np.outer(x0, x0)
    for _ in range(4):
        nxt = op.apply(mom)
        assert np.abs(aug @ mom.reshape(-1) - nxt.reshape(-1)).max() <= 1e-12
        mom = nxt


def test_spectral_radius_values():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9, abs=1e-12)
    assert spectral_radius(np.zeros((0, 0))) == 0.0


def test_augmented_scalar_mode_squares():
    m = MjsModel(np.array([[[0.7]]]), None, np.array([[1.0]]))
    assert spectral_radius(augmented_matrix(m)) == pytest.approx(0.49, abs=1e-12)


def test_augmented_matrix_cap(monkeypatch):
    m = MjsModel(np.zeros((5, 4, 4)), None, np.full((5, 5), 0.2))
    monkeypatch.setattr(stability, "DEFAULT_SIZE_CAP", 16)
    with pytest.raises(TooLarge):
        augmented_matrix(m)


def test_default_level():
    assert default_level(0.0) == 1e-6
    assert default_level(0.5) == pytest.approx(0.505, abs=1e-15)
    # Near one the lift is clipped to the midpoint with 1.
    assert default_level(0.99) == pytest.approx(0.995, abs=1e-15)
    assert default_level(1.2) == pytest.approx(1.212, abs=1e-15)


def test_tau_estimate_nilpotent():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    est = tau_estimate(M, 0.5, k_max=10)
    # ||M||/0.5 = 2 at k = 1, every later power vanishes.
    assert est.value == pytest.approx(2.0, abs=1e-12)
    assert est.argmax_k == 1
    assert not est.unconverged
    with pytest.raises(RhoTooSmall):
        tau_estimate(np.eye(2), 0.5)


@pytest.mark.invariant
def test_tau_majorizes_power_norms(rng):
    for _ in range(5):
        m = random_model(rng, s=2, n=2, p=0)
        aug = augmented_matrix(m)
        rho = default_level(spectral_radius(aug))
        est = tau_estimate(aug, rho, k_max=20)
        P = np.eye(aug.shape[0])
        for k in range(1, 21):
            P = P @ aug
            assert np.linalg.norm(P, 2) <= est.value * rho**k * (1.0 + 1e-10)


def full_tau_sweep(M, rho, k_max):
    """The sweep tau_estimate skips steps of: the exact 2-norm of every
    power P @ M, kept as its oracle.  Returns (value, argmax_k)."""
    best, arg = 1.0, 0
    P = np.eye(M.shape[0])
    for k in range(1, k_max + 1):
        P = P @ M
        val = float(np.linalg.norm(P, 2)) / rho**k
        if val > best:
            best, arg = val, k
    return best, arg


def draw_matrix(rng, d, kind):
    M = rng.standard_normal((d, d)) * rng.uniform(0.2, 2.0) / np.sqrt(d)
    if kind == "triangular":
        return np.triu(M)
    if kind == "rank_one":  # the Frobenius bound is tight on every power
        return np.outer(M[0], rng.standard_normal(d))
    if kind == "symmetric":
        return M + M.T
    return M


@pytest.mark.invariant
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 12),
    kind=st.sampled_from(["general", "triangular", "rank_one", "symmetric"]),
    lift=st.sampled_from([1.0, 1.001, 1.05, 1.5]),
    k_max=st.integers(0, 40),
)
@example(seed=0, d=1, kind="general", lift=1.0, k_max=3)  # ties at g = 1
def test_tau_estimate_skips_only_what_cannot_win(seed, d, kind, lift, k_max):
    # An exact norm is skipped only where its bound cannot pass the
    # strict update, so against the SVD of every power P @ M the sweep
    # keeps k_max and complete, and its value lies within the stated
    # lift of the Gram norm above the SVD sweep's.
    rng = np.random.default_rng(seed)
    M = draw_matrix(rng, d, kind)
    rho = max(spectral_radius(M) * lift, 1e-3)
    est = tau_estimate(M, rho, k_max=k_max)
    assert est.exact
    g, first = plain_sweep(oracle_powers(M, k_max), rho)
    assert_sweep_within_lift(est, g, first, stability._norm_lift(d))
    if est.complete:  # the sup over every k: a longer sweep adds nothing
        assert full_tau_sweep(M, rho, k_max + 60)[0] <= est.value * (1.0 + 1e-12)


def test_tau_certified_flag():
    # ||M^k|| = 0.5^k: g(1) = 0.5 / 0.6 < 1 certifies at once.
    est = tau_estimate(np.diag([0.5, 0.1]), 0.6, k_max=5)
    assert est.complete and est.value == 1.0
    # A Jordan block grows first: g(k) ~ 2 k (0.5 / 0.55)^k stays above
    # 1 up to k = 40 and falls below it well before k = 80.
    J = np.array([[0.5, 1.0], [0.0, 0.5]])
    assert not tau_estimate(J, 0.55, k_max=40).complete
    assert tau_estimate(J, 0.55, k_max=40).unconverged
    assert tau_estimate(J, 0.55, k_max=80).complete


@pytest.mark.parametrize("scale", [2.0**-200, 1e-60])
def test_tau_of_a_tiny_problem_matches_the_problem_scaled_up(scale):
    # The entries of (scale J)^3 lie below 1e-162, where the squares and
    # the product of the cheap norm bound underflow to 0; that bound was
    # read as M^3 = 0 and certified tau = 2.41.  Up to k = 5 every power
    # and every scale^k is still a normal float.
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    want = tau_estimate(J * 0.5, 0.5, k_max=5)
    got = tau_estimate(J * scale, scale, k_max=5)
    assert abs(got.value - want.value) <= stability._norm_lift(2) * want.value
    assert (got.argmax_k, got.k_max, got.complete) == (want.argmax_k, want.k_max, want.complete)


def sweep_key(est):
    return est.value, est.argmax_k, est.k_max, est.complete


@pytest.mark.invariant
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 6),
    n=st.integers(1, 3),
    j=st.integers(-200, 200),
    lift=st.sampled_from([1.0, 1.001, 1.2]),
)
def test_transient_sweeps_do_not_depend_on_the_scale_of_the_operator(seed, s, n, j, lift):
    # Modes scaled by 2^j scale L by 2^2j and the level maxima of the JSR
    # walk by 2^jk; a matrix M is scaled by 2^j.  With the level scaled
    # alike, each sweep runs on the same operator scaled to a level in
    # [1/2, 1), so tau and kappa are bit-identical to those at j = 0.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((s, n, n)) * rng.uniform(0.2, 1.0) / np.sqrt(n)
    T = rng.dirichlet(np.ones(s), size=s)
    rho = default_level(MomentOperator(A, T).rho()) * lift
    taus = [
        MomentOperator(np.ldexp(A, i), T).tau(math.ldexp(rho, 2 * i), stability.TAU_STEPS)
        for i in (0, j)
    ]
    assert sweep_key(taus[1]) == sweep_key(taus[0])
    M = augmented_matrix(MjsModel(A, None, T))
    ests = [tau_estimate(np.ldexp(M, i), math.ldexp(rho, i)) for i in (0, j)]
    assert sweep_key(ests[1]) == sweep_key(ests[0])
    # The maxima are scaled by 2^hk, h = j // 2, which keeps all 8 in range.
    jsr, h = jsr_bounds(A), j // 2
    scaled = dataclasses.replace(
        jsr,
        lower=math.ldexp(jsr.lower, h),
        upper=math.ldexp(jsr.upper, h),
        level_maxima=tuple(math.ldexp(m, h * k) for k, m in enumerate(jsr.level_maxima, 1)),
    )
    xi = default_level(jsr.upper) * lift
    kappas = [kappa_estimate(jsr, xi), kappa_estimate(scaled, math.ldexp(xi, h))]
    assert sweep_key(kappas[1]) == sweep_key(kappas[0])


@pytest.mark.invariant
def test_matrix_free_tau_does_not_depend_on_the_scale_of_the_operator():
    # Just above DEFAULT_SIZE_CAP (s n^2 = 4112): the iterates of L and
    # L* and their rounding bounds scale exactly with 2^-200 L.
    rng = np.random.default_rng(5)
    s, n = 257, 4
    A = rng.standard_normal((s, n, n)) * 0.5 / np.sqrt(n)
    T = rng.dirichlet(np.full(s, 0.2), size=s)
    assert s * n * n > stability.DEFAULT_SIZE_CAP
    want = MomentOperator(A, T).tau(0.3, stability.TAU_STEPS)
    got = MomentOperator(np.ldexp(A, -100), T).tau(math.ldexp(0.3, -200), stability.TAU_STEPS)
    assert not want.exact and want.argmax_k >= 1 and want.k_max > 2
    assert sweep_key(got) == sweep_key(want)


def test_long_tau_sweep_keeps_the_bounds_of_powers_whose_squares_underflow():
    # At level rho = 0.5 the powers (0.5 J)^k have norm about k 2^-k;
    # past k = 537 their squares underflow to 0.  The sweep must still
    # read g(k) = ||J^k|| = (k + sqrt(k^2 + 4)) / 2 and never certify.
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    est = tau_estimate(0.5 * J, 0.5, k_max=600)
    want = (600 + math.sqrt(600**2 + 4)) / 2
    assert want <= est.value <= want * (1.0 + stability._norm_lift(2))
    assert (est.argmax_k, est.k_max, est.complete) == (600, 600, False)


def test_sweeps_refuse_more_steps_than_keep_the_level_powers_normal():
    # At u = 1/2, u^k is subnormal past k = 1022 and 0 past k = 1074; these
    # two sweeps of the Jordan block ran uncertified that far and ended
    # in a ZeroDivisionError.
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert stability.SWEEP_STEPS_MAX == 1022
    for sweep in (
        lambda k: tau_estimate(0.5 * J, 0.5, k),
        lambda k: MomentOperator([0.5 * J], [[1.0]]).tau(0.25, k),
    ):
        with pytest.raises(DimensionMismatch, match="k_max must be at most 1022"):
            sweep(1100)
        with pytest.raises(DimensionMismatch, match="k_max must be at most 1022"):
            sweep(1023)
        est = sweep(1022)
        assert (est.argmax_k, est.k_max, est.complete) == (1022, 1022, False)
        assert est.value >= (1022 + math.sqrt(1022**2 + 4)) / 2
    # kappa sweeps the level maxima of a walk, at most 1022 of them; a
    # deep walk of 0.9 I is written out, as walking it takes seconds.
    walk = jsr_bounds([0.9 * np.eye(2)], k_max=1)
    for depth in (1022, 1023):
        deep = dataclasses.replace(
            walk, k_max=depth, level_maxima=tuple(0.9**k for k in range(1, depth + 1))
        )
        if depth > stability.SWEEP_STEPS_MAX:
            with pytest.raises(DimensionMismatch, match="JSR levels .* at most 1022"):
                kappa_estimate(deep, 0.95)
        else:
            assert kappa_estimate(deep, 0.95).value == 1.0


@pytest.mark.parametrize("e", [-600, -1000, -1070])
def test_norm_bound_of_a_tiny_power_stays_above_its_norm(e, rng):
    # Down to subnormal entries, and 0 only for the zero matrix.
    P = np.ldexp(rng.standard_normal((5, 5)), e)
    bound = cheap_bound(P)
    with mpmath.workdps(60):
        assert sigma_max(P) <= bound * (1.0 + stability.BOUND_MARGIN)
    assert cheap_bound(np.zeros((5, 5))) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("T", [[[1.0]], [[0.5, 0.5], [0.5, 0.5]], [[0.0, 1.0], [1.0, 0.0]]])
def test_tau_certifies_scaled_identity_modes_at_once(n, T):
    # With A_j = 0.5 I and a doubly stochastic T, the symmetric
    # restriction of L^k has 1- and inf-norm 0.25^k = rho^k, so g(1) < 1
    # certifies tau = 1 at k = 1.  Its Frobenius norm carries a factor of
    # up to sqrt(s n (n + 1) / 2) and alone would not get below the
    # level 1.01 rho within TAU_STEPS.
    s = len(T)
    rep = stability_report(MjsModel(0.5 * np.stack([np.eye(n)] * s), None, T), budget=10_000)
    assert rep.rho_aug == pytest.approx(0.25, rel=1e-12)
    assert (rep.tau.value, rep.tau.k_max, rep.tau.complete) == (1.0, 1, True)


def test_tau_levels_whose_powers_overflow_or_underflow():
    # The sweep runs on M 2^-e with 2^(e-1) <= level < 2^e.  At 1e200
    # the scaled powers underflow and g(1) < 1 certifies.
    est = tau_estimate(np.diag([0.5, 0.1]), 1e200, k_max=3)
    assert (est.value, est.argmax_k, est.complete) == (1.0, 0, True)
    # At 1e-200, ||S^2|| / 1e-200^2 = 1e400 leaves the float range: the
    # scaled S^2 overflows, and the sweep stops there, uncertified.
    S = np.eye(3, k=1)
    est = tau_estimate(S, 1e-200, k_max=4)
    assert (est.value, est.argmax_k, est.k_max, est.complete) == (np.inf, 2, 2, False)
    for rho in (0.0, -1e-13):  # level^k would vanish or flip its sign
        with pytest.raises(RhoTooSmall, match="is not positive"):
            tau_estimate(S, rho)


def test_jsr_identity_scalings_are_tight():
    mats = [0.8 * np.eye(2), 0.5 * np.eye(2)]
    b = jsr_bounds(mats, k_max=4)
    assert b.lower == pytest.approx(0.8, abs=1e-12)
    assert b.upper == pytest.approx(0.8, abs=1e-12)
    assert b.complete


@pytest.mark.invariant
def test_jsr_bounds_nest_with_depth(rng):
    for _ in range(5):
        mats = [0.9 * rng.standard_normal((2, 2)) / np.sqrt(2) for _ in range(3)]
        prev = None
        for k_max in (2, 4, 6):
            b = jsr_bounds(mats, k_max=k_max)
            assert b.lower <= b.upper + 1e-12
            if prev is not None:
                assert b.lower >= prev.lower - 1e-12
                assert b.upper <= prev.upper + 1e-12
            prev = b


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["one_mode", "scalar"]),
    dim=st.integers(1, 3),
    k_max=st.integers(1, 8),
)
@example(seed=0, family="scalar", dim=1, k_max=4)
def test_jsr_bracket_is_ordered(seed, family, dim, k_max):
    # One mode, or commuting scalar modes, make both bounds converge on
    # the same number, where rounding could order them the wrong way.
    rng = np.random.default_rng(seed)
    if family == "one_mode":
        mats = rng.standard_normal((1, dim, dim)) * rng.uniform(0.01, 2.0)
    else:
        mats = rng.uniform(-2.0, 2.0, size=(dim, 1, 1))
    b = jsr_bounds(mats, k_max=k_max)
    assert b.lower <= b.upper


@pytest.mark.parametrize("a, k_max", [(0.0692, 4), (0.09153731263302743, 6)])
def test_jsr_bracket_is_ordered_for_scalar_modes(a, k_max):
    b = jsr_bounds([[[a]]], k_max=k_max)
    assert b.lower <= b.upper
    assert b.upper == pytest.approx(a, rel=1e-12)


def test_jsr_budget_marks_incomplete():
    mats = [np.eye(3), 2.0 * np.eye(3), np.ones((3, 3))]
    b = jsr_bounds(mats, k_max=8, budget=10)
    assert not b.complete


COUNTED_MODES = np.stack([0.5 * np.eye(2), [[0.0, 0.6], [0.3, 0.0]]])
COUNT_CALLS = {
    "jsr_bounds-k_max": lambda v: jsr_bounds(COUNTED_MODES, k_max=v),
    "jsr_bounds-budget": lambda v: jsr_bounds(COUNTED_MODES, k_max=6, budget=v),
    "tau-k_max": lambda v: MomentOperator(COUNTED_MODES, np.full((2, 2), 0.5)).tau(1.0, v),
    "tau_estimate-k_max": lambda v: tau_estimate(0.5 * np.eye(3), 1.0, v),
}


@pytest.mark.parametrize("bad", [2.5, 6.0, True, -1, np.nan], ids=repr)
@pytest.mark.parametrize("call", COUNT_CALLS)
def test_depths_and_budgets_take_only_integer_counts(call, bad):
    # A NaN budget used to pass every comparison with a product count and
    # complete all six levels, 2.5 ended in a bare TypeError, and True
    # walked one level.
    with pytest.raises(DimensionMismatch, match="must be an integer of at least 0"):
        COUNT_CALLS[call](bad)
    COUNT_CALLS[call](np.int64(0))


def test_kappa_identity_family():
    est = kappa_estimate(jsr_bounds([np.eye(2)]), xi=1.01)
    assert est.value == 1.0
    assert est.argmax_k == 0
    assert est.complete and not est.unconverged
    with pytest.raises(XiTooSmall):
        kappa_estimate(jsr_bounds([2.0 * np.eye(2)]), xi=1.0)


@pytest.mark.parametrize("xi", [0.0, -0.5, float("nan")])
def test_kappa_rejects_nonpositive_xi(xi):
    # Zero modes certify a JSR of 0, which xi = 0 would pass.
    with pytest.raises(XiTooSmall):
        kappa_estimate(jsr_bounds(np.zeros((2, 2, 2))), xi)


def test_kappa_matches_brute_force_products(rng):
    mats = [0.6 * rng.standard_normal((2, 2)) for _ in range(2)]
    xi = 1.05 * jsr_bounds(mats, k_max=6).upper
    est = kappa_estimate(jsr_bounds(mats), xi)
    assert est.complete
    best = 1.0
    for k in range(1, 13):
        for seq in itertools.product(range(2), repeat=k):
            W = np.eye(2)
            for i in seq:
                W = W @ mats[i]
            best = max(best, np.linalg.norm(W, 2) / xi**k)
    assert est.value == pytest.approx(best, rel=1e-12)
    assert est.value >= 1.0


def all_products(mats, k):
    """Every product A_{i_1} ... A_{i_k}, multiplied left to right."""
    return [
        functools.reduce(np.matmul, (mats[i] for i in seq))
        for seq in itertools.product(range(len(mats)), repeat=k)
    ]


@pytest.mark.invariant
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 4),
    n=st.integers(1, 3),
    k_max=st.integers(0, 5),
)
@example(seed=0, s=3, n=2, k_max=0)
@example(seed=0, s=3, n=2, k_max=1)
@example(seed=0, s=1, n=1, k_max=4)
def test_enumerations_match_unpruned_products(seed, s, n, k_max):
    # Pruning drops only products that can set neither number, so with
    # a budget for every product the walk equals the full enumeration,
    # level maxima included.
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((s, n, n)) * rng.uniform(0.2, 1.5) / np.sqrt(n)
    depth = max(k_max, 1)  # jsr_bounds always enumerates level 1
    budget = sum(s**k for k in range(1, depth + 1))
    lower, upper, maxima = 0.0, np.inf, []
    for k in range(1, depth + 1):
        level = all_products(mats, k)
        lower = max(lower, max(spectral_radius(W) for W in level) ** (1 / k))
        maxima.append(max(np.linalg.norm(W, 2) for W in level))
        upper = min(upper, maxima[-1] ** (1 / k))
    b = jsr_bounds(mats, k_max=k_max, budget=budget)
    assert b.complete
    assert b.lower == pytest.approx(lower, rel=1e-12)
    assert b.upper == pytest.approx(upper, rel=1e-12)
    # Rounding may lift lower one ulp past every remaining product and
    # end the walk early (a single scalar mode); kappa still matches.
    assert b.level_maxima == pytest.approx(maxima[: b.levels_completed], rel=1e-12)
    xi = default_level(b.upper)
    best = max([1.0] + [m / xi**k for k, m in enumerate(maxima, start=1)])
    est = kappa_estimate(b, xi)
    assert est.complete
    assert est.value == pytest.approx(best, rel=1e-12)


def unpruned_level_maxima(mats, depth):
    """Largest 2-norm of the products of k modes, k = 1..depth, over
    every product."""
    W = mats
    out = [float(np.linalg.norm(W, 2, axis=(1, 2)).max())]
    for _ in range(depth - 1):
        W = (W[:, None] @ mats).reshape(-1, *mats.shape[1:])
        out.append(float(np.linalg.norm(W, 2, axis=(1, 2)).max()))
    return out


@pytest.mark.invariant
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 4),
    n=st.integers(1, 3),
    k_max=st.integers(1, 4),
    lift=st.floats(1.0001, 2.0),
)
@example(seed=0, s=4, n=3, k_max=4, lift=1.0001)
def test_certified_kappa_matches_a_sweep_to_twice_the_upper_level(
    seed, s, n, k_max, lift
):
    # g(k) = m_k / xi^k is submultiplicative, and the level K_u that sets
    # the upper bound has g(K_u) < 1 for xi above it: no k up to 2 K_u
    # beats the certified value.
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((s, n, n)) * rng.uniform(0.2, 1.5) / np.sqrt(n)
    b = jsr_bounds(mats, k_max=k_max)
    xi = lift * b.upper
    est = kappa_estimate(b, xi)
    assert est.complete and not est.unconverged
    k_u = next(
        k for k, m in enumerate(b.level_maxima, start=1) if m ** (1.0 / k) == b.upper
    )
    g = [1.0] + [m / xi**k for k, m in enumerate(unpruned_level_maxima(mats, 2 * k_u), 1)]
    assert est.value == pytest.approx(max(g), rel=1e-12)
    assert est.argmax_k == int(np.argmax(g))


def test_kappa_slack_below_upper_is_not_certified():
    # One mode whose norm grows past its spectral radius: xi inside the
    # 1e-12 slack below the upper bound leaves every g(k) above 1.
    J = np.array([[[1.0, 1.0], [0.0, 1.0]]])
    b = jsr_bounds(J, k_max=3)
    xi = b.upper - 5e-13
    est = kappa_estimate(b, xi)
    assert not est.complete and est.unconverged
    est.complete = True
    assert not est.unconverged
    assert est.value == max(m / xi**k for k, m in enumerate(b.level_maxima, start=1))


@pytest.mark.invariant
def test_mss_agrees_with_monte_carlo_boundedness(rng):
    # 200 models; empirical boundedness of the mean squared norm at
    # t = 200 against the 1e6 threshold, skipping the band around 1.
    cases = []
    for i, target in enumerate(np.linspace(0.3, 0.95, 100)):
        m = random_model(rng, s=2 + i % 2, n=2, p=0)
        base = spectral_radius(augmented_matrix(m))
        scale = np.sqrt(target / base)
        cases.append(MjsModel(m.A * scale, None, m.T))
    for target in np.linspace(0.5, 0.95, 50):
        cases.append(rotation_model(rng, 2, 2, np.sqrt(target)))
    for target in np.linspace(1.15, 2.0, 50):
        cases.append(rotation_model(rng, 3, 2, np.sqrt(target)))
    assert len(cases) == 200
    checked = 0
    for idx, m in enumerate(cases):
        rho = spectral_radius(augmented_matrix(m))
        if abs(rho - 1.0) < 0.02:
            continue
        x0 = np.ones(2) / np.sqrt(2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            states, _, _ = simulate_coupled_batch(
                m, m, Partition.from_labels(np.arange(m.s)), x0, 200, 100, seed=idx
            )
            level = np.nan_to_num(
                (states[:, -1] ** 2).sum(axis=1), nan=np.inf
            ).mean()
        assert (rho < 1.0) == (level < 1e6), (idx, rho, level)
        checked += 1
    assert checked == 200


@pytest.mark.invariant
def test_reduction_preserves_moment_radius_at_zero_perturbation():
    # Cluster averaging of an exactly reducible model and its expansion
    # back to the full mode set share the augmented spectral radius.
    for seed in range(3):
        model, _, _ = generate(
            SynthConfig(6, 2, 2, 0, branch="aggregatable", seed=seed)
        )
        res = reduce_model(model, 2, branch="aggregatable", seed=seed)
        comp = stability_comparison(model, res)
        assert comp.lemma_gap_rho <= 1e-8


def test_stability_report_fig4():
    model, _ = fig4_model()
    rep = stability_report(model)
    assert rep.rho_aug == pytest.approx(0.954, abs=1e-9)
    assert rep.is_mss
    assert rep.jsr.lower == pytest.approx(1.3, abs=1e-12)
    assert rep.jsr.upper == pytest.approx(1.3, abs=1e-12)
    assert rep.a_bar == pytest.approx(1.3, abs=1e-12)
    assert rep.t_bar == 0.2
    assert rep.b_bar == 0.0
    assert rep.tau.level == pytest.approx(min(1.01 * rep.rho_aug, 0.5 * (1 + rep.rho_aug)))
    assert rep.kappa.value >= 1.0
    assert rep.tau.value >= 1.0
    d = rep.to_dict()
    assert {"rho_aug", "is_mss", "jsr_lower", "jsr_upper", "tau", "kappa"} <= set(d)


def test_stability_report_walks_the_products_once(monkeypatch):
    # kappa reads the level maxima of the report's own JSR walk, and
    # a_bar its level-1 maximum.
    calls = {"jsr_bounds": [], "kappa_estimate": []}
    for name, fn in [(k, getattr(stability, k)) for k in calls]:
        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name].append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(stability, name, counted)
    model, _, _ = generate(SynthConfig(8, 2, 3, 0, seed=2))
    rep = stability_report(model, budget=10_000)
    assert len(calls["jsr_bounds"]) == 1
    assert len(calls["kappa_estimate"]) == 1
    assert calls["kappa_estimate"][0][0] is rep.jsr
    assert rep.kappa.complete
    assert rep.a_bar == float(np.linalg.norm(model.A, 2, axis=(1, 2)).max())


def test_stability_report_takes_one_spectral_radius(monkeypatch):
    # rho_aug comes from MomentOperator.rho(); the tau sweep reuses it
    # instead of a second dense eig of the augmented matrix.
    calls = []
    dense = stability.spectral_radius

    def counted(M):
        calls.append(np.asarray(M).shape)
        return dense(M)

    monkeypatch.setattr(stability, "spectral_radius", counted)
    model, _ = fig4_model()  # s n^2 = 24: the dense path
    stability_report(model, budget=10_000)
    assert calls.count((24, 24)) == 1
    calls.clear()
    big, _, _ = generate(SynthConfig(8, 2, 3, 0, seed=2))  # 72: ARPACK
    rep = stability_report(big, budget=10_000)
    assert (72, 72) not in calls
    assert rep.rho_aug == pytest.approx(dense(augmented_matrix(big)), rel=1e-9)


def test_reports_never_build_the_augmented_matrix(monkeypatch):
    # Above DENSE_RHO_MAX, where rho is ARPACK's, the augmented matrix
    # is left to the dense fallback and the tests: tau runs on
    # MomentOperator powers.  The reduction keeps 8 modes (dim 72), so
    # both reports of the comparison and its expanded model qualify.
    model, _, _ = generate(SynthConfig(16, 8, 3, 0, seed=4))
    res = reduce_model(model, 8, branch="aggregatable", seed=4)
    assert res.reduced.s * res.reduced.n**2 > stability.DENSE_RHO_MAX
    built = []
    monkeypatch.setattr(stability, "augmented_matrix", lambda *a, **k: built.append(a))
    rep = stability_report(model, budget=10_000)
    comp = stability_comparison(model, res)
    assert built == []
    assert rep.tau.exact and comp.report_reduced.tau.exact


def test_stability_report_rejects_rho_below_rho_aug():
    model, _ = fig4_model()
    rho_aug = stability_report(model, budget=10_000).rho_aug
    with pytest.raises(RhoTooSmall):
        stability_report(model, rho=0.9 * rho_aug, budget=10_000)
    rep = stability_report(model, rho=rho_aug, budget=10_000)
    assert rep.tau.level == rho_aug


def test_stability_comparison_report_fields(rng):
    model, _, _ = generate(SynthConfig(4, 2, 2, 0, seed=5))
    res = reduce_model(model, 2, branch="aggregatable", seed=5)
    comp = stability_comparison(model, res)
    assert comp.eps_rho >= 0.0
    assert comp.rho_gap_forward == -comp.rho_gap_reverse
    d = comp.to_dict()
    assert {"eps_rho", "lemma_gap_rho", "original", "reduced"} <= set(d)
    assert d["original"]["is_mss"] in (True, False)


def plain_jsr_bounds(A_list, k_max, budget):
    """The walk jsr_bounds brackets, kept as its oracle: the exact
    2-norm and eigenvalues of every product formed.  Returns the bounds
    and the number of products formed."""
    mats = np.asarray(A_list, dtype=float)
    W = mats
    norms = np.linalg.norm(W, 2, axis=(1, 2))
    beta = float(norms.max())
    lower, upper, maxima = 0.0, float("inf"), []
    count, complete = 0, True
    for k in range(1, max(k_max, 1) + 1):
        if k > 1:
            mask = np.zeros(len(norms), dtype=bool)
            for j in range(k, k_max + 1):
                mask |= norms * beta ** (j - k + 1) >= lower**j
            need = int(mask.sum()) * len(mats)
            if need == 0:
                break
            if count + need > budget:
                complete = False
                break
            W = (W[mask][:, None] @ mats).reshape(-1, *mats.shape[1:])
            norms = np.linalg.norm(W, 2, axis=(1, 2))
        count += len(W)
        rho = np.abs(np.linalg.eigvals(W)).max(axis=1)
        lower = max(lower, float(rho.max()) ** (1.0 / k))
        maxima.append(float(norms.max()))
        upper = min(upper, maxima[-1] ** (1.0 / k))
    bounds = stability.JsrBounds(
        lower=min(lower, upper),
        upper=upper,
        k_max=k_max,
        levels_completed=len(maxima),
        complete=complete,
        level_maxima=tuple(maxima),
    )
    return bounds, count


def draw_family(rng, s, n, family):
    if family == "repeated":  # equal modes: every norm ties with others
        return np.repeat(rng.standard_normal((1, n, n)) * rng.uniform(0.3, 1.5), s, axis=0)
    if family == "orthogonal":  # rho = ||.|| for every product, few scales
        scales = rng.choice([0.5, 1.0, 1.3], size=s)
        return np.stack([c * np.linalg.qr(rng.standard_normal((n, n)))[0] for c in scales])
    if family == "nilpotent":  # every product of n modes vanishes
        return np.triu(rng.standard_normal((s, n, n)), 1)
    if family == "sheared":  # large norms with small radii beside rotations
        shears = np.triu(rng.standard_normal((s, n, n)) * 3.0, 1)
        rotations = np.linalg.qr(rng.standard_normal((s, n, n)))[0]
        mats = np.where(rng.random((s, 1, 1)) < 0.5, rotations, shears)
        return mats + 0.05 * rng.standard_normal((s, n, n))
    mats = rng.standard_normal((s, n, n)) * rng.uniform(0.2, 1.5) / np.sqrt(n)
    if family == "zero":  # some modes, or all, are zero
        mats[rng.random(s) < 0.5] = 0.0
    return mats


@pytest.mark.invariant
@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 6),
    n=st.integers(1, 4),
    family=st.sampled_from(["general", "repeated", "orthogonal", "nilpotent", "zero", "sheared"]),
    # Counted down, so that the small draws hypothesis favours give
    # deep walks and large budgets as well as shallow and small ones.
    k_max=st.integers(0, 8).map(lambda k: 8 - k),
    budget=st.integers(0, 2999).map(lambda b: 3000 - b) | st.integers(1, 300),
)
@example(seed=0, s=1, n=1, k_max=4, family="general", budget=3000)
@example(seed=1, s=3, n=2, k_max=8, family="orthogonal", budget=3000)
@example(seed=4, s=6, n=3, k_max=8, family="sheared", budget=3000)  # radius off the top norms
def test_bracketed_walk_is_the_plain_walk(seed, s, n, family, k_max, budget):
    # Exact norms and eigenvalues are skipped only where the brackets
    # decide, so every field is that of the plain walk, bit for bit,
    # also where norms tie, products vanish, or the budget stops the
    # walk in the middle.
    mats = draw_family(np.random.default_rng(seed), s, n, family)
    want, _ = plain_jsr_bounds(mats, k_max, budget)
    assert jsr_bounds(mats, k_max=k_max, budget=budget) == want


@pytest.mark.invariant
def test_walk_takes_few_eigenvalues_and_norms(monkeypatch):
    # On an s16n4 certify model the brackets leave most products to
    # their cheap bounds.
    model, _, _ = generate(SynthConfig(16, 4, 4, 0, eps_A=0.05, eps_T=0.05, seed=3))
    seen = {"eigvals": 0, "norm": 0}
    eigvals, norm = np.linalg.eigvals, np.linalg.norm

    def counted_eigvals(W):
        seen["eigvals"] += len(W)
        return eigvals(W)

    def counted_norm(W, *args, **kwargs):
        if np.ndim(W) == 3:
            seen["norm"] += len(W)
        return norm(W, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    want, formed = plain_jsr_bounds(model.A, stability.JSR_LEVELS, 10_000)
    seen.update(eigvals=0, norm=0)
    assert jsr_bounds(model.A, budget=10_000) == want
    assert formed > 1000
    assert 0 < seen["eigvals"] < formed
    assert 0 < seen["norm"] < formed


def cheap_bound(P):
    """The sweep's full bound min(||P||_F, sqrt(||P||_1 ||P||_inf)) on
    ||P||_2, its Frobenius half as _dense_powers yields it."""
    ((fro, _),) = stability._dense_powers(lambda _: P, None, 1)
    return stability._norm_bound(P, fro)[0]


def oracle_bound(P):
    """min(||P||_F, sqrt(||P||_1 ||P||_inf)), the bound on which the tau
    sweep skips norms and stops, from numpy's matrix norms.  They are
    taken on P scaled by a power of two to a largest entry in [1/2, 1),
    which is exact, so that no square or product underflows."""
    top = np.abs(P).max()
    if top == 0.0:
        return 0.0
    e = int(np.frexp(top)[1])
    S = np.ldexp(P, -e)
    one, inf = np.linalg.norm(S, 1), np.linalg.norm(S, np.inf)
    return float(np.ldexp(min(np.linalg.norm(S, "fro"), np.sqrt(one * inf)), e))


def oracle_powers(M, k_max):
    """(oracle_bound(P), P) for the powers P = M^k, k = 1..k_max, each
    the last one times M."""
    P = np.eye(len(M))
    for _ in range(k_max):
        P = P @ M
        yield oracle_bound(P), P


def symmetric_block(aug, s, n):
    """The augmented matrix restricted to symmetric stacks, in an
    orthonormal basis built here: e_aa, and (e_ab + e_ba) / sqrt(2) for
    a < b, in row-major pair order.  The 1-, inf- and 2-norms of its
    powers do not depend on that order."""
    cols = []
    for a, b in zip(*np.triu_indices(n)):
        E = np.zeros((n, n))
        E[a, b] = E[b, a] = 1.0 if a == b else np.sqrt(0.5)
        cols.append(E.ravel())
    Q = np.kron(np.eye(s), np.array(cols).T)
    return Q.T @ aug @ Q


def plain_sweep(powers, level):
    """The sweep of _sweep over every yielded k, with no stop at the
    first certificate and no skipped norm, kept as its oracle.  Where P
    is given, g takes its 2-norm from numpy's SVD.  Returns (g, K): g[k]
    for k = 0, 1, ..., with g[0] = 1, and the first k whose bound,
    lifted by BOUND_MARGIN, is at most level^k (None if none is)."""
    g, first = [1.0], None
    for k, (bound, P) in enumerate(powers, start=1):
        try:
            rk = level**k
        except OverflowError:
            rk = np.inf
        top = bound * (1.0 + stability.BOUND_MARGIN) / rk if rk else np.inf
        if first is None and (not bound or top <= 1.0):
            first = k
        norm = bound if P is None or not bound else float(np.linalg.norm(P, 2))
        g.append(norm / rk if rk else (np.inf if norm else 0.0))
    return g, first


def assert_sweep_within_lift(est, g, first, lift, tol=0.0):
    """est against its oracle sweep (g, first): the same k_max and
    complete; value in [max g, max g (1 + lift)], with lift the stated
    one of the norms est took (0 for bounds alone); and argmax_k a k
    whose oracle g lies within that lift of max g.  tol widens the value
    and argmax brackets where the oracle's powers are rounded apart from
    the sweep's."""
    want = max(g)
    assert est.complete == (first is not None)
    assert est.k_max == (len(g) - 1 if first is None else first)
    assert want * (1.0 - tol) <= est.value <= want * (1.0 + lift + tol), (est.value, want)
    assert est.argmax_k <= est.k_max
    assert g[est.argmax_k] * (1.0 + lift + tol) >= want


@pytest.mark.invariant
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 6),
    n=st.integers(1, 4),
    lift=st.sampled_from([1.0, 1.001, 1.01, 1.2]),
)
def test_sweep_stops_at_the_first_certificate(seed, s, n, lift):
    # Stopping at the first K with g(K) <= 1 leaves k_max and complete
    # as the whole TAU_STEPS sweep gives them, and the value within the
    # norm's lift: for the dense tau against the SVDs of powers of the
    # symmetric block built here, and of the augmented matrix; and the
    # swept K certifies: ||L^K|| <= rho^K.  The matrix-free tau and kappa
    # sweep bounds only, so they match their oracle exactly; both are fed
    # as _sweep takes them, scaled by 2^-e with 2^(e-1) <= level < 2^e.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((s, n, n)) * rng.uniform(0.2, 1.0) / np.sqrt(n)
    T = rng.dirichlet(np.ones(s), size=s)
    op = MomentOperator(A, T)
    aug = augmented_matrix(MjsModel(A, None, T))
    rho = max(spectral_radius(aug) * lift, 1e-3)
    steps = stability.TAU_STEPS
    est = op.tau(rho, steps)
    assert est.exact
    block = symmetric_block(aug, s, n)
    norm_lift = stability._norm_lift(len(block))
    g, first = plain_sweep(oracle_powers(block, steps), rho)
    assert_sweep_within_lift(est, g, first, norm_lift, 1e-12)
    want = full_tau_sweep(aug, rho, est.k_max)[0]
    assert want * (1.0 - 1e-12) <= est.value <= want * (1.0 + norm_lift + 1e-12)
    if est.complete:
        K = est.k_max
        assert np.linalg.norm(np.linalg.matrix_power(aug, K), 2) <= rho**K * (1 + 1e-12)
    jsr = jsr_bounds(A)
    xi = default_level(jsr.upper) * lift
    e_rho, e_xi = stability._level_exponent(rho), stability._level_exponent(xi)
    scaled = MomentOperator(A, np.ldexp(T, -e_rho))
    maxima = [math.ldexp(m, -e_xi * k) for k, m in enumerate(jsr.level_maxima, start=1)]
    for est, powers, e in (
        (
            stability._sweep(scaled._power_bounds(steps), rho, exact=False),
            scaled._power_bounds(steps),
            e_rho,
        ),
        (kappa_estimate(jsr, xi), ((m, None) for m in maxima), e_xi),
    ):
        g, first = plain_sweep(powers, math.ldexp(est.level, -e))
        assert_sweep_within_lift(est, g, first, 0.0)
        assert est.argmax_k == g.index(max(g))


@pytest.mark.invariant
def test_comparison_sweeps_tau_bar_over_its_own_horizon():
    # tau_bar of the expanded model is swept over TAU_STEPS powers, not
    # over the powers the reduced report needed to certify: here the
    # reduced tau certifies at K = 1, while tau_bar peaks at k = 2 and
    # certifies at K = 18.
    rng = np.random.default_rng(63)
    A = rng.standard_normal((6, 1, 1)) * rng.uniform(0.2, 0.6)
    model = MjsModel(A, None, rng.dirichlet(np.full(6, 0.5), size=6))
    res = reduce_model(model, 2, branch="aggregatable", seed=63)
    comp = stability_comparison(model, res)
    rep_hat = comp.report_reduced
    assert rep_hat.tau.k_max == 1
    expanded = expand_reduced(
        res.reduced, res.partition, construct_T0(model.T, res.partition, "aggregatable")
    )
    level = rep_hat.tau.level
    g, first = plain_sweep(oracle_powers(augmented_matrix(expanded), 64), level)
    assert (g.index(max(g)), first) == (2, 18)
    tau_bar = MomentOperator(expanded.A, expanded.T).tau(level, stability.TAU_STEPS)
    assert_sweep_within_lift(tau_bar, g, first, stability._norm_lift(expanded.s), 1e-12)
    assert comp.bound_rho_reverse == (
        tau_bar.value * comp.eps_rho + (level - rep_hat.rho_aug)
    )


def sigma_max(P):
    """||P||_2 in 60-digit mpmath, as exact_power_norms takes it: the
    root of the top eigenvalue of P'P, formed from the float entries."""
    with mpmath.workdps(60):
        M = mpmath.matrix(P.tolist())
        return mpmath.sqrt(max(max(mpmath.eigsy(M.T * M, eigvals_only=True)), 0))


def draw_norm_input(rng, m, kind):
    if kind == "orthogonal":  # ||P||_F^2 = m ||P||_2^2: the lift's worst case
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        return Q * rng.uniform(0.5, 2.0)
    if kind == "absorbed":  # a column whose small squares the Gram's sum rounds away
        P = np.zeros((m, m))
        P[0, 0], P[1:, 0] = 1.0, np.sqrt(0.99 * 2.0**-53)
        return P
    M = rng.standard_normal((m, m))
    if kind == "triangular":
        return np.triu(M)
    return np.outer(M[0], rng.standard_normal(m))  # rank one


def gram_norm_draws(test):
    """The draws of P = 2^scale times draw_norm_input(m, kind), and of
    the bound passed with it, for the tests of _gram_norm."""
    for decorator in reversed(
        [
            pytest.mark.invariant,
            settings(max_examples=40, deadline=None),
            given(
                seed=st.integers(0, 2**32 - 1),
                m=st.integers(1, 40),
                kind=st.sampled_from(["orthogonal", "triangular", "rank_one", "absorbed"]),
                scale=st.sampled_from([-600, 0, 600]),
                bound=st.sampled_from(["sweep", "sigma"]),
            ),
            example(seed=0, m=40, kind="orthogonal", scale=0, bound="sweep"),
            example(seed=1, m=40, kind="orthogonal", scale=600, bound="sweep"),  # P'P overflows
            example(seed=2, m=40, kind="orthogonal", scale=-600, bound="sweep"),  # P'P underflows
            example(seed=149, m=30, kind="orthogonal", scale=0, bound="sweep"),  # a second dsyevr
            example(seed=0, m=40, kind="absorbed", scale=0, bound="sweep"),  # fl(P'P) < P'P by 38u
        ]
    ):
        test = decorator(test)
    return test


@gram_norm_draws
def test_gram_norm_lies_within_its_lift_of_the_top_singular_value(seed, m, kind, scale, bound):
    # sigma <= _gram_norm(P) <= sigma (1 + _norm_lift(m)) with sigma the
    # 60-digit ||P||_2, at scales 2^+-600 where an unscaled Gram would
    # overflow or underflow.  The bound is the sweep's own, finite at
    # those scales too, or the float sigma itself.  On the
    # absorbed column the root of the Gram's top eigenvalue alone falls
    # below sigma, and only the rounding lift restores the bound.
    rng = np.random.default_rng(seed)
    P = np.ldexp(draw_norm_input(rng, m, kind), scale)
    sigma = sigma_max(P)
    given_bound = cheap_bound(P) if bound == "sweep" else float(sigma)
    got = stability._gram_norm(P, given_bound, 1.0, -math.inf)  # no screen
    assert isinstance(got, float)
    with mpmath.workdps(60):
        assert sigma <= got <= sigma * (1 + mpmath.mpf(stability._norm_lift(m)))


@gram_norm_draws
def test_gram_screen_is_never_below_the_gram_norm(seed, m, kind, scale, bound):
    # With best = inf the screen answers every P, with its bound ub; with
    # best = -inf it answers none, and dsyevr gives the lifted norm.  ub
    # may stand in for that norm only if it is never below it.  On a
    # rank-one P, ||G||_F is the top eigenvalue, and only the lift of
    # the screen covers the roundings.
    rng = np.random.default_rng(seed)
    P = np.ldexp(draw_norm_input(rng, m, kind), scale)
    given_bound = cheap_bound(P) if bound == "sweep" else float(sigma_max(P))
    ub = stability._gram_norm(P, given_bound, 1.0, math.inf)
    norm = stability._gram_norm(P, given_bound, 1.0, -math.inf)
    assert norm <= ub <= norm * m**0.25 * 1.01


def eager_sweep(powers, level):
    """_sweep as it was before it skipped work: the full _norm_bound of
    every power _dense_powers yields, and _gram_norm without its screen
    (best = -inf) on every power whose bound passes the running
    maximum.  Kept as the oracle of the skips, which must leave every
    field of the estimate as it is."""
    unit = math.ldexp(level, -stability._level_exponent(level))
    best, arg, complete, k = 1.0, 0, False, 0
    for k, (fro, P) in enumerate(powers, start=1):
        bound = stability._norm_bound(P, fro)[0]
        if not bound < math.inf:
            best, arg = math.inf, k
            break
        rk = unit**k
        top = bound * (1.0 + stability.BOUND_MARGIN) / rk
        complete = top <= 1.0
        if top > best:
            val = stability._gram_norm(P, bound, rk, -math.inf) / rk
            if val > best:
                best, arg = val, k
        if complete:
            break
    return stability.TransientEstimate(best, level, arg, k, complete, True)


def eager_tau_estimate(M, rho, k_max):
    M = np.ldexp(np.asarray(M, dtype=float), -stability._level_exponent(rho))

    def step(P):
        with np.errstate(over="ignore", invalid="ignore"):
            return P @ M

    return eager_sweep(stability._dense_powers(step, np.eye(len(M)), k_max), rho)


def eager_operator_tau(op, rho, k_max):
    scaled = MomentOperator(op.A, np.ldexp(op.T, -stability._level_exponent(rho)))
    return eager_sweep(stability._dense_powers(*scaled._restriction(), k_max), rho)


def draw_sweep_modes(rng, count, n, kind):
    """count modes of order n: Gaussian, or scaled identities or scaled
    orthogonal matrices, on which sqrt(||P||_1 ||P||_inf) is the tight
    half of the bound and the Gram's top eigenvalue is a cluster."""
    if kind not in ("identity", "orthogonal"):
        return np.stack([draw_matrix(rng, n, kind) for _ in range(count)])
    scales = 2.0 ** rng.uniform(-2.0, 2.0, count)
    if kind == "identity":
        return scales[:, None, None] * np.eye(n)
    return np.stack([a * np.linalg.qr(rng.standard_normal((n, n)))[0] for a in scales])


@pytest.mark.invariant
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 12),
    kind=st.sampled_from(["general", "triangular", "rank_one", "identity", "orthogonal"]),
    s=st.integers(1, 6),
    n=st.integers(1, 3),
    periodic=st.booleans(),
    lift=st.sampled_from([1.0, 1.001, 1.05, 1.5]),
    scale=st.sampled_from([-600, 0, 600]),
    k_max=st.integers(0, stability.TAU_STEPS),
)
# Two scaled identities swapped by a periodic chain: g(1) is large, and
# at k = 2 only sqrt(||P||_1 ||P||_inf) certifies.
@example(
    seed=1, d=2, kind="identity", s=2, n=2, periodic=True, lift=1.001, scale=0, k_max=64
)
def test_sweep_has_the_bits_of_the_eager_sweep(
    seed, d, kind, s, n, periodic, lift, scale, k_max
):
    # Every field of tau_estimate's and MomentOperator.tau's estimate
    # equals that of the sweep that takes the full bound of every power
    # and the eigensolve of every candidate.  The operator's modes are
    # scaled by 2^(scale / 2), so L and rho are scaled by 2^scale.
    rng = np.random.default_rng(seed)
    M = draw_sweep_modes(rng, 1, d, kind)[0] * 2.0**scale
    rho = max(spectral_radius(M) * lift, 2.0**scale * 1e-3)
    est = tau_estimate(M, rho, k_max)
    assert dataclasses.astuple(est) == dataclasses.astuple(eager_tau_estimate(M, rho, k_max))
    A = draw_sweep_modes(rng, s, n, kind) * 2.0 ** (scale // 2)
    T = np.roll(np.eye(s), 1, axis=1) if periodic else rng.dirichlet(np.ones(s), size=s)
    op = MomentOperator(A, T)
    rho = max(op.rho() * lift, 2.0**scale * 1e-3)
    est = op.tau(rho, k_max)
    assert dataclasses.astuple(est) == dataclasses.astuple(eager_operator_tau(op, rho, k_max))


@pytest.mark.invariant
def test_sweep_keeps_a_certificate_that_one_rounding_decides():
    # M swaps two blocks, 16 I and C = (I + N / 1000) / 32, so that
    # M^2 = 16 diag(C, C) lies near I / 2: at k = 2 only
    # sqrt(||P||_1 ||P||_inf) certifies, and the Frobenius bound is
    # below g(1).  The column of |M^2| where the column sums of M peaked
    # sums one ulp higher in numpy's 1-D order than among numpy's column
    # sums, and the level puts the certificate inside that ulp: the
    # sweep may skip the full bound only with _norm_floor's margin.
    h = 8
    rng = np.random.default_rng(18)
    N = rng.random((h, h))
    N[:, 0] += 1.0
    N[0] += 1.0
    C = (np.eye(h) + 1e-3 * N) / 32.0
    M = np.block([[np.zeros((h, h)), 16.0 * np.eye(h)], [C, np.zeros((h, h))]])
    rho = 0.7117381051068377
    P = M @ M
    absP = np.abs(P)
    half = math.sqrt(absP.sum(axis=0).max()) * math.sqrt(absP.sum(axis=1).max())
    unmargined = math.sqrt(absP[:, h].sum()) * math.sqrt(absP[0].sum())
    lifted = 1.0 + stability.BOUND_MARGIN
    assert half * lifted / rho**2 <= 1.0 < unmargined * lifted / rho**2
    est = tau_estimate(M, rho, 8)
    assert dataclasses.astuple(est) == dataclasses.astuple(eager_tau_estimate(M, rho, 8))
    assert (est.k_max, est.complete) == (2, True)


@pytest.mark.parametrize("infos", [[1], [-3], [2, 1], [3, 4]])
def test_gram_norm_raises_when_dsyevr_fails(monkeypatch, infos):
    # A lost index (info 2 or 3) earns one call for every eigenvalue;
    # any other nonzero info, on either call, raises.
    calls = []

    def failing(a, **kwargs):
        calls.append(kwargs.get("range", "A"))
        w = np.zeros(len(a))
        return w, np.zeros((0, 0)), 0, np.zeros(0, dtype=np.int32), infos[len(calls) - 1]

    monkeypatch.setattr(stability, "dsyevr", failing)
    with pytest.raises(NotConverged, match=rf"dsyevr .* \(info = {infos[-1]}\)"):
        tau_estimate(np.array([[0.0, 2.0], [0.0, 0.5]]), 1.0)
    assert calls == ["I", "A"][: len(infos)]


@pytest.mark.parametrize("big", [1e50, 1e160])
def test_models_that_overflow_are_degenerate(big):
    # Mode entries whose krons or mode products leave the float range
    # are refused as DegenerateInput, and iterates of L that do end the
    # tau sweep at inf, with no RuntimeWarning on the way (tier-1 turns
    # one into an error).
    A = np.array([[[big, 0.3], [0.1, 0.2]], [[0.5, 0.0], [0.2, 0.4]]])
    model = MjsModel(A, None, np.full((2, 2), 0.5))
    with pytest.raises(DegenerateInput, match="overflow"):
        stability_report(model)
    with pytest.raises(DegenerateInput, match="overflow"):
        jsr_bounds(A)
    op = MomentOperator(A, model.T)
    bounds = [bound for bound, _ in op._power_bounds(stability.TAU_STEPS)]  # matrix-free
    K = bounds.index(np.inf) + 1
    est = stability._sweep(op._power_bounds(stability.TAU_STEPS), 0.5, exact=False)
    assert (est.value, est.argmax_k, est.k_max, est.complete) == (np.inf, K, K, False)
