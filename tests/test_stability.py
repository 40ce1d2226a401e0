import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mjsreduce.stability as stability
from conftest import random_model
from mjsreduce.clustering import reduce_model
from mjsreduce.errors import RhoTooSmall, TooLarge, XiTooSmall
from mjsreduce.model import MjsModel, simulate_batch
from mjsreduce.stability import (
    augmented_matrix,
    default_level,
    jsr_bounds,
    kappa_estimate,
    second_moment_evolution,
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
    mom = second_moment_evolution(m, x0, 4)
    for t in range(4):
        v = mom[t].reshape(-1)
        assert np.abs(aug @ v - mom[t + 1].reshape(-1)).max() <= 1e-12


def test_spectral_radius_values():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9, abs=1e-12)
    assert spectral_radius(np.zeros((0, 0))) == 0.0
    with pytest.raises(TooLarge):
        spectral_radius(np.eye(10), cap=4)


def test_augmented_scalar_mode_squares():
    m = MjsModel(np.array([[[0.7]]]), None, np.array([[1.0]]))
    assert spectral_radius(augmented_matrix(m)) == pytest.approx(0.49, abs=1e-12)


def test_augmented_matrix_cap():
    m = MjsModel(np.zeros((5, 4, 4)), None, np.full((5, 5), 0.2))
    with pytest.raises(TooLarge):
        augmented_matrix(m, cap=16)


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
def test_tau_estimate_skips_only_what_cannot_win(seed, d, kind, lift, k_max):
    # An exact norm is skipped only where its bound cannot pass the
    # strict update, so value and argmax_k are those of the full sweep,
    # bit for bit.
    rng = np.random.default_rng(seed)
    M = draw_matrix(rng, d, kind)
    rho = max(spectral_radius(M) * lift, 1e-3)
    est = tau_estimate(M, rho, k_max=k_max)
    assert (est.value, est.argmax_k) == full_tau_sweep(M, rho, k_max)
    assert est.exact
    if est.certified:  # the sup over every k: a longer sweep adds nothing
        assert full_tau_sweep(M, rho, k_max + 60)[0] <= est.value * (1.0 + 1e-12)


def test_tau_certified_flag():
    # ||M^k|| = 0.5^k: g(1) = 0.5 / 0.6 < 1 certifies at once.
    est = tau_estimate(np.diag([0.5, 0.1]), 0.6, k_max=5)
    assert est.certified and est.value == 1.0
    # A Jordan block grows first: g(k) ~ 2 k (0.5 / 0.55)^k stays above
    # 1 up to k = 40 and falls below it well before k = 80.
    J = np.array([[0.5, 1.0], [0.0, 0.5]])
    assert not tau_estimate(J, 0.55, k_max=40).certified
    assert tau_estimate(J, 0.55, k_max=80).certified


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


def test_kappa_identity_family():
    est = kappa_estimate([np.eye(2)], xi=1.01)
    assert est.value == 1.0
    assert est.argmax_k == 0
    assert est.complete and not est.unconverged
    with pytest.raises(XiTooSmall):
        kappa_estimate([2.0 * np.eye(2)], xi=1.0)


@pytest.mark.parametrize("xi", [0.0, -0.5, float("nan")])
def test_kappa_rejects_nonpositive_xi(xi):
    # Zero modes certify a JSR of 0, which xi = 0 would pass.
    with pytest.raises(XiTooSmall):
        kappa_estimate(np.zeros((2, 2, 2)), xi)
    with pytest.raises(XiTooSmall):
        kappa_estimate(np.zeros((2, 2, 2)), xi, jsr=jsr_bounds(np.zeros((2, 2, 2))))


def test_kappa_matches_brute_force_products(rng):
    mats = [0.6 * rng.standard_normal((2, 2)) for _ in range(2)]
    xi = 1.05 * jsr_bounds(mats, k_max=6).upper
    est = kappa_estimate(mats, xi)
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
    est = kappa_estimate(mats, xi, jsr=b)
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
    est = kappa_estimate(mats, xi, jsr=b)
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
    est = kappa_estimate(J, xi, jsr=b)
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
            states, _ = simulate_batch(m, x0, 200, 100, seed=idx)
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
        comp = stability_comparison(
            model, res, k_max_tau=8, k_max_jsr=3
        )
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
    assert rep.rho_used == pytest.approx(min(1.01 * rep.rho_aug, 0.5 * (1 + rep.rho_aug)))
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
            calls[_name].append(kwargs)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(stability, name, counted)
    model, _, _ = generate(SynthConfig(8, 2, 3, 0, seed=2))
    rep = stability_report(model, k_max_tau=4)
    assert len(calls["jsr_bounds"]) == 1
    assert len(calls["kappa_estimate"]) == 1
    assert calls["kappa_estimate"][0]["jsr"] is rep.jsr
    assert rep.kappa.complete
    assert rep.a_bar == float(np.linalg.norm(model.A, 2, axis=(1, 2)).max())


def test_stability_report_takes_one_spectral_radius(monkeypatch):
    # rho_aug comes from MomentOperator.rho(); the tau sweep reuses it
    # instead of a second dense eig of the augmented matrix.
    calls = []
    dense = stability.spectral_radius

    def counted(M, cap=4096):
        calls.append(np.asarray(M).shape)
        return dense(M, cap)

    monkeypatch.setattr(stability, "spectral_radius", counted)
    model, _ = fig4_model()  # s n^2 = 24: the dense path
    stability_report(model, k_max_tau=4, k_max_jsr=2)
    assert calls.count((24, 24)) == 1
    calls.clear()
    big, _, _ = generate(SynthConfig(8, 2, 3, 0, seed=2))  # 72: ARPACK
    rep = stability_report(big, k_max_tau=4, k_max_jsr=2)
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
    kwargs = dict(k_max_tau=8, k_max_jsr=2)
    rep = stability_report(model, **kwargs)
    comp = stability_comparison(model, res, **kwargs)
    assert built == []
    assert rep.tau.exact and comp.report_reduced.tau.exact


def test_stability_report_rejects_rho_below_rho_aug():
    model, _ = fig4_model()
    rho_aug = stability_report(model, k_max_tau=2, k_max_jsr=2).rho_aug
    with pytest.raises(RhoTooSmall):
        stability_report(model, rho=0.9 * rho_aug, k_max_tau=2, k_max_jsr=2)
    rep = stability_report(model, rho=rho_aug, k_max_tau=2, k_max_jsr=2)
    assert rep.rho_used == rho_aug


def test_stability_comparison_report_fields(rng):
    model, _, _ = generate(SynthConfig(4, 2, 2, 0, seed=5))
    res = reduce_model(model, 2, branch="aggregatable", seed=5)
    comp = stability_comparison(model, res, k_max_tau=8, k_max_jsr=3)
    assert comp.eps_rho >= 0.0
    assert comp.rho_gap_forward == -comp.rho_gap_reverse
    d = comp.to_dict()
    assert {"eps_rho", "lemma_gap_rho", "original", "reduced"} <= set(d)
    assert d["original"]["is_mss"] in (True, False)


def test_second_moment_evolution_init_forms():
    model, _ = fig4_model()
    x0 = np.array([1.0, 0.0])
    fixed = second_moment_evolution(model, x0, 2, init_dist=3)
    assert np.array_equal(fixed[0, 3], np.outer(x0, x0))
    assert np.abs(fixed[0, [0, 1, 2, 4, 5]]).max() == 0.0
    weights = second_moment_evolution(model, x0, 2, init_dist=np.full(6, 1 / 6))
    assert np.allclose(weights[0].sum(axis=0), np.outer(x0, x0), atol=1e-12)
