import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_model, three_state_model
from mjsreduce.bounds import (
    BoundInputs,
    KernelDistribution,
    corollary_sum_bound,
    empirical_traj_diff,
    kernel_mean_cov,
    mss_premises,
    mss_traj_bound,
    transition_kernel_enum,
    us_premises,
    us_traj_bound,
    w2_moment_lower_bound,
    wasserstein_exact,
    wasserstein_kernel_bound,
)
from mjsreduce.clustering import average_model, reduce_model
from mjsreduce.errors import (
    DimensionMismatch,
    InputError,
    NotNormalized,
    TooLarge,
    TooManySequences,
)
from mjsreduce.model import MjsModel, Partition, _resolve_init_dist, stationary_distribution
from mjsreduce.synth import SynthConfig, fig4_model, generate

SCALAR_PAIR = MjsModel(
    np.array([[[2.0]], [[3.0]]]), None, np.full((2, 2), 0.5)
)


def dist(points, mass, t=0):
    return KernelDistribution(np.asarray(points, float), np.asarray(mass, float), t)


def random_dist(rng, m, n=2):
    return dist(rng.standard_normal((m, n)), rng.dirichlet(np.ones(m)))


def reference_inputs(**overrides):
    base = dict(
        n=2, s=4, r=2, a_bar=1.1, b_bar=0.8, t_bar=0.3, T_norm=1.05,
        rho=0.9, tau=2.5, xi=0.95, kappa=1.7,
        eps_A=0.01, eps_B=0.02, eps_T=0.03, x0_norm=1.5, u_bar=0.7,
    )
    base.update(overrides)
    return BoundInputs(**base)


def test_kernel_enum_one_step():
    k = transition_kernel_enum(SCALAR_PAIR, np.array([1.0]), 1)
    order = np.argsort(k.support[:, 0])
    assert np.allclose(k.support[order, 0], [2.0, 3.0], atol=1e-14)
    assert np.allclose(k.mass[order], [0.5, 0.5], atol=1e-14)


def test_kernel_enum_two_steps_merges_duplicates():
    # Paths (0,1) and (1,0) both land on 6; their masses add up.
    k = transition_kernel_enum(SCALAR_PAIR, np.array([1.0]), 2)
    order = np.argsort(k.support[:, 0])
    assert k.size == 3
    assert np.allclose(k.support[order, 0], [4.0, 6.0, 9.0], atol=1e-14)
    assert np.allclose(k.mass[order], [0.25, 0.5, 0.25], atol=1e-14)


def test_kernel_enum_init_forms():
    at_zero = transition_kernel_enum(SCALAR_PAIR, np.array([1.0]), 0)
    assert at_zero.size == 1 and at_zero.mass[0] == 1.0
    assert at_zero.support[0, 0] == 1.0
    for mode in (1, np.int64(1)):
        pinned = transition_kernel_enum(SCALAR_PAIR, np.array([1.0]), 1, init_dist=mode)
        assert pinned.size == 1
        assert pinned.support[0, 0] == 3.0


def test_kernel_enum_rejections(rng):
    with pytest.raises(TooManySequences):
        transition_kernel_enum(SCALAR_PAIR, np.array([1.0]), 9, cap=100)
    driven = random_model(rng, s=2, n=2, p=1)
    with pytest.raises(TooLarge):
        transition_kernel_enum(driven, np.zeros(2), 1)
    # Declared but identically zero inputs are fine.
    silent = MjsModel(driven.A, np.zeros((2, 2, 1)), driven.T)
    transition_kernel_enum(silent, np.zeros(2), 1)


@pytest.mark.parametrize("t", [-1, -3])
def test_kernel_enum_refuses_a_negative_horizon(t):
    model, _ = fig4_model()
    with pytest.raises(DimensionMismatch, match="nonnegative"):
        transition_kernel_enum(model, np.array([1.0, 0.0]), t)


@pytest.mark.invariant
def test_kernel_mass_is_conserved(rng):
    for _ in range(5):
        m = random_model(rng, s=3, n=2, p=0)
        for t in range(5):
            k = transition_kernel_enum(m, np.ones(2), t)
            assert abs(k.mass.sum() - 1.0) <= 1e-12
            assert k.mass.min() > 0.0


def recursive_kernel(model, x0, t, init_dist=None, dedup_tol=1e-10):
    """The depth-first walk with a greedy per-point merge that
    transition_kernel_enum replaces, kept as its oracle."""
    init, _ = _resolve_init_dist(model, init_dist)
    points, masses = [], []

    def walk(depth, mode, x, q):
        x = model.A[mode] @ x
        if depth == t - 1:
            points.append(x)
            masses.append(q)
            return
        for j in range(model.s):
            qj = q * model.T[mode, j]
            if qj > 0.0:
                walk(depth + 1, j, x, qj)

    if t == 0:
        points, masses = [x0], [1.0]
    else:
        for i in range(model.s):
            if init[i] > 0.0:
                walk(0, i, x0, float(init[i]))
    tol = dedup_tol * max(float(np.linalg.norm(x0)), 1.0)
    kept, kept_mass, buckets = [], [], {}
    for x, q in zip(points, masses):
        key = np.round(x / max(tol, 1e-300)).astype(np.int64).tobytes()
        for idx in buckets.get(key, ()):
            if np.linalg.norm(kept[idx] - x) <= tol:
                kept_mass[idx] += q
                break
        else:
            kept.append(x)
            kept_mass.append(q)
            buckets.setdefault(key, []).append(len(kept) - 1)
    return np.array(kept), np.array(kept_mass)


def test_kernel_enum_equals_recursive_walk_on_fig4():
    # Bit for bit, in the same order: every fig4 kernel of the certify
    # benchmark, full model and reductions of seeds 0-5.
    model, _ = fig4_model()
    models = [model] + [reduce_model(model, 3, seed=seed).reduced for seed in range(6)]
    for m in models:
        for x0 in ((1.0, 1.0), (1.0, -1.0), (1.0, 0.0), (0.0, 1.0)):
            for t in range(7):
                k = transition_kernel_enum(m, np.array(x0), t)
                support, mass = recursive_kernel(m, np.array(x0), t)
                assert np.array_equal(k.support, support), (m.s, x0, t)
                assert np.array_equal(k.mass, mass), (m.s, x0, t)


@pytest.mark.invariant
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 4),
    n=st.integers(1, 4),
    t=st.integers(0, 5),
    init=st.sampled_from(["none", "mode", "weights"]),
    commuting=st.booleans(),
    dedup_tol=st.sampled_from([1e-10, 1e-2, 0.3, 1.0]),
)
@example(seed=0, s=3, n=2, t=0, init="weights", commuting=False, dedup_tol=1e-10)
@example(seed=0, s=2, n=4, t=4, init="none", commuting=False, dedup_tol=1.0)
def test_kernel_enum_equals_recursive_walk(seed, s, n, t, init, commuting, dedup_tol):
    # Zero-probability transitions prune branches; commuting (diagonal)
    # modes land many paths on one point, and the wide tolerances merge
    # distinct points, so the greedy order is exercised.
    rng = np.random.default_rng(seed)
    if commuting:
        A = np.stack([np.diag(d) for d in rng.choice([0.5, -1.0, 2.0], size=(s, n))])
    else:
        A = rng.standard_normal((s, n, n)) / np.sqrt(n)
    T = rng.random((s, s)) * (rng.random((s, s)) < 0.5)
    # A cycle and a self-loop keep the chain ergodic for init_dist=None.
    T[np.arange(s), (np.arange(s) + 1) % s] += 0.1
    T[np.arange(s), np.arange(s)] += 0.05
    T /= T.sum(axis=1, keepdims=True)
    model = MjsModel(A, None, T)
    init_dist = {
        "none": None,
        "mode": int(rng.integers(0, s)),
        "weights": rng.dirichlet(np.ones(s)) * (rng.random(s) < 0.7) + 0.0,
    }[init]
    if init == "weights":
        init_dist[0] += 1.0 - init_dist.sum()
    x0 = rng.standard_normal(n)
    k = transition_kernel_enum(model, x0, t, init_dist=init_dist, dedup_tol=dedup_tol)
    support, mass = recursive_kernel(model, x0, t, init_dist, dedup_tol)
    assert k.support.shape == support.shape
    np.testing.assert_allclose(k.support, support, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(k.mass, mass, rtol=1e-12, atol=0.0)


def test_wasserstein_frozen_values():
    split = dist([[0.0], [1.0]], [0.5, 0.5])
    point = dist([[0.0]], [1.0])
    assert wasserstein_exact(split, point, ell=1) == pytest.approx(0.5, abs=1e-12)
    assert wasserstein_exact(split, point, ell=2) == pytest.approx(
        np.sqrt(0.5), abs=1e-12
    )
    assert wasserstein_exact(split, split, ell=1) == pytest.approx(0.0, abs=1e-12)


def test_wasserstein_translation_is_shift_norm(rng):
    pts = rng.standard_normal((4, 3))
    mass = rng.dirichlet(np.ones(4))
    v = np.array([1.0, -2.0, 0.5])
    p = dist(pts, mass)
    q = dist(pts + v, mass)
    for ell in (1, 2):
        assert wasserstein_exact(p, q, ell=ell) == pytest.approx(
            np.linalg.norm(v), rel=1e-9
        )


def test_wasserstein_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        wasserstein_exact(dist([[0.0]], [0.9]), dist([[0.0]], [1.0]))


@pytest.mark.parametrize("ell", [0, 0.5, -1, float("nan")])
def test_transport_order_below_one_is_refused(ell):
    # ell = 0 divided by zero and ell = -1 reached scipy with a NaN cost.
    p = dist([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(InputError):
        wasserstein_exact(p, p, ell=ell)
    with pytest.raises(InputError):
        wasserstein_kernel_bound(reference_inputs(), 3, ell=ell)


def test_wasserstein_plan_marginals(rng):
    p = random_dist(rng, 3)
    q = random_dist(rng, 4)
    _, plan = wasserstein_exact(p, q, ell=1, return_plan=True)
    assert np.abs(plan.sum(axis=1) - p.mass).max() <= 1e-9
    assert np.abs(plan.sum(axis=0) - q.mass).max() <= 1e-9
    assert plan.min() >= -1e-12


def test_wasserstein_matches_permutation_oracle(rng):
    # With equal-size uniform-mass supports the optimal plan is a
    # permutation matrix scaled by 1/m.
    for case in range(25):
        m = 2 + case % 5
        ell = 1 + case % 2
        X = rng.standard_normal((m, 2))
        Y = rng.standard_normal((m, 2))
        p = dist(X, np.full(m, 1.0 / m))
        q = dist(Y, np.full(m, 1.0 / m))
        cost = np.linalg.norm(X[:, None] - Y[None, :], axis=2) ** ell
        best = min(
            sum(cost[i, s[i]] for i in range(m))
            for s in itertools.permutations(range(m))
        )
        expect = (best / m) ** (1.0 / ell)
        assert wasserstein_exact(p, q, ell=ell) == pytest.approx(expect, abs=1e-9)


def vertex_oracle(p, q, ell):
    """Transport LP by brute-force basic-solution enumeration."""
    a, b = p.mass, q.mass
    m, k = len(a), len(b)
    cost = (
        np.linalg.norm(p.support[:, None] - q.support[None, :], axis=2) ** ell
    ).ravel()
    rows = []
    for i in range(m):
        row = np.zeros((m, k))
        row[i] = 1.0
        rows.append(row.ravel())
    for j in range(k - 1):
        col = np.zeros((m, k))
        col[:, j] = 1.0
        rows.append(col.ravel())
    A = np.array(rows)
    rhs = np.concatenate([a, b[:-1]])
    best = np.inf
    for cols in itertools.combinations(range(m * k), m + k - 1):
        sub = A[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        f = np.linalg.solve(sub, rhs)
        if f.min() < -1e-9:
            continue
        best = min(best, cost[list(cols)] @ np.clip(f, 0.0, None))
    return max(best, 0.0) ** (1.0 / ell)


def test_wasserstein_matches_vertex_enumeration(rng):
    for case in range(20):
        p = random_dist(rng, 2 + case % 2)
        q = random_dist(rng, 2 + (case // 2) % 2)
        ell = 1 + case % 2
        expect = vertex_oracle(p, q, ell)
        assert wasserstein_exact(p, q, ell=ell) == pytest.approx(expect, abs=1e-9)


@pytest.mark.invariant
def test_wasserstein_triangle_inequality(rng):
    for _ in range(10):
        p = random_dist(rng, 3)
        q = random_dist(rng, 4)
        r = random_dist(rng, 3)
        for ell in (1, 2):
            d_pr = wasserstein_exact(p, r, ell=ell)
            d_pq = wasserstein_exact(p, q, ell=ell)
            d_qr = wasserstein_exact(q, r, ell=ell)
            assert d_pr <= d_pq + d_qr + 1e-9


@pytest.mark.invariant
def test_moment_bounds_sandwich_w2(rng):
    for _ in range(10):
        p = random_dist(rng, 4)
        q = random_dist(rng, 5)
        w2 = wasserstein_exact(p, q, ell=2)
        mp, _ = kernel_mean_cov(p)
        mq, _ = kernel_mean_cov(q)
        assert np.linalg.norm(mp - mq) <= w2 + 1e-9
        assert w2_moment_lower_bound(p, q) <= w2 + 1e-9


@pytest.mark.invariant
@pytest.mark.parametrize("branch", ["aggregatable", "lumpable"])
def test_kernels_coincide_at_exact_reducibility(branch):
    model, partition, _ = generate(
        SynthConfig(4, 2, 2, 0, branch=branch, seed=17)
    )
    red = average_model(model, partition)
    pi = stationary_distribution(model.T)
    pi_red = np.array([pi[list(c)].sum() for c in partition.clusters])
    x0 = np.ones(2)
    for t in range(1, 6):
        k_full = transition_kernel_enum(model, x0, t, init_dist=pi)
        k_red = transition_kernel_enum(red, x0, t, init_dist=pi_red)
        assert wasserstein_exact(k_full, k_red, ell=1) <= 1e-9


def test_mss_traj_bound_formula():
    b = reference_inputs()
    assert mss_traj_bound(b, 0) == 0.0
    for t in (1, 3, 10):
        r0 = 0.5 * (1.0 + b.rho)
        drive = b.a_bar * b.T_norm * b.eps_A
        sq = np.sqrt(r0)
        expect = 4.0 * np.sqrt(b.n * np.sqrt(b.s)) * b.tau * (
            r0 ** ((t - 1) / 2.0) * np.sqrt(t * drive) * b.x0_norm
            + np.sqrt(b.b_bar)
            * b.u_bar
            * (
                sq / (1.0 - sq) ** 2 * np.sqrt(drive)
                + np.sqrt(2.0) / (1.0 - sq) * np.sqrt(b.eps_B)
            )
        )
        assert mss_traj_bound(b, t) == pytest.approx(expect, rel=1e-12)
    silent = reference_inputs(u_bar=0.0)
    expect0 = (
        4.0
        * np.sqrt(silent.n * np.sqrt(silent.s))
        * silent.tau
        * np.sqrt(0.95) ** 1
        * np.sqrt(2 * silent.a_bar * silent.T_norm * silent.eps_A)
        * silent.x0_norm
    )
    assert mss_traj_bound(silent, 2) == pytest.approx(expect0, rel=1e-12)


def test_us_traj_bound_formula():
    b = reference_inputs()
    x0 = 0.5 * (1.0 + b.xi)
    for t in (0, 1, 4):
        term1 = t * x0 ** (t - 1) * b.kappa**2 * b.x0_norm * b.eps_A if t else 0.0
        term2 = (
            2.0 * (1.0 + t * x0**t) * b.kappa**2 * b.b_bar * b.u_bar
            / (1.0 - x0) * b.eps_A
        )
        term3 = b.kappa * b.u_bar / (1.0 - b.xi) * b.eps_B
        assert us_traj_bound(b, t) == pytest.approx(term1 + term2 + term3, rel=1e-12)
    assert us_traj_bound(reference_inputs(u_bar=0.0), 0) == 0.0


def test_wasserstein_kernel_bound_formula():
    b = reference_inputs()
    x0 = 0.5 * (1.0 + b.xi)
    for t, ell in ((1, 1), (2, 1), (4, 2)):
        term1 = t * x0 ** (t - 1) * b.kappa**2 * b.x0_norm * b.eps_A
        term2 = (
            2.0 * b.r**2 * t * b.kappa * b.x0_norm * b.r**t
            * (b.kappa * b.eps_A + b.xi) ** t
            * (b.t_bar + b.eps_T) ** ((t - 2.0) / ell)
            * b.eps_T ** (1.0 / ell)
        )
        assert wasserstein_kernel_bound(b, t, ell=ell) == pytest.approx(
            term1 + term2, rel=1e-12
        )
    lumped_clean = reference_inputs(eps_T=0.0)
    only1 = 1 * x0**0 * b.kappa**2 * b.x0_norm * b.eps_A
    assert wasserstein_kernel_bound(lumped_clean, 1) == pytest.approx(
        only1, rel=1e-12
    )
    assert wasserstein_kernel_bound(b, 0) == 0.0


def test_corollary_sum_bound_formula():
    b = reference_inputs()
    val, note = corollary_sum_bound(b, delta=0.05, p=3)
    expect = (
        4.0 * np.sqrt(b.n * 3) * b.tau * b.x0_norm
        * np.sqrt(b.a_bar * b.eps_A)
        / (0.05 * (1.0 - np.sqrt(b.rho0)) ** 2)
    )
    assert val == pytest.approx(expect, rel=1e-12)
    assert "sqrt(n*p)" in note
    zero_val, _ = corollary_sum_bound(b, delta=0.05, p=0)
    assert zero_val == 0.0


def test_premise_checks():
    good = reference_inputs(eps_A=1e-4, eps_B=1e-4, eps_T=0.0, xi=0.9)
    ok, reasons = mss_premises(good)
    assert ok and reasons == []
    ok, reasons = us_premises(good)
    assert ok and reasons == []
    unstable = reference_inputs(rho=1.0, xi=1.0)
    ok, reasons = mss_premises(unstable)
    assert not ok and any("not below 1" in r for r in reasons)
    ok, reasons = us_premises(unstable)
    assert not ok and any("not below 1" in r for r in reasons)
    rough = reference_inputs(eps_A=10.0, eps_B=10.0)
    ok, reasons = mss_premises(rough)
    assert not ok and len(reasons) == 2
    assert all("exceeds" in r for r in reasons)
    ok, reasons = us_premises(rough)
    assert not ok and len(reasons) == 2


def test_premises_with_zero_dynamics():
    # Every A_i = 0 makes a_bar = 0; the eps_A cap is then 0, not a
    # division by zero.
    b = BoundInputs.from_model(
        three_state_model(), Partition([[0, 1], [2]]), "lumpable", x0=np.ones(2)
    )
    assert b.a_bar == 0.0 and b.eps_A == 0.0
    ok, reasons = mss_premises(b)
    assert ok and reasons == []
    ok, reasons = mss_premises(dataclasses.replace(b, eps_A=1e-3))
    assert not ok and reasons == ["eps_A = 0.001 exceeds 0"]


def test_inputs_from_model_fig4():
    model, partition = fig4_model()
    b = BoundInputs.from_model(model, partition, "aggregatable", x0=np.ones(2))
    assert (b.n, b.s, b.r) == (2, 6, 3)
    assert b.a_bar == pytest.approx(1.3, abs=1e-12)
    assert b.b_bar == 0.0
    assert b.t_bar == 0.2
    assert b.x0_norm == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert b.eps_A == pytest.approx(1.2 * np.sqrt(2.0), rel=1e-12)
    assert b.eps_T <= 1e-12
    assert b.rho == pytest.approx(min(1.01 * 0.954, 0.5 * 1.954), abs=1e-9)
    assert b.T_norm == pytest.approx(np.linalg.norm(model.T, 2), rel=1e-15)
    assert b.rho0 == pytest.approx(0.5 * (1.0 + b.rho), rel=1e-15)


def test_empirical_traj_diff_reducible():
    model, partition, _ = generate(
        SynthConfig(6, 3, 2, 0, branch="aggregatable", seed=3)
    )
    red = average_model(model, partition)
    stats = empirical_traj_diff(
        model, red, partition, np.ones(2), 12, 8, seed=1, noise_std=0.1
    )
    assert stats.t.shape == (13,)
    assert stats.n_traj == 8
    assert np.all(stats.mean_diff <= stats.max_diff + 1e-15)
    assert stats.max_diff.max() <= 1e-10
