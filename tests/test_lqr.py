
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PARTITION_LABELS, draw_instance, random_model
from mjsreduce.clustering import reduce_model
import mjsreduce.lqr as lqr
from mjsreduce.errors import (
    DimensionMismatch,
    Diverged,
    InputError,
    NotConverged,
    NotMss,
    SingularInnerMatrix,
    TooLarge,
)
from mjsreduce.lqr import (
    closed_loop_average_cost,
    cumulative_cost_noisefree,
    lift_gains,
    monte_carlo_cost,
    reduced_lqr_suboptimality,
    riccati_operators,
    riccati_solve,
)
from mjsreduce.model import MjsModel, stationary_distribution
from mjsreduce.stability import augmented_matrix, second_moment_evolution
from mjsreduce.synth import SynthConfig, generate

SCALAR = MjsModel(
    np.array([[[0.5]]]), np.array([[[1.0]]]), np.array([[1.0]])
)
# No inputs: the solve settles on the value matrices.
AUTO = MjsModel(np.array([[[0.5]]]), None, np.array([[1.0]]))
EYE1 = np.array([[1.0]])


def scalar_fixed_point():
    # Independent route to the scalar fixed point: iterate the update
    # p <- 1 + 0.25 p - 0.25 p^2 / (1 + p) far past convergence.
    p = 1.0
    for _ in range(200):
        p = 1.0 + 0.25 * p - 0.25 * p * p / (1.0 + p)
    return p


def test_scalar_riccati_root():
    root = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0
    oracle = scalar_fixed_point()
    assert oracle == pytest.approx(root, abs=1e-12)
    sol = riccati_solve(SCALAR, EYE1, EYE1)
    assert sol.P[0, 0, 0] == pytest.approx(oracle, abs=1e-10)
    assert sol.final_gain_delta < 1e-12
    assert sol.iterations == len(sol.p_deltas)
    assert sol.elapsed_ms >= 0.0
    p = sol.P[0, 0, 0]
    assert sol.K[0, 0, 0] == pytest.approx(-0.5 * p / (1.0 + p), abs=1e-10)


def test_riccati_operators_single_step():
    phi, K, ricc = riccati_operators(SCALAR, EYE1, EYE1, np.array([[[1.0]]]))
    # phi = T X = 1, G = 1 + 1 = 2, K = -0.5/2, ricc = 1 + 0.25 - 0.25/2.
    assert phi[0, 0, 0] == 1.0
    assert K[0, 0, 0] == pytest.approx(-0.25, abs=1e-15)
    assert ricc[0, 0, 0] == pytest.approx(1.125, abs=1e-15)


def test_riccati_autonomous_stops_on_value_delta():
    sol = riccati_solve(AUTO, EYE1, np.zeros((0, 0)))
    assert sol.final_gain_delta == 0.0
    # Value fixed point of p = 1 + 0.25 p.
    assert sol.P[0, 0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize(
    "model, R", [(SCALAR, EYE1), (AUTO, np.zeros((0, 0)))], ids=["gains", "no-gains"]
)
def test_riccati_reports_an_unconverged_solve(monkeypatch, model, R):
    # With and without gains to track, a spent step budget raises and
    # names the model size, the budget and the last tracked change.
    monkeypatch.setattr(lqr, "RICCATI_STEPS", 3)
    what = "gain" if model.p else "value"
    size = rf"\(s, n, p\) = \(1, 1, {model.p}\)"
    with pytest.raises(NotConverged, match=rf"{size} .* in 3 steps \(last {what} change"):
        riccati_solve(model, EYE1, R)


def test_riccati_and_monte_carlo_take_no_tuning_options():
    for fn, gone in (
        (riccati_solve, ("tol", "max_iter", "divergence_cap")),
        (monte_carlo_cost, ("blowup",)),
    ):
        assert not set(gone) & set(inspect.signature(fn).parameters)


@pytest.mark.invariant
def test_gains_reproduce_from_value_matrices(rng):
    for _ in range(3):
        m = random_model(rng, s=4, n=2, p=1)
        sol = riccati_solve(m, np.eye(2), np.eye(1))
        _, K, _ = riccati_operators(m, np.eye(2), np.eye(1), sol.P)
        assert np.abs(K - sol.K).max() <= 1e-9


@pytest.mark.invariant
def test_value_matrices_constant_on_clusters_at_zero_perturbation():
    for seed in range(3):
        model, partition, _ = generate(
            SynthConfig(8, 2, 2, 2, branch="aggregatable", seed=seed)
        )
        sol = riccati_solve(model, np.eye(2), np.eye(2))
        scale = max(np.linalg.norm(sol.P[i]) for i in range(model.s))
        for cluster in partition.clusters:
            lead = cluster[0]
            for i in cluster:
                assert np.linalg.norm(sol.P[i] - sol.P[lead]) <= 1e-8 * scale


@pytest.mark.invariant
def test_value_iteration_tail_is_monotone(rng):
    for _ in range(3):
        m = random_model(rng, s=3, n=2, p=1)
        sol = riccati_solve(m, np.eye(2), np.eye(1))
        tail = sol.p_deltas[-50:]
        for a, b in zip(tail, tail[1:]):
            assert b <= a * (1.0 + 1e-9) + 1e-15


@pytest.mark.invariant
def test_reduced_gains_never_beat_optimal():
    for seed in (0, 1):
        model, _, _ = generate(
            SynthConfig(6, 2, 2, 1, eps_A=0.2, eps_T=0.3, seed=seed)
        )
        res = reduced_lqr_suboptimality(
            model, 2, np.eye(2), np.eye(1), sigma_w=0.1,
            branch="aggregatable", seed=seed,
        )
        assert res.gap >= -1e-9 * res.J_star
        assert res.J_star > 0.0


@pytest.mark.invariant
def test_noise_free_costs_vanish():
    model, _, _ = generate(SynthConfig(6, 3, 2, 1, seed=4))
    res = reduced_lqr_suboptimality(
        model, 3, np.eye(2), np.eye(1), sigma_w=0.0,
        branch="aggregatable", seed=4,
    )
    assert abs(res.J_star) <= 1e-10
    assert abs(res.J_hat) <= 1e-10


def test_riccati_divergence():
    hopeless = MjsModel(
        np.array([[[2.0]]]), np.array([[[0.0]]]), np.array([[1.0]])
    )
    with pytest.raises(Diverged):
        riccati_solve(hopeless, EYE1, EYE1)


def test_singular_inner_matrix():
    degenerate = MjsModel(
        np.array([[[0.5]]]), np.array([[[0.0]]]), np.array([[1.0]])
    )
    with pytest.raises(SingularInnerMatrix):
        riccati_solve(degenerate, EYE1, np.zeros((1, 1)))
    # Only mode 1 has no input, so only its inner matrix R + B' phi B
    # (with R = 0) is singular.
    B = np.array([[[1.0]], [[0.0]], [[2.0]]])
    mixed = MjsModel(np.full((3, 1, 1), 0.5), B, np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(SingularInnerMatrix, match="at mode 1$"):
        riccati_operators(mixed, EYE1, np.zeros((1, 1)), np.ones((3, 1, 1)))


def loop_riccati_operators(model, Q, R, X):
    """riccati_operators one mode at a time, kept as its oracle."""
    phi = np.einsum("ij,jkl->ikl", model.T, X)
    s, n, p = model.s, model.n, model.p
    K = np.empty((s, p, n))
    ricc = np.empty((s, n, n))
    for i in range(s):
        A, B, ph = model.A[i], model.B[i], phi[i]
        if p:
            sol = np.linalg.solve(R + B.T @ ph @ B, B.T @ ph @ A)
            K[i] = -sol
            ricc[i] = Q + A.T @ ph @ A - A.T @ ph.T @ B @ sol
        else:
            K[i] = np.zeros((0, n))
            ricc[i] = Q + A.T @ ph @ A
    return phi, K, ricc


@pytest.mark.invariant
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    labels=PARTITION_LABELS,
    n=st.integers(1, 4),
    p=st.integers(0, 3),
    zeros=st.booleans(),
)
def test_riccati_operators_match_mode_loop(seed, labels, n, p, zeros):
    model, _ = draw_instance(seed, labels, n, p, zeros)
    # X is not symmetric, so phi and its transpose differ.
    X = np.random.default_rng(seed).standard_normal((model.s, n, n))
    Q, R = np.eye(n), np.eye(p)
    for got, want in zip(
        riccati_operators(model, Q, R, X), loop_riccati_operators(model, Q, R, X)
    ):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_lift_gains_copies_by_label():
    from mjsreduce.model import Partition

    part = Partition([[0, 2], [1, 3]])
    K_red = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])
    lifted = lift_gains(K_red, part)
    assert lifted.shape == (4, 1, 2)
    assert np.array_equal(lifted[0], K_red[0])
    assert np.array_equal(lifted[2], K_red[0])
    assert np.array_equal(lifted[1], K_red[1])
    assert np.array_equal(lifted[3], K_red[1])


def test_scalar_average_cost_closed_form():
    sol = riccati_solve(SCALAR, EYE1, EYE1)
    p = sol.P[0, 0, 0]
    k = sol.K[0, 0, 0]
    sigma = 0.3
    rep = closed_loop_average_cost(SCALAR, sol.K, EYE1, EYE1, sigma)
    assert rep.method == "closed_form"
    a_cl = 0.5 + k
    v = sigma**2 / (1.0 - a_cl**2)
    assert rep.value == pytest.approx((1.0 + k * k) * v, rel=1e-9)
    # At the optimal gain the average cost equals sigma^2 tr(P).
    assert rep.value == pytest.approx(sigma**2 * p, rel=1e-9)


def test_monte_carlo_matches_closed_form_scalar():
    sol = riccati_solve(SCALAR, EYE1, EYE1)
    sigma = 0.3
    exact = closed_loop_average_cost(SCALAR, sol.K, EYE1, EYE1, sigma).value
    mc = monte_carlo_cost(
        SCALAR, sol.K, EYE1, EYE1, sigma,
        horizon=20_000, n_traj=4, burn_in=500, seed=0,
    )
    assert mc.method == "monte_carlo"
    assert mc.stderr is not None and mc.stderr > 0.0
    assert mc.value == pytest.approx(exact, rel=0.02)


def test_monte_carlo_flags_divergence():
    loose = MjsModel(np.array([[[1.5]]]), None, np.array([[1.0]]))
    rep = monte_carlo_cost(
        loose, np.zeros((1, 0, 1)), EYE1, np.zeros((0, 0)), 1.0,
        horizon=200, n_traj=2, seed=1,
    )
    assert rep.diverged and rep.value == np.inf


def test_average_cost_requires_mss():
    loose = MjsModel(np.array([[[1.2]]]), None, np.array([[1.0]]))
    with pytest.raises(NotMss):
        closed_loop_average_cost(
            loose, np.zeros((1, 0, 1)), EYE1, np.zeros((0, 0)), 0.1
        )
    with pytest.raises(NotMss):
        cumulative_cost_noisefree(
            loose, np.zeros((1, 0, 1)), EYE1, np.zeros((0, 0)), np.ones(1)
        )


def test_average_cost_reports_convergence():
    sol = riccati_solve(SCALAR, EYE1, EYE1)
    rep = closed_loop_average_cost(SCALAR, sol.K, EYE1, EYE1, 0.3)
    assert rep.iterations > 1
    assert 0.0 <= rep.gap < 1e-12


def test_fixed_point_budget_raises(monkeypatch):
    sol = riccati_solve(SCALAR, EYE1, EYE1)
    monkeypatch.setattr(lqr, "FIXED_POINT_STEPS", 3)
    with pytest.raises(NotConverged):
        closed_loop_average_cost(SCALAR, sol.K, EYE1, EYE1, 0.3)
    with pytest.raises(NotConverged):
        cumulative_cost_noisefree(SCALAR, sol.K, EYE1, EYE1, np.ones(1))


def test_average_cost_beyond_dense_cap():
    # s n^2 = 4480: the dense augmented matrix is over its cap, the
    # matrix-free stability check is not.
    model, _, _ = generate(SynthConfig(70, 7, 8, 2, seed=3))
    with pytest.raises(TooLarge):
        augmented_matrix(model)
    Q, R = np.eye(8), np.eye(2)
    sol = riccati_solve(model, Q, R)
    rep = closed_loop_average_cost(model, sol.K, Q, R, 0.1)
    assert rep.value > 0.0 and rep.gap < 1e-12
    total = cumulative_cost_noisefree(model, sol.K, Q, R, np.ones(8), init_dist=0)
    assert total == pytest.approx(np.ones(8) @ sol.P[0] @ np.ones(8), rel=1e-9)


def test_cumulative_cost_matches_moment_route(rng):
    m = random_model(rng, s=3, n=2, p=1)
    sol = riccati_solve(m, np.eye(2), np.eye(1))
    x0 = np.array([1.0, -2.0])
    total = cumulative_cost_noisefree(m, sol.K, np.eye(2), np.eye(1), x0)
    # Second route: closed-loop per-mode moments, summing tr(stage M_t).
    Acl = m.A + np.einsum("ijk,ikl->ijl", m.B, sol.K)
    closed = MjsModel(Acl, None, m.T)
    stage = np.tile(np.eye(2), (3, 1, 1)) + np.einsum(
        "ikj,kl,ilm->ijm", sol.K, np.eye(1), sol.K
    )
    mom = second_moment_evolution(closed, x0, 400)
    steps = np.einsum("tijk,ikj->t", mom, stage)
    assert steps[-1] < 1e-13
    assert total == pytest.approx(steps.sum(), rel=1e-9)


def dense_primal_costs(model, K, Q, R, sigma_w, x0, init):
    """Both costs from the per-mode second moments, by a dense solve of
    (I - M) m = q with M the closed loop's augmented matrix: the primal
    route, which never forms the value matrices."""
    s, n = model.s, model.n
    Acl = model.A + np.einsum("ijk,ikl->ijl", model.B, K)
    M = augmented_matrix(MjsModel(Acl, None, model.T))
    stage = Q + np.einsum("ikj,kl,ilm->ijm", K, R, K)

    def priced(q):
        m = np.linalg.solve(np.eye(M.shape[0]) - M, q.ravel()).reshape(s, n, n)
        return float(np.einsum("ijk,ikj->", stage, m))

    pi = stationary_distribution(model.T)
    noise = sigma_w**2 * pi[:, None, None] * np.eye(n)
    return priced(noise), priced(init[:, None, None] * np.outer(x0, x0))


@pytest.mark.invariant
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 5),
    n=st.integers(1, 3),
    p=st.integers(0, 2),
    zeros=st.booleans(),
    radius=st.sampled_from([0.3, 0.6, 0.9]),
)
def test_costs_match_the_dense_moment_solve(seed, s, n, p, zeros, radius):
    # The closed-loop modes are scaled to 2-norm at most radius, which
    # bounds the mean-square spectral radius rho by radius^2.  The value
    # recursion stops once a step moves V by at most 1e-14 of its
    # largest entry, which leaves about 1e-14 rho / (1 - rho) of V
    # unsummed: below 1e-13 for rho <= 0.81.
    rng = np.random.default_rng(seed)
    T = rng.dirichlet(np.ones(s), size=s)
    if zeros:  # sparse, but a cycle and one self-loop keep it ergodic
        T[rng.random((s, s)) < 0.3] = 0.0
        T[np.arange(s), (np.arange(s) + 1) % s] += 0.5
        T[0, 0] += 0.1
        T /= T.sum(axis=1, keepdims=True)
    A = rng.standard_normal((s, n, n))
    B = rng.standard_normal((s, n, p))
    K = rng.standard_normal((s, p, n))
    top = float(np.linalg.norm(A + B @ K, 2, axis=(1, 2)).max())
    scale = radius / top if top > radius else 1.0
    model = MjsModel(scale * A, B, T)
    K = scale * K
    G = rng.standard_normal((n, n))
    H = rng.standard_normal((p, p))
    Q, R = G @ G.T + 0.1 * np.eye(n), H @ H.T + np.eye(p)
    x0 = rng.standard_normal(n)
    init = rng.dirichlet(np.ones(s))
    sigma_w = 0.3
    average, total = dense_primal_costs(model, K, Q, R, sigma_w, x0, init)
    got = closed_loop_average_cost(model, K, Q, R, sigma_w).value
    assert abs(got - average) <= 1e-13 * abs(average)
    got = cumulative_cost_noisefree(model, K, Q, R, x0, init_dist=init)
    assert abs(got - total) <= 1e-13 * abs(total)


def test_cost_inputs_are_refused():
    sol = riccati_solve(SCALAR, EYE1, EYE1)
    run = dict(horizon=10, n_traj=2, seed=0)
    for bad, error in (
        (dict(run, burn_in=10), InputError),
        (dict(run, burn_in=12), InputError),
        (dict(run, burn_in=-1), InputError),
        (dict(run, n_traj=0), InputError),
    ):
        with pytest.raises(error):
            monte_carlo_cost(SCALAR, sol.K, EYE1, EYE1, 0.3, **bad)
    with pytest.raises(DimensionMismatch, match="x0"):
        cumulative_cost_noisefree(SCALAR, sol.K, EYE1, EYE1, np.ones(2))
    with pytest.raises(DimensionMismatch, match="x0"):
        cumulative_cost_noisefree(SCALAR, sol.K, EYE1, EYE1, np.ones((1, 1)))


def test_suboptimality_report_shape(monkeypatch):
    model, _, _ = generate(SynthConfig(4, 2, 2, 1, eps_A=0.1, seed=8))
    red = reduce_model(model, 2, branch="aggregatable", seed=8)
    sols = {}

    def recorded(m, Q, R):
        sols[m.s] = riccati_solve(m, Q, R)
        return sols[m.s]

    monkeypatch.setattr(lqr, "riccati_solve", recorded)
    res = reduced_lqr_suboptimality(
        model, 2, np.eye(2), np.eye(1), sigma_w=0.1, reduction=red
    )
    # The times are the solves' own.
    assert res.time_full_ms == sols[4].elapsed_ms
    assert res.time_reduced_ms == sols[2].elapsed_ms
    assert res.reduction is red
    d = res.to_dict()
    assert set(d) == {
        "J_star", "J_hat", "gap", "iters_full", "iters_reduced",
        "time_full_ms", "time_reduced_ms",
    }
    assert d["gap"] == pytest.approx(d["J_hat"] - d["J_star"], abs=1e-15)
    assert res.time_full_ms >= 0.0 and res.time_reduced_ms >= 0.0


@pytest.mark.parametrize("which", ["reduced", "full"])
def test_suboptimality_refuses_unconverged_design(monkeypatch, which):
    model, _, _ = generate(SynthConfig(4, 2, 2, 1, eps_A=0.1, seed=8))
    red = reduce_model(model, 2, branch="aggregatable", seed=8)
    solve = lqr.riccati_solve

    def short_budget(m, Q, R):
        with monkeypatch.context() as patch:
            if (m.s == red.reduced.s) == (which == "reduced"):
                patch.setattr(lqr, "RICCATI_STEPS", 2)
            return solve(m, Q, R)

    monkeypatch.setattr(lqr, "riccati_solve", short_budget)
    s = red.reduced.s if which == "reduced" else model.s
    size = rf"\(s, n, p\) = \({s}, 2, 1\)"
    with pytest.raises(NotConverged, match=rf"{size} did not converge in 2 steps"):
        reduced_lqr_suboptimality(
            model, 2, np.eye(2), np.eye(1), sigma_w=0.1, reduction=red
        )
