
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PARTITION_LABELS, draw_instance, random_model
from mjsreduce.clustering import reduce_model
import mjsreduce.lqr as lqr
from mjsreduce.errors import (
    DegenerateInput,
    DimensionMismatch,
    Diverged,
    InputError,
    NotConverged,
    NotMss,
    PartitionMismatch,
    SingularInnerMatrix,
    TooLarge,
)
from mjsreduce.lqr import (
    closed_loop_average_cost,
    lift_gains,
    monte_carlo_cost,
    reduced_lqr_suboptimality,
    riccati_solve,
)
from mjsreduce.model import MjsModel
from mjsreduce.stability import MomentOperator, augmented_matrix, spectral_radius
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
    assert sol.elapsed_ms >= 0.0
    p = sol.P[0, 0, 0]
    assert sol.K[0, 0, 0] == pytest.approx(-0.5 * p / (1.0 + p), abs=1e-10)


def riccati_step(model, Q, R, X):
    """lqr._riccati_step at X on the open loop of model."""
    return lqr._riccati_step(MomentOperator(model.A, model.T), model.B, Q, R, X)


def test_riccati_operators_single_step():
    K, ricc = riccati_step(SCALAR, EYE1, EYE1, np.array([[[1.0]]]))
    # phi = T X = 1, G = 1 + 1 = 2, K = -0.5/2, ricc = 1 + 0.25 - 0.25/2.
    assert K[0, 0, 0] == pytest.approx(-0.25, abs=1e-15)
    assert ricc[0, 0, 0] == pytest.approx(1.125, abs=1e-15)


def test_riccati_autonomous_stops_on_value_delta():
    # No gain acts, so the solve is the zero gain's value recursion.
    sol = riccati_solve(AUTO, EYE1, np.zeros((0, 0)))
    assert sol.final_gain_delta == 0.0 and sol.K.shape == (1, 0, 1)
    # Value fixed point of p = 1 + 0.25 p.
    assert sol.P[0, 0, 0] == pytest.approx(4.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize(
    "model, R", [(SCALAR, EYE1), (AUTO, np.zeros((0, 0)))], ids=["gains", "no-gains"]
)
def test_riccati_reports_an_unconverged_solve(monkeypatch, model, R):
    # With and without gains to track, a spent step budget raises and
    # names the model size, the budget and the last tracked change.
    # Without inputs the budget is that of the closed-loop values.
    budget = "RICCATI_STEPS" if model.p else "FIXED_POINT_STEPS"
    monkeypatch.setattr(lqr, budget, 3)
    what = "gain " if model.p else ""
    size = rf"\(s, n, p\) = \(1, 1, {model.p}\)"
    with pytest.raises(NotConverged, match=rf"{size} .* in 3 steps \(last {what}change"):
        riccati_solve(model, EYE1, R)


def svd_rule_riccati(model, Q, R):
    """riccati_solve with the 2-norm of the gain change taken at every
    step, the oracle of its Frobenius gate, for loops its stabilizing
    proof accepts.  Returns (iterations, final_gain_delta, K, P) and the
    2-norm of every gain change."""
    P, K_prev, changes = np.tile(Q, (model.s, 1, 1)), None, []
    for h in range(1, lqr.RICCATI_STEPS + 1):
        K, P_new = riccati_step(model, Q, R, P)
        P, P_prev = 0.5 * (P_new + P_new.transpose(0, 2, 1)), P
        if K_prev is not None:
            changes.append(float(np.linalg.norm(K - K_prev, 2, axis=(1, 2)).max()))
            moves = np.linalg.norm(P - P_prev, axis=(1, 2)).max()
            if changes[-1] < lqr.RICCATI_TOL and moves <= lqr.RICCATI_SETTLE * np.abs(P).max():
                return (h, changes[-1], K, P), changes
        K_prev = K
    raise AssertionError("the reference solve did not settle")


def gate_model(seed, s, n, p, a_scale, zero_column):
    # Every |A_i|_2 <= a_scale < 1: the open loop is mean-square stable,
    # so the iteration settles.
    rng = np.random.default_rng(seed)
    model = random_model(rng, s=s, n=n, p=p, a_scale=a_scale)
    if zero_column:
        B = model.B.copy()
        B[:, :, rng.integers(0, p)] = 0.0
        model = MjsModel(model.A, B, model.T)
    return model


def assert_solves_match(sol, want):
    iterations, delta, K, P = want
    assert (sol.iterations, sol.final_gain_delta) == (iterations, delta)
    assert np.array_equal(sol.K, K) and np.array_equal(sol.P, P)


@pytest.mark.invariant
@settings(max_examples=60, deadline=None)
@example(seed=0, s=2, n=3, p=1, a_scale=0.5, zero_column=False)
@example(seed=1, s=3, n=2, p=4, a_scale=0.9, zero_column=True)
# The stopping change has 2-norm 9.33e-13 but Frobenius norm 1.04e-12:
# only the sqrt(min(p, n)) of the gate keeps its SVD.
@example(seed=119, s=4, n=4, p=2, a_scale=0.8, zero_column=False)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 6),
    n=st.integers(1, 4),
    p=st.integers(1, 5),
    a_scale=st.floats(0.1, 0.95),
    zero_column=st.booleans(),
)
def test_riccati_stops_where_a_two_norm_test_at_every_step_does(
    seed, s, n, p, a_scale, zero_column
):
    # p > n, p = 1 and inputs with a zero column (p >= 2, so some input
    # still acts) all stop on the same step, with the same bits.
    model = gate_model(seed, s, n, p, a_scale, zero_column and p > 1)
    Q, R = np.eye(n), np.eye(p)
    want, _ = svd_rule_riccati(model, Q, R)
    assert_solves_match(riccati_solve(model, Q, R), want)


def test_riccati_takes_the_two_norm_of_a_change_the_gate_cannot_decide(monkeypatch):
    # Here the change before the stopping one has Frobenius norm 1.053e-12,
    # inside the gate sqrt(2) 1e-12, but 2-norm 1.039e-12 >= RICCATI_TOL:
    # the SVD runs, and the iteration goes on.
    model = gate_model(5, 3, 2, 2, 0.8, False)
    Q, R = np.eye(2), np.eye(2)
    taken = []
    gain_change = lqr._gain_change
    monkeypatch.setattr(lqr, "_gain_change", lambda d: taken.append(gain_change(d)) or taken[-1])
    sol = riccati_solve(model, Q, R)
    want, changes = svd_rule_riccati(model, Q, R)
    assert_solves_match(sol, want)
    assert taken == changes[-2:]
    assert taken[0] >= lqr.RICCATI_TOL > taken[1]


def test_unconverged_riccati_reports_the_two_norm_of_its_last_gain_change(monkeypatch):
    # At p = n = 2 the 2-norm and the Frobenius norm of a change differ.
    model = gate_model(5, 3, 2, 2, 0.8, False)
    Q, R = np.eye(2), np.eye(2)
    _, changes = svd_rule_riccati(model, Q, R)
    monkeypatch.setattr(lqr, "RICCATI_STEPS", 3)
    with pytest.raises(NotConverged, match=rf"last gain change {changes[1]:.3e}\)"):
        riccati_solve(model, Q, R)


# A settles its gain in 11 steps while P_11 grows fourfold a step: the
# uncontrolled first state doubles, and A + B K has radius 4.
SETTLED_UNSTABLE = MjsModel(
    np.array([np.diag([2.0, 0.5])]), np.array([[[0.0], [1.0]]]), np.array([[1.0]])
)


def test_riccati_refuses_a_settled_gain_that_does_not_stabilize():
    with pytest.raises(Diverged, match="at step 20$"):
        riccati_solve(SETTLED_UNSTABLE, np.eye(2), EYE1)


def test_riccati_waits_for_the_values_under_a_weak_input():
    # B = 1e-6 moves the gain by about B dP, so it settles at step 67,
    # 6e-7 (relative) short of P; the value test holds the stop until P
    # has settled too.  The scalar fixed point solves
    # b^2 p^2 + (1 - a^2 - b^2) p - 1 = 0, taken in its stable form.
    a, b = 0.9, 1e-6
    model = MjsModel(np.array([[[a]]]), np.array([[[b]]]), np.array([[1.0]]))
    c = 1.0 - a * a - b * b
    root = 2.0 / (c + np.sqrt(c * c + 4.0 * b * b))
    sol = riccati_solve(model, EYE1, EYE1)
    assert sol.iterations > 67
    assert sol.P[0, 0, 0] == pytest.approx(root, rel=1e-9)


def count_witness_proofs(monkeypatch) -> list:
    """Outcomes of riccati_solve's calls of _witness_certifies."""
    calls = []
    witness = lqr._witness_certifies

    def counted(*args):
        calls.append(witness(*args))
        return calls[-1]

    monkeypatch.setattr(lqr, "_witness_certifies", counted)
    return calls


def test_riccati_proves_a_semidefinite_weight_by_its_witness(monkeypatch):
    # Q = diag(1, 0): P_{h-1} > 0, since A feeds the second state into
    # the priced first one, and K' R K covers the unpriced direction, so
    # the witness proves the gain without the spectral radius.
    model = MjsModel(
        np.array([[[0.5, 0.5], [0.0, 0.5]]]), np.eye(2)[None], np.array([[1.0]])
    )
    calls = count_witness_proofs(monkeypatch)
    rho_calls = count_rho_calls(monkeypatch)
    sol = riccati_solve(model, np.diag([1.0, 0.0]), np.eye(2))
    assert calls == [True]
    assert rho_calls == []
    A_cl = model.A + model.B @ sol.K
    assert spectral_radius(augmented_matrix(MjsModel(A_cl, None, model.T))) < 1.0


@pytest.mark.parametrize("a, radius", [(0.5, None), (2.0, "4.000000")])
def test_riccati_at_zero_weight_takes_the_radius(monkeypatch, a, radius):
    # Q = 0 keeps P = 0 and K = 0, which no witness can prove: the
    # spectral radius of a decides, where the gain test alone would
    # return the zero gain of an unstable loop.
    model = MjsModel(np.array([[[a]]]), np.array([[[1.0]]]), np.array([[1.0]]))
    calls = count_witness_proofs(monkeypatch)
    rho_calls = count_rho_calls(monkeypatch)
    if radius is None:
        sol = riccati_solve(model, np.zeros((1, 1)), EYE1)
        assert not np.any(sol.K) and not np.any(sol.P)
    else:
        with pytest.raises(NotMss, match=f"radius {radius}"):
            riccati_solve(model, np.zeros((1, 1)), EYE1)
    assert calls == [False]
    assert len(rho_calls) == 1


@pytest.mark.invariant
@settings(max_examples=60, deadline=None)
@example(seed=0, s=1, n=2, p=1, a_scale=2.0, weight="definite", cut=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 4),
    n=st.integers(1, 3),
    p=st.integers(1, 2),
    a_scale=st.floats(0.1, 2.0),
    weight=st.sampled_from(["definite", "singular", "zero"]),
    cut=st.booleans(),
)
def test_riccati_returns_only_stabilizing_gains(seed, s, n, p, a_scale, weight, cut):
    # Open loops up to twice the unit radius, weights that are positive
    # definite, singular or zero, and with cut the first state decoupled
    # from the others, in the dynamics and in the weight, and not
    # driven, so the gain can settle while its value grows: a returned
    # gain always stabilizes by the dense oracle; otherwise the solve
    # raises.  A definite weight on an open loop of dense radius below
    # 0.95 has a stabilizing solution, which the solve must return:
    # 4 000 scratch draws of this kind took at most 380 steps.
    rng = np.random.default_rng(seed)
    model = random_model(rng, s=s, n=n, p=p, a_scale=a_scale)
    G = rng.standard_normal((n, n))
    Q = {"definite": G @ G.T + 0.1 * np.eye(n), "singular": G[:, 1:] @ G[:, 1:].T}
    Q = Q.get(weight, np.zeros((n, n)))
    if cut:
        A, B = model.A.copy(), model.B.copy()
        A[:, 1:, 0] = A[:, 0, 1:] = B[:, 0] = Q[1:, 0] = Q[0, 1:] = 0.0
        model = MjsModel(A, B, model.T)
    solvable = weight == "definite" and spectral_radius(augmented_matrix(model)) < 0.95
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lqr, "RICCATI_STEPS", 2_000)
        try:
            sol = riccati_solve(model, Q, np.eye(p))
        except (Diverged, NotMss, NotConverged):
            if solvable:
                raise
            return
    A_cl = model.A + model.B @ sol.K
    assert spectral_radius(augmented_matrix(MjsModel(A_cl, None, model.T))) < 1.0


def test_riccati_and_monte_carlo_take_no_tuning_options():
    for fn, gone in (
        (riccati_solve, ("tol", "max_iter", "divergence_cap")),
        (monte_carlo_cost, ("blowup",)),
        (reduced_lqr_suboptimality, ("restarts", "weights")),
    ):
        assert not set(gone) & set(inspect.signature(fn).parameters)


@pytest.mark.invariant
def test_gains_reproduce_from_value_matrices(rng):
    for _ in range(3):
        m = random_model(rng, s=4, n=2, p=1)
        sol = riccati_solve(m, np.eye(2), np.eye(1))
        K, _ = riccati_step(m, np.eye(2), np.eye(1), sol.P)
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


def test_riccati_values_past_the_float_range_diverge():
    # 1e160^2 overflows, so the values turn NaN at step 1.  NaN passed
    # the cap test `norm > cap`, and the SVD of the gain change raised
    # numpy's LinAlgError.
    with pytest.raises(Diverged, match="float range at step 1$"):
        riccati_solve(MjsModel([[[1e160]]], [[[1.0]]], [[1.0]]), EYE1, EYE1)


@pytest.mark.parametrize(
    "a, q, error, what",
    [
        # rho = 1e10: the loop is not mean-square stable.
        (1e5, 1e300, NotMss, "spectral radius"),
        # rho = 0.25, but q + L*(q) = 1.25 q passes the float range.
        (0.5, 1.5e308, DegenerateInput, "values leave the float range at step 1"),
        # L itself overflows, and so does rho.
        (1e160, 1.0, DegenerateInput, "of L from the identity overflows"),
    ],
)
def test_values_past_the_float_range_take_the_spectral_radius(a, q, error, what):
    # inf <= inf passed the value recursion's stop test, and the
    # witness's eigvalsh then raised numpy's LinAlgError.
    model = MjsModel([[[a]]], None, [[1.0]])
    with pytest.raises(error, match=what):
        closed_loop_average_cost(model, np.zeros((1, 0, 1)), [[q]], np.zeros((0, 0)), 1.0)


def riccati_value_changes(model, Q, R, steps):
    """max_i ||P_i - P_prev_i||_F over the first steps iterations of the
    symmetrized Riccati map from X = Q."""
    P, changes = np.tile(Q, (model.s, 1, 1)), []
    for _ in range(steps):
        _, P_new = riccati_step(model, Q, R, P)
        P_new = 0.5 * (P_new + P_new.transpose(0, 2, 1))
        changes.append(float(np.linalg.norm(P_new - P, axis=(1, 2)).max()))
        P = P_new
    return changes


@pytest.mark.invariant
def test_value_iteration_tail_is_monotone(rng):
    for _ in range(3):
        m = random_model(rng, s=3, n=2, p=1)
        sol = riccati_solve(m, np.eye(2), np.eye(1))
        tail = riccati_value_changes(m, np.eye(2), np.eye(1), sol.iterations)[-50:]
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
    # The second state doubles each step whatever the gain, and feeds
    # the first, so the gains keep moving while the values blow up.
    hopeless = MjsModel(
        np.array([[[2.0, 1.0], [0.0, 2.0]]]), np.array([[[1.0], [0.0]]]), np.array([[1.0]])
    )
    with pytest.raises(Diverged, match="at step 20$"):
        riccati_solve(hopeless, np.eye(2), EYE1)
    # Without inputs the loop is priced as it stands, and its radius refuses it.
    loose = MjsModel(np.array([[[2.0]]]), np.array([[[0.0]]]), np.array([[1.0]]))
    with pytest.raises(NotMss, match="radius 4.000000"):
        riccati_solve(loose, EYE1, EYE1)
    # Q = 0 leaves nothing to grow; the radius still refuses the loop.
    with pytest.raises(NotMss, match="radius 4.000000"):
        riccati_solve(loose, np.zeros((1, 1)), EYE1)


def test_singular_inner_matrix():
    # With no input anywhere no inner matrix is formed, so R = 0 is
    # harmless: the value of p = 1 + 0.25 p.
    degenerate = MjsModel(
        np.array([[[0.5]]]), np.array([[[0.0]]]), np.array([[1.0]])
    )
    sol = riccati_solve(degenerate, EYE1, np.zeros((1, 1)))
    assert sol.P[0, 0, 0] == pytest.approx(4.0 / 3.0, rel=1e-14)
    # Only mode 1 has no input, so only its inner matrix R + B' phi B
    # (with R = 0) is singular.
    B = np.array([[[1.0]], [[0.0]], [[2.0]]])
    mixed = MjsModel(np.full((3, 1, 1), 0.5), B, np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(SingularInnerMatrix, match="at mode 1$"):
        riccati_step(mixed, EYE1, np.zeros((1, 1)), np.ones((3, 1, 1)))
    with pytest.raises(SingularInnerMatrix, match="at mode 1$"):
        riccati_solve(mixed, EYE1, np.zeros((1, 1)))


def dense_values(model, Q):
    """The solution of P = Q + L*(P), L*(P)_i = A_i' sum_j T_ij P_j A_i,
    by one dense solve on row-major vectorized blocks."""
    s, n = model.s, model.n
    N = np.block(
        [[model.T[i, j] * np.kron(model.A[i].T, model.A[i].T) for j in range(s)] for i in range(s)]
    )
    v = np.linalg.solve(np.eye(s * n * n) - N, np.tile(Q.ravel(), s))
    return v.reshape(s, n, n)


@st.composite
def lqr_problems(draw):
    """(model, Q, R): a random model, stable in the mean square without
    input, with p in {0, 1, 2}, its B zeroed in about half the draws,
    and positive definite weights."""
    seed = draw(st.integers(0, 2**32 - 1))
    s, n, p = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    rng = np.random.default_rng(seed)
    model = random_model(rng, s=s, n=n, p=p, a_scale=rng.uniform(0.1, 0.9))
    if draw(st.booleans()):
        model = MjsModel(model.A, np.zeros_like(model.B), model.T)
    G, H = rng.standard_normal((n, n)), rng.standard_normal((p, p))
    return model, G @ G.T + 0.1 * np.eye(n), H @ H.T + np.eye(p)


# A loop without inputs at Q = 1e6 I: an absolute stop on the value
# change, max ||P - P_prev||_F < 1e-12, never came within reach of its
# values of about 1e6, and ran out of its 10^5 steps.
S1N3 = MjsModel(
    np.array([[[-0.1, 0.5, 0.5], [0.2, 0.2, 0.2], [-0.1, -0.4, 0.2]]]), None, np.array([[1.0]])
)


@pytest.mark.invariant
@settings(max_examples=60, deadline=None)
@example(problem=(S1N3, 1e6 * np.eye(3), np.zeros((0, 0))), j=0)
# Q = R = 2^40 I puts the scalar P near 1.2e12, past an absolute cap of 1e12.
@example(problem=(SCALAR, EYE1, EYE1), j=40)
@given(problem=lqr_problems(), j=st.integers(-40, 60))
def test_riccati_is_homogeneous_in_its_weights(problem, j):
    # Both the gain iteration and the value recursion of a loop without
    # inputs scale exactly: (c Q, c R) with c a power of two takes the
    # same steps to the same K and to c P, bit for bit.
    model, Q, R = problem
    c = 2.0**j
    base, scaled = riccati_solve(model, Q, R), riccati_solve(model, c * Q, c * R)
    assert (scaled.iterations, scaled.final_gain_delta) == (base.iterations, base.final_gain_delta)
    assert np.array_equal(scaled.K, base.K) and np.array_equal(scaled.P, c * base.P)
    if not np.any(model.B):
        want = dense_values(model, Q)
        assert np.abs(base.P - want).max() <= 1e-12 * np.abs(want).max()


def loop_riccati_operators(model, Q, R, X):
    """The gain and Riccati maps one mode at a time, kept as the
    oracle of lqr._riccati_step."""
    s, n, p = model.s, model.n, model.p
    # phi_i = sum_j T(i, j) X_j as the one product of MomentOperator.mix.
    # Each of it and the einsum sum is off the exact sum by at most
    # gamma_s (|T| |X|) (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2002, ch. 3), which the float |T| |X| underestimates by
    # at most a factor 1 - gamma_s.
    phi = (model.T @ X.reshape(s, n * n)).reshape(s, n, n)
    u = np.finfo(float).eps / 2
    gamma = s * u / (1 - s * u)
    mass = np.einsum("ij,jkl->ikl", np.abs(model.T), np.abs(X))
    assert np.all(
        np.abs(phi - np.einsum("ij,jkl->ikl", model.T, X)) <= 2 * gamma / (1 - gamma) * mass
    )
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
    return K, ricc


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
        riccati_step(model, Q, R, X),
        loop_riccati_operators(model, Q, R, X),
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
    # One gain per cluster: fewer would index past the end, and more
    # would be dropped unseen.
    for K in (K_red[:1], np.concatenate([K_red, K_red[:1]]), K_red[0, 0, 0]):
        with pytest.raises(PartitionMismatch, match="for 2 clusters"):
            lift_gains(K, part)


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


def test_monte_carlo_flags_a_state_that_overflows_without_warnings():
    # One step takes the state from 1e200 past the float range, to
    # (inf, inf - inf) = (inf, NaN); numpy warnings here are errors.
    A = 1e200 * np.array([[[1.0, 1.0], [1.0, -1.0]]])
    model = MjsModel(A, None, np.array([[1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = monte_carlo_cost(
            model, np.zeros((1, 0, 2)), np.eye(2), np.zeros((0, 0)), 0.5,
            horizon=10, n_traj=3, seed=0, x0=np.full(2, 1e200),
        )
    assert rep.diverged and rep.value == np.inf and rep.stderr is None


def loop_monte_carlo(model, K, Q, R, sigma_w, horizon, n_traj, burn_in, seed, x0):
    """Per-path, per-step reference for monte_carlo_cost, independent of
    the sampler and the rollout kernel.  It draws the same stream: the
    step uniforms first, one draw of n_traj per step, then one
    (n_traj, n) normal draw per step.  Returns (value, stderr)."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(np.vstack([model.T, model.pi]), axis=1)
    cdf = cdf / cdf[:, -1:]
    modes = np.empty((n_traj, horizon), dtype=int)
    prev = [model.s] * n_traj
    for t in range(horizon):
        u = rng.random(n_traj)
        for b in range(n_traj):
            modes[b, t] = prev[b] = int(np.searchsorted(cdf[prev[b]], u[b], side="right"))
    A_cl = [model.A[i] + model.B[i] @ K[i] for i in range(model.s)]
    stage = [Q + K[i].T @ R @ K[i] for i in range(model.s)]
    x = np.tile(np.asarray(x0, dtype=float), (n_traj, 1))
    totals = np.zeros(n_traj)
    for t in range(horizon):
        w = rng.standard_normal((n_traj, model.n))
        for b in range(n_traj):
            if t >= burn_in:
                totals[b] += x[b] @ stage[modes[b, t]] @ x[b]
            x[b] = A_cl[modes[b, t]] @ x[b] + sigma_w * w[b]
    per_traj = totals / (horizon - burn_in)
    return per_traj.mean(), per_traj.std(ddof=1) / np.sqrt(n_traj)


@pytest.mark.invariant
@settings(max_examples=40, deadline=None)
@example(seed=0, s=1, n=1, p=0, horizon=2, n_traj=2, burn_frac=0.0, sigma_w=1.0)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 5),
    n=st.integers(1, 3),
    p=st.integers(0, 2),
    # The summed steps include one past the first, so the noise spreads
    # the trajectory means and stderr is no rounding residue.
    horizon=st.integers(2, 40),
    n_traj=st.integers(2, 6),
    burn_frac=st.floats(0.0, 0.9),
    sigma_w=st.floats(0.01, 3.0),
)
def test_noisy_monte_carlo_matches_a_per_path_loop(
    seed, s, n, p, horizon, n_traj, burn_frac, sigma_w
):
    rng = np.random.default_rng(seed)
    model = random_model(rng, s=s, n=n, p=p, a_scale=rng.uniform(0.1, 0.9))
    K = 0.2 * rng.standard_normal((s, p, n))
    Q, R = np.eye(n), np.eye(p)
    x0 = rng.standard_normal(n)
    burn_in = int(burn_frac * horizon)
    rep = monte_carlo_cost(
        model, K, Q, R, sigma_w, horizon, n_traj, burn_in=burn_in, seed=seed, x0=x0
    )
    value, stderr = loop_monte_carlo(model, K, Q, R, sigma_w, horizon, n_traj, burn_in, seed, x0)
    assert not rep.diverged
    assert rep.value == pytest.approx(value, rel=1e-12)
    assert rep.stderr == pytest.approx(stderr, rel=1e-12)


def test_average_cost_requires_mss():
    loose = MjsModel(np.array([[[1.2]]]), None, np.array([[1.0]]))
    with pytest.raises(NotMss):
        closed_loop_average_cost(
            loose, np.zeros((1, 0, 1)), EYE1, np.zeros((0, 0)), 0.1
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
    # Under the optimal gain the closed-loop value matrices are the
    # Riccati solution.
    V, _, _, _ = lqr._closed_loop_values(model, sol.K, Q, R)
    x0 = np.ones(8)
    assert x0 @ V[0] @ x0 == pytest.approx(x0 @ sol.P[0] @ x0, rel=1e-9)


def plain_values(model, K, Q, R, steps):
    """The value recursion behind a spectral-radius check, as it ran
    before the witness: "NotMss" for rho >= 1, None when the steps run
    out, else (V, steps, gap).  Kept as the oracle of
    _closed_loop_values, with its stop rule: a gap of at most 1e-14
    max|V|, and a tail gap r / (1 - r) as small, r the ratio of the
    last two gaps, or a gap of at most 1e-15 max|V|."""
    A_cl, stage = lqr._closed_loop(model, K, Q, R)
    op = MomentOperator(A_cl, model.T)
    if op.rho() >= 1.0:
        return "NotMss"
    V, gaps = stage, []
    for k in range(1, steps + 1):
        new = stage + op.adjoint(V)
        gaps.append(float(np.abs(new - V).max()))
        V = new
        top, gap = float(np.abs(V).max()), gaps[-1]
        r = gap / gaps[-2] if k > 1 and gaps[-2] > 0.0 else 1.0
        tail_ok = r < 1.0 and gap * r / (1.0 - r) <= 1e-14 * top
        if gap <= 1e-14 * top and (tail_ok or gap <= 1e-15 * top):
            return V, k, gap
    return None


# Enough steps for rho = 0.999 to settle, few enough to keep a loop at
# rho = 1.0 (whose float rho may land just below 1) quick.
PROPERTY_STEPS = 30_000


@pytest.mark.invariant
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 4),
    n=st.integers(1, 3),
    p=st.integers(0, 2),
    radius=st.sampled_from([0.5, 0.9, 0.99, 0.999, 1.0, 1.001, 1.1]),
    stage=st.sampled_from(["definite", "singular", "hidden"]),
)
def test_witness_accepts_only_mean_square_stable_loops(seed, s, n, p, radius, stage):
    # Random closed loops scaled to a dense mean-square radius.  Q is
    # positive definite or has a zero eigenvalue, and with p = 0 that Q
    # is the whole stage.  "hidden" decouples the last state and leaves
    # it unpriced, so the values can settle on a loop that its last
    # state makes unstable: there the witness alone must refuse.
    rng = np.random.default_rng(seed)
    T = rng.dirichlet(np.ones(s), size=s)
    A = rng.standard_normal((s, n, n))
    B = rng.standard_normal((s, n, p))
    K = rng.standard_normal((s, p, n))
    G = rng.standard_normal((n, n))
    Q = G @ G.T + 0.1 * np.eye(n) if stage == "definite" else G[:, 1:] @ G[:, 1:].T
    if stage == "hidden":
        A[:, -1, :-1] = A[:, :-1, -1] = B[:, -1] = K[:, :, -1] = 0.0
        Q = G @ G.T + 0.1 * np.eye(n)
        Q[-1] = Q[:, -1] = 0.0
    # L scales with the square of the modes.
    scale = np.sqrt(radius / MomentOperator(A + B @ K, T).rho())
    model, K = MjsModel(scale * A, B, T), scale * K
    H = rng.standard_normal((p, p))
    R = H @ H.T + np.eye(p)
    # The very closed loop that lqr builds: at rho = 1.0 another
    # rounding of A + B K can land rho() on the other side of 1.
    rho = MomentOperator(lqr._closed_loop(model, K, Q, R)[0], T).rho()
    want = plain_values(model, K, Q, R, PROPERTY_STEPS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lqr, "FIXED_POINT_STEPS", PROPERTY_STEPS)
        try:
            V, k, gap, proof = lqr._closed_loop_values(model, K, Q, R)
        except NotMss as e:
            assert rho >= 1.0 and want == "NotMss"
            assert f"{rho:.6f}" in str(e)
            return
        except NotConverged:
            assert rho < 1.0 and want is None
            return
    assert rho < 1.0 and proof in ("witness", "rho")
    assert np.array_equal(V, want[0]) and (k, gap) == want[1:]


def count_rho_calls(monkeypatch) -> list:
    calls = []
    rho = MomentOperator.rho

    def counted(op):
        calls.append(op.dim)
        return rho(op)

    monkeypatch.setattr(MomentOperator, "rho", counted)
    return calls


def test_regulate_size_loops_certify_without_rho(monkeypatch):
    # The s = 36, n = 4 cell of the regulate benchmark: both the
    # optimal and the lifted reduced gains are proved by their witness.
    model, _, _ = generate(
        SynthConfig(36, 12, 4, 2, eps_A=64.8, eps_B=64.8, eps_T=129.6, seed=11)
    )
    Q, R = np.eye(4), np.eye(2)
    red = reduce_model(model, 12, branch="aggregatable", seed=11)
    gains = (
        riccati_solve(model, Q, R).K,
        lift_gains(riccati_solve(red.reduced, Q, R).K, red.partition),
    )
    calls = count_rho_calls(monkeypatch)
    for K in gains:
        rep = closed_loop_average_cost(model, K, Q, R, 0.3)
        assert rep.proof == "witness" and rep.value > 0.0
    assert calls == []


@pytest.mark.parametrize("a", [0.6, 1.2], ids=["stable", "unstable"])
def test_semidefinite_stage_takes_one_rho(monkeypatch, a):
    # Q = diag(1, 0) leaves the decoupled second state x' = a x
    # unpriced: the values settle either way, W - L*(W) is singular,
    # and rho decides, here 0.36 or 1.44.
    model = MjsModel(
        np.array([[[0.5, 0.0], [0.0, a]], [[0.2, 0.0], [0.0, -a]]]),
        None,
        np.array([[0.7, 0.3], [0.4, 0.6]]),
    )
    calls = count_rho_calls(monkeypatch)

    def cost():
        return closed_loop_average_cost(
            model, np.zeros((2, 0, 2)), np.diag([1.0, 0.0]), np.zeros((0, 0)), 0.3
        )

    if a < 1.0:
        assert cost().proof == "rho"
    else:
        with pytest.raises(NotMss, match="radius 1.440000"):
            cost()
    assert len(calls) == 1


def test_unstable_loop_stops_early(monkeypatch):
    # a^2 = 1.2: the values grow by 1.2 a step and pass WITNESS_GROWTH
    # after about 150 steps; then rho ends the recursion.
    loose = MjsModel(np.array([[[np.sqrt(1.2)]]]), None, np.array([[1.0]]))
    steps = []
    adjoint = MomentOperator.adjoint

    def counted(op, V):
        steps.append(1)
        return adjoint(op, V)

    monkeypatch.setattr(MomentOperator, "adjoint", counted)
    calls = count_rho_calls(monkeypatch)
    with pytest.raises(NotMss, match="radius 1.200000"):
        closed_loop_average_cost(loose, np.zeros((1, 0, 1)), EYE1, np.zeros((0, 0)), 0.1)
    assert len(calls) == 1
    assert len(steps) < 200 < lqr.WITNESS_STEPS < lqr.FIXED_POINT_STEPS


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

    noise = sigma_w**2 * model.pi[:, None, None] * np.eye(n)
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
@example(seed=12480551, s=1, n=2, p=0, zeros=True, radius=0.9)
def test_costs_match_the_dense_moment_solve(seed, s, n, p, zeros, radius):
    # The closed-loop modes are scaled to 2-norm at most radius, which
    # bounds the mean-square spectral radius rho by radius^2.  The value
    # recursion stops once a step moves V by at most 1e-14 of its
    # largest entry and the tail it leaves unsummed is estimated as
    # small.  On the pinned example (rho = 0.76) a stop on the step
    # alone left 4.7e-14 of V unsummed, and the pairing with x0 was off
    # by 1.1e-13.
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
    # The value matrices themselves, paired with the state x0 drawn
    # from the law init.
    V, _, _, _ = lqr._closed_loop_values(model, K, Q, R)
    got = float(np.einsum("i,j,ijk,k->", init, x0, V, x0))
    assert abs(got - total) <= 1e-13 * abs(total)


def test_cost_inputs_are_refused():
    sol = riccati_solve(SCALAR, EYE1, EYE1)
    run = dict(horizon=10, n_traj=2, seed=0)
    for bad, error in (
        (dict(run, burn_in=10), InputError),
        (dict(run, burn_in=12), InputError),
        (dict(run, burn_in=-1), InputError),
        # Summed steps 3..9 but divided by 7.5.
        (dict(run, burn_in=2.5), DimensionMismatch),
        (dict(run, burn_in=True), DimensionMismatch),
        (dict(run, n_traj=0), InputError),
        # Checked before burn_in < horizon, which would end in a TypeError.
        (dict(run, horizon=None), DimensionMismatch),
        (dict(run, horizon="10"), DimensionMismatch),
        (dict(run, n_traj=None), DimensionMismatch),
    ):
        with pytest.raises(error):
            monte_carlo_cost(SCALAR, sol.K, EYE1, EYE1, 0.3, **bad)
    for x0 in (np.ones(2), np.ones((1, 1))):
        with pytest.raises(DimensionMismatch, match="x0"):
            monte_carlo_cost(SCALAR, sol.K, EYE1, EYE1, 0.3, x0=x0, **run)


@pytest.mark.parametrize(
    "Q, R, words",
    [(np.eye(3), np.eye(1), r"Q must be 2 x 2, got \(3, 3\)"), (np.eye(2), np.eye(2), r"R must be 1 x 1, got \(2, 2\)")],
    ids=["Q", "R"],
)
def test_weights_of_the_wrong_shape_are_refused(rng, Q, R, words):
    with pytest.raises(DimensionMismatch, match=words):
        riccati_solve(random_model(rng, s=3, n=2, p=1), Q, R)


def test_gains_of_the_wrong_shape_are_refused(rng):
    model = random_model(rng, s=3, n=2, p=1)
    with pytest.raises(DimensionMismatch, match=r"gains must have shape \(3, 1, 2\), got \(3, 2, 1\)"):
        closed_loop_average_cost(model, np.zeros((3, 2, 1)), np.eye(2), np.eye(1), 0.1)


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
