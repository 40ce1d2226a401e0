"""The matrix-free second-moment operator against its dense oracle.

augmented_matrix builds the (s n^2) x (s n^2) matrix of the same
operator from its stack of mode krons, and must equal the block-by-block
construction kept here; MomentOperator must agree with it on apply,
adjoint, its restriction to symmetric stacks, spectral radius and tau,
on every path rho() can take: dense, one ARPACK run for the rightmost
eigenvalue, the vanishing check and the dense fallback after an ARPACK
failure; above the cap, tau must bound the dense sweep from above, and
on small operators the exact norms of its powers.  The skew stacks,
built here, split L block diagonally with the symmetric ones, and with
T >= 0 their block never has the larger norm, which is why tau steps
the symmetric one alone.
MomentOperator refuses a T with an entry that is not >= 0.
"""

import itertools
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

import mjsreduce.stability as stability
from mjsreduce.errors import InputError, NotConverged
from mjsreduce.lqr import closed_loop_average_cost
from mjsreduce.model import MjsModel
from mjsreduce.stability import (
    ARPACK_PLAIN_RESTARTS,
    ARPACK_RESTARTS,
    DENSE_RHO_MAX,
    MomentOperator,
    augmented_matrix,
    default_level,
    spectral_radius,
    stability_report,
)
from test_stability import full_tau_sweep

CHAINS = ("ergodic", "two_classes", "transient", "periodic")


def draw_chain(rng, s, chain):
    if chain == "ergodic":
        return rng.dirichlet(np.ones(s), size=s)
    if chain == "two_classes":  # reducible: two closed classes
        T = np.zeros((s, s))
        h = max(s // 2, 1)
        T[:h, :h] = rng.dirichlet(np.ones(h), size=h)
        if s > h:
            T[h:, h:] = rng.dirichlet(np.ones(s - h), size=s - h)
        return T
    if chain == "transient":  # reducible: upper triangular, last mode absorbing
        T = np.triu(rng.random((s, s)) + 0.01)
        return T / T.sum(axis=1, keepdims=True)
    return np.roll(np.eye(s), 1, axis=1)  # periodic with period s


def draw_modes(rng, s, n):
    return rng.standard_normal((s, n, n)) * rng.uniform(0.1, 1.0) / np.sqrt(n)


def dense_rho(A, T):
    # Uncapped: built from this file's block loop, not augmented_matrix.
    return float(np.abs(np.linalg.eigvals(loop_augmented_matrix(A, T))).max())


def assert_rel_close(got, want, rtol=1e-9):
    assert abs(got - want) <= rtol * abs(want), (got, want)


def arpack_fails(*args, **kwargs):
    raise ArpackNoConvergence("forced failure", np.empty(0), np.empty((0, 0)))


def halves(n):
    """Orthonormal bases of the symmetric and of the skew n x n
    matrices, flattened row-major: the first from _symmetric_basis, the
    second with columns (e_ab - e_ba) / sqrt(2) for a < b, empty for
    n = 1."""
    a, b = np.triu_indices(n, 1)
    skew = np.zeros((n * n, len(a)))
    skew[a * n + b, np.arange(len(a))] = np.sqrt(0.5)
    skew[b * n + a, np.arange(len(a))] = -np.sqrt(0.5)
    return stability._symmetric_basis(n), skew


def loop_augmented_matrix(A, T):
    """augmented_matrix block by block, one kron per mode, kept as its
    oracle: block (i, j) is T(j, i) kron(A_j, A_j), zero where T is."""
    s, m = A.shape[0], A.shape[1] ** 2
    out = np.zeros((s * m, s * m))
    for j in range(s):
        K = np.kron(A[j], A[j])
        for i in range(s):
            if T[j, i] != 0.0:
                out[i * m : (i + 1) * m, j * m : (j + 1) * m] = T[j, i] * K
    return out


@pytest.mark.invariant
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 8),
    n=st.integers(1, 4),
    chain=st.sampled_from(CHAINS),
)
def test_augmented_matrix_equals_the_block_loop(seed, s, n, chain):
    # Every entry is one product T(j, i) A_j[a, b] A_j[c, d] either way;
    # zero transitions give zeros that may carry a sign, equal as numbers.
    rng = np.random.default_rng(seed)
    A, T = draw_modes(rng, s, n), draw_chain(rng, s, chain)
    got = augmented_matrix(MjsModel(A, None, T))
    assert got.flags.c_contiguous
    assert np.array_equal(got, loop_augmented_matrix(A, T))


@pytest.mark.invariant
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 8),
    n=st.integers(1, 4),
    chain=st.sampled_from(CHAINS),
)
def test_apply_and_adjoint_are_the_augmented_matrix(seed, s, n, chain):
    rng = np.random.default_rng(seed)
    A, T = draw_modes(rng, s, n), draw_chain(rng, s, chain)
    aug = augmented_matrix(MjsModel(A, None, T))
    op = MomentOperator(A, T)
    X = rng.standard_normal((s, n, n))  # not symmetric: the full space
    atol = 1e-12 * max(1.0, float(np.abs(aug).max())) * float(np.abs(X).max())
    np.testing.assert_allclose(op.apply(X).ravel(), aug @ X.ravel(), rtol=1e-12, atol=atol)
    np.testing.assert_allclose(op.adjoint(X).ravel(), aug.T @ X.ravel(), rtol=1e-12, atol=atol)


@pytest.mark.invariant
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 8),
    n=st.integers(1, 4),
    chain=st.sampled_from(CHAINS),
)
def test_apply_is_the_augmented_matrix_to_rounding(seed, s, n, chain):
    # Both sides sum the same s n^2 products; each is off the exact sum
    # by a few units of rounding of the sum of their moduli.
    rng = np.random.default_rng(seed)
    A, T = draw_modes(rng, s, n), draw_chain(rng, s, chain)
    aug = augmented_matrix(MjsModel(A, None, T))
    X = rng.standard_normal((s, n, n))
    scale = np.abs(aug) @ np.abs(X.ravel())
    err = np.abs(MomentOperator(A, T).apply(X).ravel() - aug @ X.ravel())
    assert np.all(err <= 1e-14 * scale), float((err / np.maximum(scale, 1e-300)).max())


@pytest.mark.invariant
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 8),
    n=st.integers(1, 4),
    chain=st.sampled_from(CHAINS),
)
def test_restrictions_split_the_augmented_matrix(seed, s, n, chain):
    # kron(A_j, A_j) commutes with the transpose of an n x n block, so L
    # keeps symmetric and skew stacks apart: in the orthonormal basis
    # [Q_sym Q_skew] the augmented matrix is block diagonal, and its
    # symmetric block is the kernel the exact tau sweep steps.
    rng = np.random.default_rng(seed)
    A, T = draw_modes(rng, s, n), draw_chain(rng, s, chain)
    aug = augmented_matrix(MjsModel(A, None, T))
    m = n * n
    transpose = np.arange(s * m).reshape(s, n, n).transpose(0, 2, 1).ravel()
    assert np.array_equal(aug[transpose][:, transpose], aug)

    sym, skew = (np.kron(np.eye(s), Q) for Q in halves(n))
    assert sym.shape[1] == s * n * (n + 1) // 2 and skew.shape[1] == s * n * (n - 1) // 2
    basis = np.hstack([sym, skew])
    np.testing.assert_allclose(basis.T @ basis, np.eye(s * m), atol=1e-15)
    atol = 1e-14 * max(1.0, float(np.abs(aug).max())) * m
    for cross in (sym.T @ aug @ skew, skew.T @ aug @ sym):
        np.testing.assert_allclose(cross, 0.0, atol=atol)

    step, identity = MomentOperator(A, T)._restriction()
    np.testing.assert_allclose(step(identity), sym.T @ aug @ sym, rtol=1e-12, atol=atol)


@pytest.mark.invariant
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 6),
    n=st.integers(1, 4),
    chain=st.sampled_from(CHAINS),
    k_max=st.integers(0, 30),
)
@example(seed=4, s=3, n=1, chain="ergodic", k_max=12)  # no skew half
def test_operator_tau_matches_dense_sweep(seed, s, n, chain, k_max):
    # Powers of the symmetric restriction of L, in an orthonormal
    # basis, have the norms of M^k = P @ M up to rounding, and the sweep
    # takes each norm from the Gram, at most the stated lift above it.
    rng = np.random.default_rng(seed)
    A, T = draw_modes(rng, s, n), draw_chain(rng, s, chain)
    aug = augmented_matrix(MjsModel(A, None, T))
    rho = default_level(spectral_radius(aug))
    est = MomentOperator(A, T).tau(rho, k_max)
    want, arg = full_tau_sweep(aug, rho, k_max)
    lift = stability._norm_lift(s * n * (n + 1) // 2) + 1e-12
    assert est.exact
    assert want * (1.0 - 1e-12) <= est.value <= want * (1.0 + lift)
    powers = itertools.accumulate([aug] * k_max, np.matmul)
    g = sorted([1.0] + [np.linalg.norm(P, 2) / rho**k for k, P in enumerate(powers, start=1)])
    if len(g) == 1 or g[-1] - g[-2] > lift * g[-1]:
        assert est.argmax_k == arg


@pytest.mark.invariant
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 6),
    n=st.integers(2, 4),
    chain=st.sampled_from(CHAINS + ("nonnegative",)),
    k_max=st.integers(1, 10),
)
def test_skew_block_never_sets_the_norm_when_T_is_nonnegative(seed, s, n, chain, k_max):
    # With T >= 0, L^k* L^k is a positive map whose top eigenvector is
    # PSD, so the symmetric block of every power is the larger one, and
    # tau steps it alone.  "nonnegative" draws a T that is not
    # stochastic, with zeros.
    rng = np.random.default_rng(seed)
    A = draw_modes(rng, s, n)
    if chain == "nonnegative":
        T = rng.random((s, s)) * (rng.random((s, s)) < 0.7) * rng.uniform(0.1, 2.0)
    else:
        T = draw_chain(rng, s, chain)
    aug = loop_augmented_matrix(A, T)
    sym, skew = (np.kron(np.eye(s), Q) for Q in halves(n))
    P = np.eye(len(aug))
    for _ in range(k_max):
        P = P @ aug
        top_sym = np.linalg.norm(sym.T @ P @ sym, 2)
        assert np.linalg.norm(skew.T @ P @ skew, 2) <= top_sym * (1.0 + 1e-13)


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_signed_T_is_refused(bad):
    # The mean-square theory needs a positive L, so T >= 0.  On this
    # signed T the dense radius is 2 and ||L^k|| = 2^k, but L(I) = 0,
    # so the vanishing check would put rho at 0 and the matrix-free
    # power bounds at 0, and the model would pass as mean-square stable.
    A, B = np.ones((3, 1, 1)), np.ones((3, 1, 1))
    T = np.array([[1.0, bad, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    if bad == -1.0:
        assert spectral_radius(loop_augmented_matrix(A, T)) == 2.0
    with pytest.raises(InputError, match=r"T\(0,1\) = (-1.0|nan) is not >= 0"):
        MomentOperator(A, T)
    with pytest.raises(InputError):
        stability_report(MjsModel(A, None, T))
    with pytest.raises(InputError):
        closed_loop_average_cost(MjsModel(A, B, T), np.zeros((3, 1, 1)), np.eye(1), np.eye(1), 0.1)


def test_a_chain_with_a_signed_row_is_refused_as_a_model_and_as_raw_arrays():
    # Row 1 sums to 1 but has a negative entry, so it is no chain.  The
    # model refuses it, so no simulator, kernel walk or Riccati solve
    # can receive it, and MomentOperator refuses it as raw arrays.
    A = np.stack([0.5 * np.eye(2), 0.9 * np.eye(2)])
    T = np.array([[0.6, 0.4], [1.05, -0.05]])
    with pytest.raises(InputError, match=r"^invalid model: T\(1,1\) = -0.05 is negative$"):
        MjsModel(A, np.ones((2, 2, 1)), T)
    with pytest.raises(InputError, match=r"T\(1,1\) = -0.05 is not >= 0"):
        MomentOperator(A, T)


def test_rho_of_a_substochastic_T_takes_the_dense_path():
    # L is linear in T, so halving T halves rho; such a T is no model's,
    # and the dense path builds the operator from the raw arrays.
    rng = np.random.default_rng(5)
    A, T = draw_modes(rng, 3, 2), draw_chain(rng, 3, "ergodic")
    half = MomentOperator(A, 0.5 * T)
    assert half.dim <= DENSE_RHO_MAX
    with mock.patch.object(stability, "eigs", side_effect=AssertionError("ARPACK ran")):
        got = half.rho()
    assert_rel_close(got, dense_rho(A, 0.5 * T), rtol=1e-12)
    assert_rel_close(got, 0.5 * dense_rho(A, T), rtol=1e-12)


def exact_power_norms(A, T, k_max):
    """||L^k||_2 for k = 1..k_max in 60-digit mpmath, from the operator
    built entry by entry from the float A and T as loop_augmented_matrix
    lays it out.  Each entry is an exact product of three doubles, so
    the norms are off the exact ones by far less than a float rounding."""
    s, n = A.shape[0], A.shape[1]
    m = n * n
    with mpmath.workdps(60):
        M = mpmath.zeros(s * m, s * m)
        for i, j, a, b, c, d in itertools.product(range(s), range(s), *[range(n)] * 4):
            M[i * m + a * n + c, j * m + b * n + d] = (
                mpmath.mpf(T[j, i]) * mpmath.mpf(A[j, a, b]) * mpmath.mpf(A[j, c, d])
            )
        P, norms = mpmath.eye(s * m), []
        for _ in range(k_max):
            P = P * M
            top = max(mpmath.eigsy(P.T * P, eigvals_only=True))
            norms.append(float(mpmath.sqrt(max(top, 0))))
    return norms


@pytest.mark.invariant
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 6),
    n=st.integers(1, 3),
    chain=st.sampled_from(CHAINS),
    k_max=st.integers(1, 30),
)
@example(seed=1306, s=2, n=2, chain="periodic", k_max=30)
def test_tau_above_cap_bounds_the_dense_sweep(seed, s, n, chain, k_max):
    # L^k is completely positive, so sqrt(||L^k(I)|| ||L*^k(I)||) in the
    # largest block 2-norm bounds ||M^k||_2 from above at every k.  On
    # the pinned periodic chain that bound is tight, and float powers of
    # M are off the exact norm by up to 6.8e-11 at k = 20, so up to
    # 8 x 8 the norms come from exact_power_norms.
    rng = np.random.default_rng(seed)
    A, T = draw_modes(rng, s, n), draw_chain(rng, s, chain)
    aug = augmented_matrix(MjsModel(A, None, T))
    rho = default_level(spectral_radius(aug))
    if aug.shape[0] <= 8:
        norms = exact_power_norms(A, T, k_max)
    else:
        powers = itertools.accumulate([aug] * k_max, np.matmul)
        norms = [float(np.linalg.norm(P, 2)) for P in powers]
    op = MomentOperator(A, T)
    for (bound, _), norm in zip(op._power_bounds(k_max), norms, strict=True):
        assert bound >= norm * (1.0 - 1e-12)
    with mock.patch.object(stability, "DEFAULT_SIZE_CAP", 0):
        est = op.tau(rho, k_max)
    assert not est.exact
    swept = max([1.0] + [norm / rho**k for k, norm in enumerate(norms, start=1)])
    assert est.value >= swept * (1.0 - 1e-12)


@pytest.mark.invariant
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 16),
    n=st.integers(1, 4),
    chain=st.sampled_from(CHAINS),
)
def test_rho_matches_dense_oracle(seed, s, n, chain):
    rng = np.random.default_rng(seed)
    A, T = draw_modes(rng, s, n), draw_chain(rng, s, chain)
    assert_rel_close(MomentOperator(A, T).rho(), dense_rho(A, T))


def cyclic_chain(rng, s, p):
    """A chain of period p on s >= p modes: mode i moves only to modes
    j with j = i + 1 (mod p), with random positive weights."""
    cls = np.arange(s) % p
    T = (cls[None, :] == (cls[:, None] + 1) % p) * (rng.random((s, s)) + 0.01)
    return T / T.sum(axis=1, keepdims=True)


@pytest.mark.invariant
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    chain=st.sampled_from(CHAINS + ("cyclic",)),
    period=st.integers(2, 20),
)
def test_rho_above_dense_size_is_one_rightmost_run(seed, n, chain, period):
    # Above DENSE_RHO_MAX rho is one ARPACK run for the rightmost
    # eigenvalue.  On a cyclic chain of period p <= 20 with nonnegative
    # modes, L is an irreducible nonnegative matrix whose eigenvalues of
    # modulus rho are the simple rho exp(2 pi i k / p) (Perron-Frobenius):
    # a run for the largest modulus cannot tell them apart, but in real
    # part the nearest lies rho (1 - cos(2 pi / p)) below rho, and the
    # rightmost run converges without the dense eig (over 4 000 draws of
    # such chains it took at most 10 restarts, while a run for the
    # largest modulus failed on 60-80% of those of period 11-20).  Signed modes
    # can put other eigenvalues within any distance of rho in real part;
    # the dense eig may then answer.
    rng = np.random.default_rng(seed)
    low = DENSE_RHO_MAX // n**2 + 1
    s = int(rng.integers(low, 2 * low + 1))
    if chain == "cyclic":
        s = max(s, period)
        A, T = np.abs(draw_modes(rng, s, n)), cyclic_chain(rng, s, period)
    else:
        A, T = draw_modes(rng, s, n), draw_chain(rng, s, chain)
    spy = mock.Mock(side_effect=stability.eigs)
    with mock.patch.object(stability, "eigs", spy), mock.patch.object(
        MomentOperator, "_dense_rho", autospec=True, side_effect=MomentOperator._dense_rho
    ) as dense:
        rho = MomentOperator(A, T).rho()
    assert_rel_close(rho, dense_rho(A, T))
    spy.assert_called_once()
    assert spy.call_args.kwargs["which"] == "LR"
    assert spy.call_args.kwargs["maxiter"] == ARPACK_PLAIN_RESTARTS
    if chain == "cyclic":
        dense.assert_not_called()


@pytest.mark.parametrize("n", [3, 9, 11])
def test_single_mode_rho_is_square_of_mode_radius(n):
    # n = 3 takes the dense path, n = 9 and 11 (dim 81, 121) ARPACK.
    rng = np.random.default_rng(n)
    A = rng.standard_normal((1, n, n))
    T = np.ones((1, 1))
    rho = MomentOperator(A, T).rho()
    assert_rel_close(rho, dense_rho(A, T))
    assert_rel_close(rho, float(np.abs(np.linalg.eigvals(A[0])).max()) ** 2)


@pytest.mark.parametrize("kind", ["zero", "nilpotent"])
@pytest.mark.parametrize("s, n", [(20, 2), (8, 3), (5, 4), (3, 6)])
def test_vanishing_operator_has_radius_exactly_zero(kind, s, n):
    # Eigensolvers return rounding noise here (ARPACK gave up to 3e-4 for
    # strictly triangular 6 x 6 modes), so neither may be consulted.
    assert s * n * n > DENSE_RHO_MAX
    rng = np.random.default_rng(s)
    A = np.zeros((s, n, n)) if kind == "zero" else np.triu(rng.standard_normal((s, n, n)), 1)
    T = rng.dirichlet(np.ones(s), size=s)
    with mock.patch.object(stability, "eigs", arpack_fails), mock.patch.object(
        stability, "spectral_radius", side_effect=AssertionError("dense eig used")
    ):
        assert MomentOperator(A, T).rho() == 0.0


@pytest.mark.invariant
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(5, 14),
    n=st.integers(4, 5),
    chain=st.sampled_from(CHAINS),
)
def test_arpack_failure_falls_back_to_dense(seed, s, n, chain):
    rng = np.random.default_rng(seed)
    A, T = draw_modes(rng, s, n), draw_chain(rng, s, chain)
    assert s * n * n > DENSE_RHO_MAX
    with mock.patch.object(stability, "eigs", arpack_fails):
        rho = MomentOperator(A, T).rho()
    assert rho == spectral_radius(augmented_matrix(MjsModel(A, None, T)))


def test_arpack_failure_above_cap_raises(monkeypatch):
    rng = np.random.default_rng(3)
    A, T = draw_modes(rng, 12, 3), draw_chain(rng, 12, "ergodic")
    monkeypatch.setattr(stability, "eigs", arpack_fails)
    monkeypatch.setattr(stability, "DEFAULT_SIZE_CAP", 100)
    with pytest.raises(NotConverged):
        MomentOperator(A, T).rho()


def test_cyclic_chain_above_cap_takes_one_rightmost_run(monkeypatch):
    # The cyclic chain gives 12 eigenvalues of modulus rho, which defeat
    # a run for the largest modulus; rho is the only rightmost one, and
    # above the (lowered) cap one run with the large budget must answer
    # without the dense eig.
    rng = np.random.default_rng(0)
    A, T = draw_modes(rng, 12, 3), draw_chain(rng, 12, "periodic")
    monkeypatch.setattr(stability, "DEFAULT_SIZE_CAP", 100)
    monkeypatch.setattr(
        MomentOperator, "_dense_rho", mock.Mock(side_effect=AssertionError("dense eig used"))
    )
    spy = mock.Mock(side_effect=stability.eigs)
    monkeypatch.setattr(stability, "eigs", spy)
    rho = MomentOperator(A, T).rho()
    spy.assert_called_once()
    assert spy.call_args.kwargs["which"] == "LR"
    assert spy.call_args.kwargs["maxiter"] == ARPACK_RESTARTS
    assert_rel_close(rho, dense_rho(A, T))


@pytest.mark.parametrize("chain", ["ergodic", "two_classes", "transient"])
def test_plain_restart_budget_keeps_rho(chain):
    # Where the plain run converges, a larger budget changes nothing.
    rng = np.random.default_rng(7)
    A, T = draw_modes(rng, 24, 3), draw_chain(rng, 24, chain)
    rho = MomentOperator(A, T).rho()
    with mock.patch.object(stability, "ARPACK_PLAIN_RESTARTS", ARPACK_RESTARTS):
        assert MomentOperator(A, T).rho() == rho


def test_long_periodic_chain_gets_its_radius():
    # A cyclic chain of period 60 has 60 eigenvalues of modulus rho, whose
    # real parts crowd towards rho, and the rightmost run gives up within
    # ARPACK_PLAIN_RESTARTS; the dense fallback must answer.
    rng = np.random.default_rng(0)
    A, T = draw_modes(rng, 60, 4), draw_chain(rng, 60, "periodic")
    dense = MomentOperator._dense_rho
    with mock.patch.object(
        MomentOperator, "_dense_rho", autospec=True, side_effect=dense
    ) as spy:
        rho = MomentOperator(A, T).rho()
    spy.assert_called_once()
    assert_rel_close(rho, dense_rho(A, T))


def test_rho_is_reproducible():
    rng = np.random.default_rng(5)
    A, T = draw_modes(rng, 30, 3), draw_chain(rng, 30, "ergodic")
    first = MomentOperator(A, T).rho()
    MomentOperator(A[::-1], T).rho()  # ARPACK state between calls
    assert MomentOperator(A, T).rho() == first
