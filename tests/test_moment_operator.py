"""The matrix-free second-moment operator against its dense oracle.

augmented_matrix builds the (s n^2) x (s n^2) matrix of the same
operator block by block; MomentOperator must agree with it on apply,
adjoint and spectral radius, on every path rho() can take: dense,
ARPACK, the vanishing check and the dense fallback after an ARPACK
failure.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

import mjsreduce.stability as stability
from mjsreduce.errors import NotConverged
from mjsreduce.model import MjsModel
from mjsreduce.stability import (
    DENSE_RHO_MAX,
    MomentOperator,
    augmented_matrix,
    spectral_radius,
)

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
    aug = augmented_matrix(MjsModel(A, None, T), cap=10**5)
    return spectral_radius(aug, cap=aug.shape[0])


def assert_rel_close(got, want, rtol=1e-9):
    assert abs(got - want) <= rtol * abs(want), (got, want)


def arpack_fails(*args, **kwargs):
    raise ArpackNoConvergence("forced failure", np.empty(0), np.empty((0, 0)))


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


def test_arpack_failure_above_cap_retries_shifted(monkeypatch):
    # The cyclic chain defeats plain ARPACK; above the (lowered) cap the
    # retry on L + c I must answer without the dense eig.
    rng = np.random.default_rng(0)
    A, T = draw_modes(rng, 12, 3), draw_chain(rng, 12, "periodic")
    monkeypatch.setattr(stability, "DEFAULT_SIZE_CAP", 100)
    monkeypatch.setattr(
        MomentOperator, "_dense_rho", mock.Mock(side_effect=AssertionError("dense eig used"))
    )
    spy = mock.Mock(side_effect=stability.eigs)
    monkeypatch.setattr(stability, "eigs", spy)
    rho = MomentOperator(A, T).rho()
    assert spy.call_count == 2
    assert_rel_close(rho, dense_rho(A, T))


def test_long_periodic_chain_gets_its_radius():
    # A cyclic chain of period 60 has 60 eigenvalues of modulus rho, and
    # ARPACK with k = 1 gives up on it; the dense fallback must answer.
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
