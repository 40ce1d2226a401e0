"""Mean-square and uniform stability analysis.

This module is the operator math of one jump system and imports only
model and errors; comparing a reduction with its original
(stability_comparison) belongs to bounds.

The mean-square side works through the second-moment operator

    L(X)_i = sum_j T(j, i) A_j X_j A_j'

on stacks of s symmetric n x n blocks (Costa, Fragoso & Marques,
Discrete-Time Markov Jump Linear Systems, 2005, ch. 3).  Its spectral
radius below one is equivalent to mean-square stability.  T is the
transition matrix of a Markov chain, so T >= 0, and L is then a
positive map; every result below rests on that, and MomentOperator
refuses a T with an entry that is not >= 0 (InputError).
MomentOperator applies L and its adjoint matrix-free, in
O(s n^3 + s^2 n^2) per step, and takes the spectral radius with one
ARPACK run on a LinearOperator, so the mean-square checks have no size
cap.  L is positive, so rho is an eigenvalue (Vandergraft, SIAM J.
Appl. Math. 16, 1968) and the only one of real part rho: the run asks
for the rightmost eigenvalue, a single target even on a periodic chain
with many eigenvalues of modulus rho.

The transient constant tau = sup_k ||L^k||_2 / rho^k is swept on dense
powers of L, taking the 2-norm of a power only where a cheap upper
bound could still raise the running maximum; each part of that bound,
and of the norm, is paid for only where it can change a decision of
the sweep (_sweep).  That norm is the root of the top eigenvalue of
the power's Gram, from one LAPACK dsyevr call, lifted by a stated bound
on the rounding of the Gram and of the eigensolver, so that tau stays
an upper bound; the call is skipped where the Gram's Frobenius norm
already keeps the power below the running maximum (_gram_norm).  L maps
symmetric stacks to symmetric stacks and skew stacks to skew stacks, since
kron(A_j, A_j) commutes with the transpose and T only mixes blocks; in
an orthonormal basis of each half, every power of L is block diagonal
(the symmetric Kronecker product of Alizadeh, Haeberly & Overton, SIAM
J. Optim. 8, 1998, and its skew counterpart), and an orthogonal change
of basis keeps the 2-norm.  With T >= 0 the symmetric block, of
s n(n+1)/2 rows, has the larger norm: L^k is a positive map, so is
L^k* L^k, and the top eigenvector of a positive map is positive
semidefinite (Evans & Hoegh-Krohn, J. London Math. Soc. 17, 1978; see
MomentOperator._restriction).  The exact sweep steps the symmetric
restriction alone, at n = 4 about a quarter of the flops of the full
power.  Above DEFAULT_SIZE_CAP no dense power is formed: L^k is
completely positive, so ||L^k||_2 <= sqrt(||L^k(I)|| ||L*^k(I)||) in
the largest block 2-norm, and tau is reported as that upper bound,
with a running bound on the rounding of the iterates added.  Each
sweep runs on its operator times the power of two that puts its level
in [1/2, 1): that scaling is exact, and the level's powers stay normal
for the at most SWEEP_STEPS_MAX steps a sweep may take.

The dense form of L is the augmented (s n^2) x (s n^2) block matrix
whose (i, j) block is T(j, i) * kron(A_j, A_j), built from the same
stack of mode krons that the restriction compresses.  It is kept as the
fallback of MomentOperator.rho when ARPACK fails and as the oracle the
tests compare the operator against; it is capped at DEFAULT_SIZE_CAP.
tau_estimate takes any such matrix and sweeps its powers directly.

The uniform side walks the mode products once.  jsr_bounds enumerates
them level by level, each level one stacked matmul of the kept prefixes
with every mode, and keeps the largest 2-norm m_k of each level.  It
prunes only prefixes whose every extension stays below lower^k, while
m_k >= JSR^k >= lower^k, so these maxima are exact.  kappa_estimate
reads them as kappa = sup_k m_k / xi^k.  The walk brackets every
product's 2-norm between cheap bounds and takes the exact, batched
2-norm only where the bracket leaves the level maximum or the prune
open, and eigenvalues, in one batched call per level, only where the
norm could still raise the lower bound; numpy's batched linear algebra
works matrix by matrix, so the bounds are the exact walk's, bit for bit.

One sweep serves both constants.  g(k) = ||L^k|| / rho^k and
g(k) = m_k / xi^k are submultiplicative (Jungers, The Joint Spectral
Radius, 2009, ch. 2), so one swept K with g(K) <= 1 makes the running
maximum over k < K the sup over every k (complete), and the sweep
stops at the first such K.  For kappa the level K that sets the upper
bound has g(K) = (upper / xi)^K < 1 for xi above it.  One level check
refuses a NaN or nonpositive rho or xi, or one below its radius, before
either sweep.  A model whose krons or mode products overflow is
refused with DegenerateInput; a power or iterate of L that overflows
ends the tau sweep at inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsyevr
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    InputError,
    NotConverged,
    RhoTooSmall,
    TooLarge,
    XiTooSmall,
)
from .model import MjsModel, _check_count

__all__ = [
    "TransientEstimate",
    "JsrBounds",
    "MomentOperator",
    "StabilityReport",
    "augmented_matrix",
    "spectral_radius",
    "tau_estimate",
    "jsr_bounds",
    "kappa_estimate",
    "stability_report",
]

DEFAULT_SIZE_CAP = 4096
# Operators of at most this dimension (s n^2) take their spectral radius
# from the dense augmented matrix.  With BLAS on one thread, random
# ergodic models, dense vs ARPACK: dim 24 0.27 vs 0.67 ms, dim 36
# 0.5-0.8 vs 0.9 ms, dim 64 1.3-2.4 vs 1.3-1.8 ms, dim 72 1.7-2.8 vs
# 1.1-1.6 ms, dim 144 11.5 vs 1.7 ms.
DENSE_RHO_MAX = 64
# Restart budgets of ARPACK's run for rho: up to DEFAULT_SIZE_CAP a
# failure hands over to the dense eig, and random models need at most
# ten restarts; above it a cyclic chain needs about 15 at period 12,
# 50 at period 40 and 200 at period 60.
ARPACK_PLAIN_RESTARTS = 30
ARPACK_RESTARTS = 300
# Relative margin on the cheap norm bounds of the tau and kappa sweep
# and of the JSR walk, above their rounding and that of numpy's 2-norms
# in the walk; a swept level certifies the sup only with it.  The tau
# sweep's 2-norms carry their own lift (_gram_norm) and never fall below
# the norm.
BOUND_MARGIN = 1e-12
# Powers of L swept for tau, product lengths enumerated for the JSR and
# kappa, and products the JSR walk may form before it stops incomplete.
TAU_STEPS = 64
JSR_LEVELS = 8
JSR_BUDGET = 100_000
# Most steps a tau or kappa sweep may take: at a level u in [1/2, 1),
# u^k is normal for every k <= 1022 (see _sweep).
SWEEP_STEPS_MAX = 1022


@dataclass
class TransientEstimate:
    """max(1, max_k g(k)) with g(k) = ||M^k|| / level^k over k <= k_max,
    for tau the powers of L and for kappa the level maxima of a JSR walk.

    k_max is the last swept k: the first K with g(K) <= 1 when the sweep
    certifies, else the whole horizon (the number of powers asked for,
    or of level maxima).  complete: g(k_max) <= 1, so the value is the
    sup over every k; unconverged is its negation.  exact: False when g
    is the matrix-free upper bound on ||L^k|| rather than the norm, which
    the dense tau takes within a stated lift (_norm_lift).
    """

    value: float
    level: float
    argmax_k: int
    k_max: int
    complete: bool
    exact: bool

    @property
    def unconverged(self) -> bool:
        return not self.complete


@dataclass
class JsrBounds:
    lower: float
    upper: float
    k_max: int
    levels_completed: int
    complete: bool
    # level_maxima[k - 1] is the largest 2-norm of a product of k modes.
    level_maxima: tuple[float, ...]


def augmented_matrix(model: MjsModel) -> np.ndarray:
    """Second-moment propagator of the autonomous part.

    Block (i, j) equals T(j, i) * kron(A_j, A_j).  Raises TooLarge when
    s * n^2 exceeds DEFAULT_SIZE_CAP.
    """
    return _augmented(model.A, model.T)


def _augmented(A: np.ndarray, T: np.ndarray) -> np.ndarray:
    # The dense form of L for any T >= 0, stochastic or not.
    dim = A.shape[0] * A.shape[1] ** 2
    if dim > DEFAULT_SIZE_CAP:
        raise TooLarge(f"augmented matrix would be {dim} x {dim}, cap is {DEFAULT_SIZE_CAP}")
    blocks = np.einsum("ji,jab->iajb", T, _krons(A), order="C")
    return blocks.reshape(dim, dim)


def _krons(A: np.ndarray) -> np.ndarray:
    # kron(A_j, A_j) for every mode, shape (s, n^2, n^2).
    s, m = A.shape[0], A.shape[1] ** 2
    with np.errstate(over="ignore"):
        krons = np.einsum("jab,jcd->jacbd", A, A).reshape(s, m, m)
    _check_finite(krons, "the second-moment operator")
    return krons


def _check_finite(X: np.ndarray, what: str) -> None:
    if not np.isfinite(X).all():
        raise DegenerateInput(f"{what} overflows: an entry is not finite")


def _symmetric_basis(n: int) -> np.ndarray:
    # Orthonormal basis of the symmetric n x n matrices, flattened
    # row-major: n^2 x n(n+1)/2, with columns e_aa, then
    # (e_ab + e_ba) / sqrt(2) for a < b.
    a, b = np.triu_indices(n, 1)
    pairs = n + np.arange(len(a))
    sym = np.zeros((n * n, n + len(a)))
    sym[np.arange(n) * (n + 1), np.arange(n)] = 1.0
    sym[a * n + b, pairs] = sym[b * n + a, pairs] = np.sqrt(0.5)
    return sym


def spectral_radius(M: np.ndarray) -> float:
    M = np.asarray(M)
    return float(np.abs(np.linalg.eigvals(M)).max()) if M.size else 0.0


class MomentOperator:
    """The second-moment operator of the mode matrices A under T.

    apply maps a stack X of shape (s, n, n) to
    L(X)_i = sum_j T(j, i) A_j X_j A_j', one step of the per-mode second
    moments E[x x' 1{w = i}]; adjoint maps V to
    L*(V)_i = A_i' phi_i(V) A_i, one step of the value matrices, where
    mix gives phi_i(V) = sum_j T(i, j) V_j, the values mixed over the
    next mode, which the coupled Riccati map of lqr shares.  Flattened
    row-major, apply is the augmented matrix and adjoint its transpose.
    T must be entrywise >= 0: InputError names the first entry that is
    not, negative or NaN.
    """

    def __init__(self, A, T) -> None:
        self.A = np.asarray(A, dtype=float)
        self.T = np.asarray(T, dtype=float)
        self.s, self.n = self.A.shape[0], self.A.shape[1]
        bad = np.argwhere(~(self.T >= 0.0))
        if len(bad):
            i, j = bad[0]
            raise InputError(
                f"T({i},{j}) = {self.T[i, j]} is not >= 0: the second-moment operator "
                "needs the nonnegative T of a Markov chain"
            )

    @property
    def dim(self) -> int:
        return self.s * self.n * self.n

    def apply(self, X: np.ndarray) -> np.ndarray:
        """L(X) for a stack X of shape (s, n, n): one noise-free step of
        the per-mode second moments.  Closed-loop costs under noise are
        pairings with the value recursion on adjoint (see lqr)."""
        # BLAS products, as in adjoint: 2 s n^3 + s^2 n^2 work per step,
        # against s n^4 for one three-operand contraction.
        s, n = self.s, self.n
        pushed = (self.A @ X @ self.A.transpose(0, 2, 1)).reshape(s, n * n)
        return (self.T.T @ pushed).reshape(s, n, n)

    def mix(self, V: np.ndarray) -> np.ndarray:
        """phi(V)_i = sum_j T(i, j) V_j for a stack V of shape (s, n, n)."""
        # One BLAS product rather than einsum: the closed-loop value
        # recursion and the Riccati iteration of lqr run one per step.
        s, n = self.s, self.n
        return (self.T @ V.reshape(s, n * n)).reshape(s, n, n)

    def adjoint(self, V: np.ndarray) -> np.ndarray:
        return self.A.transpose(0, 2, 1) @ self.mix(V) @ self.A

    def tau(self, rho: float, k_max: int) -> TransientEstimate:
        """sup_k ||L^k||_2 / rho^k over k <= k_max, for a rho the caller
        has checked against the spectral radius.

        Up to DEFAULT_SIZE_CAP the powers are dense and the value is
        exact up to a stated rounding lift.  They are taken on the
        restriction of L to symmetric stacks, in an orthonormal basis,
        whose norm is ||L^k||_2 at every k since T >= 0 (_restriction);
        the 2-norm of a power is taken only where its bound could raise
        the maximum, from the top eigenvalue of its Gram, never below
        the norm and at most _norm_lift(s n (n + 1) / 2) above it, and
        only where the Gram's Frobenius norm leaves that open
        (_gram_norm).
        Above DEFAULT_SIZE_CAP, the value is the sweep of the upper bound
        sqrt(||L^k(I)|| ||L*^k(I)||) in the largest block 2-norm, which
        holds because L^k is completely positive (exact=False); a
        running bound on the rounding of the iterates L^k(I) and
        L*^k(I) is added, so the float bound holds too.  The sweep
        stops at the first certifying k (see _sweep).  Both paths step
        the operator on T 2^-e, 2^(e-1) <= rho < 2^e, which is L 2^-e
        exactly unless an entry of T 2^-e falls below the normal range.
        A power or an iterate that overflows ends the sweep at inf, and
        a k_max that is no integer in [0, SWEEP_STEPS_MAX] raises
        DimensionMismatch.
        """
        _check_sweep_steps("k_max", k_max)
        with np.errstate(over="ignore"):
            scaled = MomentOperator(self.A, np.ldexp(self.T, -_level_exponent(rho)))
        if self.dim > DEFAULT_SIZE_CAP:
            return _sweep(scaled._power_bounds(k_max), rho, exact=False)
        return _sweep(_dense_powers(*scaled._restriction(), k_max), rho, exact=True)

    def _restriction(self):
        # (step, identity) for the restriction of L to symmetric stacks,
        # in the basis Q of _symmetric_basis: kernels Q' kron(A_j, A_j) Q,
        # stepped on every column of a power at once, in
        # O(s d^2 + s^2 d) per column for s d rows.  A step may overflow
        # silently: the bound of a power that is not finite is not either.
        # Its norm is ||L^k||_2, since T >= 0.  L^k and L*^k then map
        # positive semidefinite stacks to such stacks, complex ones too,
        # and so does F = L*^k L^k, which is self-adjoint with top
        # eigenvalue ||L^k||_2^2.  On the real space of Hermitian stacks
        # F is thus a positive map, and its spectral radius r has a PSD
        # eigenvector P != 0 (Evans & Hoegh-Krohn, J. London Math. Soc.
        # 17, 1978).  F is real, so the real part of P is an eigenvector
        # for r too; it is a real symmetric stack, and not zero, since
        # its trace is that of P.  So the symmetric block's norm squared
        # is at least r.  For a real skew Z with F(Z) = m Z, the stack
        # i Z is Hermitian with F(i Z) = m i Z, so m <= r: the skew
        # block, the rest of L^k, never has the larger norm.
        s, Q = self.s, _symmetric_basis(self.n)
        d = Q.shape[1]
        kernels = Q.T @ _krons(self.A) @ Q

        def step(P):
            cols = P.shape[1]
            with np.errstate(over="ignore", invalid="ignore"):
                pushed = (kernels @ P.reshape(s, d, cols)).reshape(s, d * cols)
                return (self.T.T @ pushed).reshape(s * d, cols)

        return step, np.eye(s * d)

    def _power_bounds(self, k_max: int):
        # Yields (bound on ||L^k||_2, None) for k = 1..k_max, carrying
        # a running forward-error bound on the float iterates X of L^k(I)
        # and Y of L*^k(I) (Higham, Accuracy and Stability of Numerical
        # Algorithms, 2002, ch. 3).  An entry of L(X) sums s n^2 products
        # of four factors.  apply and adjoint nest three sums of n, n
        # and s terms, so each product passes at most 2n + s roundings
        # (three products and 2n + s - 3 additions), and
        # (n - 1)(s(n + 1) - 2) >= 0 gives 2n + s <= s n^2 + 2.  One
        # float step is thus off the exact step of the float iterate by
        # d_k with |d_k| <= gamma |L|(|X_{k-1}|), gamma = gamma_{s n^2 + 2},
        # and 1 + 3 gamma covers the rounding of |L| and of the norm of that.
        # The error of X_k is sum_j L^(k-j)(d_j), whose Frobenius norm
        # is at most sum_j B_(k-j) ||d_j||, with B_m the bound yielded
        # at m (B_0 = 1), and likewise for Y.  A block's 2-norm is at most
        # its Frobenius norm, and 1 + gamma on the result covers the
        # 2-norms, the sums and the square root.  An iterate that is not
        # finite ends them at inf, and so may a rounding bound.
        gamma = _gamma(self.dim + 2)
        local = (1.0 + 3.0 * gamma) * gamma
        absolute = MomentOperator(np.abs(self.A), self.T)
        X = Y = self._identity()
        bounds, steps, steps_adj = [1.0], [], []
        for k in range(1, k_max + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                steps.append(local * np.linalg.norm(absolute.apply(np.abs(X))))
                steps_adj.append(local * np.linalg.norm(absolute.adjoint(np.abs(Y))))
                X, Y = self.apply(X), self.adjoint(Y)
                if not (np.isfinite(X).all() and np.isfinite(Y).all()):
                    yield math.inf, None
                    return
                past = bounds[::-1]
                top = np.linalg.norm(X, 2, axis=(1, 2)).max() + np.dot(past, steps)
                top_adj = np.linalg.norm(Y, 2, axis=(1, 2)).max() + np.dot(past, steps_adj)
                # Two roots, not the root of the product, which underflows
                # first.
                bounds.append(float(np.sqrt(top) * np.sqrt(top_adj) * (1.0 + gamma)))
            yield bounds[-1], None

    def rho(self) -> float:
        """Spectral radius of L.

        Exactly 0 when n steps of L from the identity stack vanish (all
        mode products of length n are zero, as for strictly triangular
        modes); there eigensolvers return rounding noise instead.
        Otherwise dense eigvals up to DENSE_RHO_MAX, and above it one
        ARPACK run for the rightmost eigenvalue (see the module
        docstring) from the identity stack, so that runs are
        reproducible: within ARPACK_PLAIN_RESTARTS up to
        DEFAULT_SIZE_CAP, where dense eigvals answers a failure, and
        ARPACK_RESTARTS above it, where a failure raises NotConverged.
        """
        if self._vanishes():
            return 0.0
        if self.dim <= DENSE_RHO_MAX:
            return self._dense_rho()
        shape = (self.s, self.n, self.n)

        def step(v):
            with np.errstate(over="ignore", invalid="ignore"):
                out = self.apply(v.reshape(shape)).ravel()
            _check_finite(out, "an ARPACK iterate of the second-moment operator")
            return out

        capped = self.dim <= DEFAULT_SIZE_CAP
        try:
            vals = eigs(
                LinearOperator((self.dim, self.dim), matvec=step, dtype=float),
                k=1, which="LR", tol=0, v0=self._identity().ravel(),
                maxiter=ARPACK_PLAIN_RESTARTS if capped else ARPACK_RESTARTS,
                return_eigenvectors=False,
            )
        except ArpackError as exc:
            if capped:
                return self._dense_rho()
            raise NotConverged(
                f"ARPACK found no spectral radius of the {self.dim}-dimensional second-moment "
                f"operator ({exc}), and the dense fallback is capped at {DEFAULT_SIZE_CAP}"
            ) from exc
        return float(np.abs(vals[0]))

    def _dense_rho(self) -> float:
        return spectral_radius(_augmented(self.A, self.T))

    def _identity(self) -> np.ndarray:
        return np.tile(np.eye(self.n), (self.s, 1, 1))

    def _vanishes(self) -> bool:
        # L^k(I) = 0 forces L^k = 0: every (complex) PSD stack lies below
        # a multiple of I, and such stacks span the space.
        X = self._identity()
        for k in range(1, self.n + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                X = self.apply(X)
            _check_finite(X, f"step {k} of L from the identity")
            scale = float(np.abs(X).max())
            if scale == 0.0:
                return True
            X = X / scale
        return False


def default_level(base: float) -> float:
    """Slightly lifted stability level: 1.01 * base, kept below 1 when
    base is, and floored away from zero."""
    if base <= 0.0:
        return 1e-6
    lifted = 1.01 * base
    if base < 1.0:
        return min(lifted, 0.5 * (1.0 + base))
    return lifted


def _check_level(name: str, level: float, radius: float) -> None:
    """Refuse a level rho (RhoTooSmall) or xi (XiTooSmall) that is NaN,
    not positive, or below radius - 1e-12: the sup over level^k would
    then diverge, or a sign flip of level^k would certify it falsely."""
    if name == "rho":
        error, what = RhoTooSmall, "the spectral radius"
    else:
        error, what = XiTooSmall, "the certified joint-spectral-radius upper bound"
    if not level > 0.0:
        raise error(f"{name} = {level} is not positive")
    if level < radius - 1e-12:
        raise error(f"{name} = {level} is below {what} {radius}")


def tau_estimate(M: np.ndarray, rho: float, k_max: int = TAU_STEPS) -> TransientEstimate:
    """Transient growth constant sup_k ||M^k||_2 / rho^k, k = 0..k_max.

    Requires a positive rho >= spectral_radius(M) (RhoTooSmall
    otherwise; the sup would diverge).  The norms are _sweep's, of the
    powers of M 2^-e, at most _norm_lift(len(M)) above ||M^k||_2 2^-ek.
    The result is complete when some swept power certifies the sup over
    every k.  A k_max that is no integer in [0, SWEEP_STEPS_MAX] raises
    DimensionMismatch.
    """
    _check_sweep_steps("k_max", k_max)
    M = np.asarray(M, dtype=float)
    _check_level("rho", rho, spectral_radius(M))
    with np.errstate(over="ignore"):
        M = np.ldexp(M, -_level_exponent(rho))

    def step(P):
        with np.errstate(over="ignore", invalid="ignore"):
            return P @ M

    return _sweep(_dense_powers(step, np.eye(M.shape[0]), k_max), rho, exact=True)


def _norm_bound(P: np.ndarray, fro: float) -> tuple[float, tuple[int, int]]:
    """(min(fro, sqrt(||P||_1 ||P||_inf)), (i, j)) for the Frobenius
    bound fro of P that _dense_powers yields, with i the row and j the
    column of |P| of largest sum.

    ||P||_2 <= sqrt(||P||_1 ||P||_inf); on a scaled identity or a scaled
    orthogonal P only this half is tight.  The two roots are inf only
    where ||P||_1 or ||P||_inf overflows, so ||P||_2 >= 2^1024 / sqrt(m),
    or P is not finite.  This half takes three passes over |P|, which
    _sweep spares where _norm_floor settles its decisions instead.
    """
    absP = np.abs(P)
    with np.errstate(over="ignore", invalid="ignore"):
        cols, rows = absP.sum(axis=0), absP.sum(axis=1)
    i, j = int(rows.argmax()), int(cols.argmax())
    return min(fro, math.sqrt(cols[j]) * math.sqrt(rows[i])), (i, j)


def _norm_floor(P: np.ndarray, peak: tuple[int, int]) -> float:
    """A float that is at most the second half sqrt(||P||_1 ||P||_inf)
    of _norm_bound as it rounds it, from row i and column j of |P| for
    peak = (i, j).

    Each sum adds the m nonnegative terms of a row or column of the
    m x m P.  Added in any order they land within gamma_(m-1) of the
    exact sum (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 4); nonnegative additions do not underflow, since a sum in
    the subnormal range is exact.  So with C and R the exact sums of
    column j and row i, _norm_bound's ||P||_1 >= C (1 - gamma_(m-1)) and
    ||P||_inf >= R (1 - gamma_(m-1)), and its second half is at least
    sqrt(C R) (1 - gamma_(m-1)) (1 - u)^3 after two roots and a
    product.  The sums here are at most C (1 + gamma_(m-1)) and
    R (1 + gamma_(m-1)), and the roots, the two products and the
    rounded factor 1 - 2 gamma_(m+8) add five roundings up, so the
    floor is at most sqrt(C R) (1 + gamma_(m-1)) (1 + u)^5
    (1 - 2 gamma_(m+8)).  To first order that is below the half by
    2 gamma_(m+8) - 2 gamma_(m-1) - 8u >= 10u; the spare 10u covers the
    second-order terms, and the one extra unit a product near 2^-1022
    loses to gradual underflow.  _sweep reads the floor only against
    rk / (1 + BOUND_MARGIN) >= 2^-1022 (1 - 2^-39), so a smaller
    product decides nothing.
    """
    i, j = peak
    shrink = 1.0 - 2.0 * _gamma(P.shape[0] + 8)
    with np.errstate(over="ignore", invalid="ignore"):
        col, row = np.abs(P[:, j]).sum(), np.abs(P[i]).sum()
    return math.sqrt(col) * math.sqrt(row) * shrink


UNIT = 0.5 * np.finfo(float).eps  # u = 2^-53, the unit roundoff
# The lift c u lam of _gram_norm, with c = 2 m + GRAM_ERROR for an m x m
# Gram G.  Of it, (2 m + 16) u ||G||_2 is the stated backward error of
# dsyevr's top eigenvalue lam: LAPACK states p(m) eps ||G||_2 with p a
# modestly growing function and takes p = 1 in its own error bounds
# (LAPACK Users' Guide, 3rd ed., 1999, sec. 4.7); p(m) = m + 8 covers
# the Householder tridiagonalization and the bisection's tolerance of
# eps times the Gershgorin bound, at most 3 ||G||_2.  The other 8 units
# cover the roundings of the lift.
GRAM_ERROR = 24


def _gamma(k: int) -> float:
    # gamma_k = k u / (1 - k u), the rounding of a k-term dot product
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3).
    unit = UNIT * k
    return unit / (1.0 - unit)


def _gram_norm(P: np.ndarray, bound: float, rk: float, best: float) -> float:
    """An upper bound on ||P||_2 for a finite square P != 0 of order m,
    from its Gram: at most ||P||_2 (1 + _norm_lift(m)), unless the
    screen below shows that the sweep's strict update, norm / rk > best,
    cannot fire; then it is the screen's bound ub, at most about
    m^(1/4) ||P||_2.  bound is the sweep's bound on ||P||_2.

    S = 2^-e P, with 2^(e-1) <= bound < 2^e for the finite bound > 0
    the sweep passes, is exact up to entries that underflow;
    ||S||_F^2 <= m^2, so the float Gram G = fl(S'S) cannot overflow.
    numpy forms S'S with one syrk call, so G is exactly symmetric, and
    dsyevr reads all of it.  Its entries are m-term dot products:
    G = S'S + E with |E| <= gamma_m |S|'|S| entrywise, so
    ||E||_2 <= gamma_m ||S||_F^2.  One dsyevr call, or two where
    the first loses the top index in a cluster, returns lam within
    d u ||G||_2 of the top eigenvalue of G, d = 2 m + 16 (see
    GRAM_ERROR); and ||G||_2 <= (lam + gamma_m ||S||_F^2) / (1 - d u),
    since the least eigenvalue of G is at least -gamma_m ||S||_F^2.
    By Weyl,
        ||S||_2^2 <= lam + gamma_2m tr(G) + c u lam,  c = 2 m + GRAM_ERROR,
    where tr(G), summed in floats, is at least (1 - gamma_m)^2 ||S||_F^2,
    gamma_2m >= 2 gamma_m covers that and the term d u gamma_m ||S||_F^2,
    and the 8 units of c above d cover the rest of d u / (1 - d u), the
    three roundings of the sum and the underflow of entries of S or G,
    whose error is at most m^2 2^-1074, far below u lam >= u / (4 m).  The
    factor 1 + 4u on the root covers its rounding and that of the
    product; scaling back by 2^e is exact, as the sweep's bound is
    above 2^-k, and inf where it overflows.  Any other nonzero info
    from dsyevr raises NotConverged.

    The screen reads G before dsyevr does.  The top eigenvalue of the
    symmetric G is at most its Frobenius norm ||G||_F (the Schatten-4
    bound ||S||_2^4 <= ||S'S||_F^2, up to E), so lam <= ||G||_F (1 + d u).
    With F the float root of the m^2-term sum of squares of G,
    ||G||_F <= F / ((1 - gamma_(m^2))^(1/2) (1 - u)); that sum's
    underflow, at most m^2 2^-1074, lies far below u ||G||_F, since
    ||G||_F >= ||S||_2^2 is about 1 / (4 m) or more.  Carried through
    the roundings of the radicand (three units), of the root and of its
    product with 1 + 4u (two units each on the square) and through that
    factor (eight units), this puts the square of the returned value
    below 4^e (F + gamma_2m tr(G)) (1 + gamma_(m^2) / 2 + (c + d + 16) u)
    to first order.  ub = 2^e sqrt((F + gamma_2m tr(G)) (1 + lift)), with
    lift = gamma_(m^2) + (2 c + 16) u = gamma_(m^2) + (4 m + 64) u,
    loses at most six units to its own roundings (two in the sum, one
    in 1 + lift, one in the product, two in the root), and c + d + 22 =
    4 m + 62: the last 2u and gamma_(m^2) / 2 cover the second-order
    terms, at most about 4 m^2 u^2.  So ub is never below the value
    dsyevr would lead to, and where ub / rk <= best neither is that value
    / rk above best: ub is returned, and dsyevr is not called.
    """
    m = P.shape[0]
    e = math.frexp(bound)[1]
    S = np.ldexp(P, -e)
    G = S.T @ S
    trace = float(np.trace(G))
    gamma, c = _gamma(2 * m), 2 * m + GRAM_ERROR
    flat = G.ravel()
    lift = _gamma(m * m) + (2 * c + 16) * UNIT
    root = math.sqrt((math.sqrt(flat.dot(flat)) + gamma * trace) * (1.0 + lift))
    with np.errstate(over="ignore"):
        ub = float(np.ldexp(root, e))  # inf where it overflows
    if ub / rk <= best:
        return ub
    # G.T is Fortran-ordered, so dsyevr works on it in place.
    w, _, _, _, info = dsyevr(G.T, compute_v=0, range="I", il=m, iu=m, overwrite_a=1)
    if info in (2, 3):
        # The bisection lost index m in a cluster of equal top eigenvalues,
        # as on a scaled orthogonal P; LAPACK's dstebz documents this for
        # RANGE='I' and names the cure, all eigenvalues, here by dsterf.
        G = S.T @ S
        w, _, _, _, info = dsyevr(G.T, compute_v=0, overwrite_a=1)
        w = w[-1:]
    if info:
        raise NotConverged(f"dsyevr found no top eigenvalue of a {m} x {m} Gram (info = {info})")
    lam = max(float(w[0]), 0.0)
    root = math.sqrt(lam + gamma * trace + c * UNIT * lam) * (1.0 + 4.0 * UNIT)
    return math.ldexp(root, e - 1) * 2.0  # root < 2: only the product may overflow, to inf


def _norm_lift(m: int) -> float:
    """The stated lift: _gram_norm(P) <= ||P||_2 (1 + _norm_lift(m)) for
    an m x m P.  Its worst case is ||P||_F^2 = m ||P||_2^2, as for a
    scaled orthogonal P; to first order the radicand of _gram_norm is
    then ||P||_2^2 (1 + 1.5 m gamma_2m + (2 c - 5) u), c = 2 m + GRAM_ERROR,
    and the roundings after the root add 6u.  The lift is the root of
    1 + 2 m gamma_2m + 3 c u, times 1 + 8u, less one; the spare terms
    cover the second-order ones."""
    c = 2 * m + GRAM_ERROR
    radicand = 1.0 + 2.0 * m * _gamma(2 * m) + 3.0 * c * UNIT
    return math.sqrt(radicand) * (1.0 + 8.0 * UNIT) - 1.0


def _dense_powers(step, P, k_max: int):
    """Yields (fro, P_k) for k = 1..k_max, from P_0 = P and
    P_k = step(P_(k-1)), with fro >= ||P_k||_F >= ||P_k||_2 the
    Frobenius half of _norm_bound's bound, from one dot product.

    m^2 2^-1074 covers the m^2 squares and sums that may underflow, and
    changes no sum above 2^-990.  A power that is not finite has a fro
    that is not finite either, and so has its full bound, which ends
    the sweep.
    """
    for _ in range(k_max):
        P = step(P)
        flat = P.ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            fro = math.sqrt(flat.dot(flat) + P.size * math.ulp(0.0))
        yield fro, P


def _power(x: float, k: int) -> float:
    # x^k as a Python float power, inf where it overflows.  numpy's
    # vectorized powers may differ in the last bit.
    try:
        return x**k
    except OverflowError:
        return math.inf


def _level_exponent(level: float) -> int:
    # e with 2^(e-1) <= level < 2^e: the sweeps run at 2^-e level.
    return math.frexp(level)[1]


def _check_sweep_steps(name: str, steps) -> None:
    """DimensionMismatch unless steps is an integer in [0,
    SWEEP_STEPS_MAX]: past it the level's power u^k in _sweep leaves the
    normal range, and then rounds or vanishes."""
    _check_count(name, steps, 0)
    if steps > SWEEP_STEPS_MAX:
        raise DimensionMismatch(
            f"{name} must be at most {SWEEP_STEPS_MAX}, the longest sweep, got {steps}"
        )


def _sweep(powers, level: float, exact: bool) -> TransientEstimate:
    """Running maximum of g(k) = ||M^k||_2 / level^k, k = 1, 2, ...,
    up to the first certifying k.

    powers yields, for each k, a pair (bound, P) with ||P||_2 =
    ||(2^-e M)^k||_2 <= bound, e = _level_exponent(level): the powers
    of M 2^-e, which the caller forms exactly.  So g(k) = ||P||_2 / u^k
    with u = 2^-e level in [1/2, 1), and u^k in [2^-k, 1] is normal for
    every k <= 1022 = SWEEP_STEPS_MAX, the most steps an entry point
    lets a sweep take (_check_sweep_steps).  With P = None the bound is
    the norm.  Where P is given, it comes from _dense_powers, and the
    bound is its Frobenius half fro.
    The sweep reads a power's bound b, as top = b (1 + BOUND_MARGIN) /
    u^k, for two decisions only: top > best takes the 2-norm of P, and
    top <= 1 certifies.  The full bound min(fro, h), h =
    sqrt(||P||_1 ||P||_inf), is taken (_norm_bound) unless fro settles
    both: its top is at most best, and either at most 1, or the floor of
    h from the row and column where h last peaked (_norm_floor) already
    gives a top above 1.  h has peaked whenever the floor is read: that
    needs best > 1, and best rises only on a step _norm_bound takes.
    Every step of top is monotone, so the top of the minimum is the
    smaller of the two tops: it is then at most best
    too, and at most 1 exactly when fro's top is, and both decisions
    are those of the full bound.  The 2-norm, where taken, is
    _gram_norm's: never below the 2-norm and at most _norm_lift(m)
    above it, unless its screen shows it cannot pass the strict update.
    So the value is never below the sup of g over the swept k and at
    most that lift above it: a skipped k has g(k) below the running
    maximum.  Since g(a + b) <= g(a) g(b), one K with g(K) <= 1 makes
    the sweep over k < K the sup over every k (complete), and the sweep
    stops there: every later g(K + j) is at most g(j) / (1 +
    BOUND_MARGIN).  Only a bound above 2^-k / (1 + BOUND_MARGIN) can
    keep g(k) from certifying; a P that underflowed lies far below that.
    A bound that is not finite, as from a P that overflowed, ends the
    sweep with value inf, argmax_k = k and complete False; a fro that
    is not finite never settles the decisions.
    """
    unit = math.ldexp(level, -_level_exponent(level))
    best, arg, complete, k, peak = 1.0, 0, False, 0, (0, 0)
    for k, (bound, P) in enumerate(powers, start=1):
        rk = unit**k
        if P is not None:
            top = bound * (1.0 + BOUND_MARGIN) / rk
            settled = top <= best and (
                top <= 1.0 or _norm_floor(P, peak) * (1.0 + BOUND_MARGIN) / rk > 1.0
            )
            if not settled:
                bound, peak = _norm_bound(P, bound)
        if not bound < math.inf:
            best, arg = math.inf, k
            break
        top = bound * (1.0 + BOUND_MARGIN) / rk
        complete = top <= 1.0
        if top > best:
            norm = bound if P is None else _gram_norm(P, bound, rk, best)
            val = norm / rk
            if val > best:
                best, arg = val, k
        if complete:
            break
    return TransientEstimate(
        value=best, level=level, argmax_k=arg, k_max=k, complete=complete, exact=exact
    )


def jsr_bounds(A_list, k_max: int = JSR_LEVELS, budget: int = JSR_BUDGET) -> JsrBounds:
    """Bracket the joint spectral radius by product enumeration.

    Level k stacks the products A_{i_1} ... A_{i_k} of the kept prefixes
    of level k - 1, each extended on the right by every mode, as one
    matmul (Gripenberg, Linear Algebra Appl. 234, 1996).  It contributes
    max rho(W)^{1/k} to the lower bound and max ||W||^{1/k} to the upper
    bound (minimized over levels).  Prefixes that provably cannot
    influence either bound are pruned; every product, level 1 included,
    counts against the budget, and when it runs out the bounds from
    completed levels are returned with complete=False.  Level 1 is
    always enumerated.  A product that overflows raises
    DegenerateInput, and a k_max or budget that is no integer >= 0
    raises DimensionMismatch.

    Each product's 2-norm is bracketed by _norm_brackets, and the exact
    2-norm (one batched call) is taken only where the bracket leaves a
    decision open: for the level maximum, the products whose upper
    bound reaches the largest lower bound; for the prune, whose test is
    monotone in the norm, the products it keeps at the upper bound but
    not at the lower.  Eigenvalues, one batched call per level, are taken
    only where the norm or its upper bound could raise the lower bound.
    numpy's batched linear algebra works matrix by matrix, so every
    field equals that of the walk that takes all of them.
    """
    _check_count("k_max", k_max, 0)
    _check_count("budget", budget, 0)
    mats = np.asarray(A_list, dtype=float)
    W = mats
    lower, upper, maxima = 0.0, math.inf, []
    count, complete = 0, True
    for k in range(1, max(k_max, 1) + 1):
        if k > 1:
            mask = _kept_prefixes(W, lo, hi, norms, maxima[0], lower, k, k_max)
            need = int(mask.sum()) * len(mats)
            if need == 0:
                break
            # Checked before indexing: W[mask] copies the kept prefixes,
            # and on a level the budget refuses that copy only doubles
            # the peak.
            if count + need > budget:
                complete = False
                break
            with np.errstate(over="ignore", invalid="ignore"):
                W = (W[mask][:, None] @ mats).reshape(-1, *mats.shape[1:])
        _check_finite(W, f"a product of {k} modes")
        count += len(W)
        lo, hi = _norm_brackets(W)
        norms = np.full(len(W), np.nan)  # exact 2-norms, where taken
        top = _exact_norms(W, norms, hi >= lo.max())
        maxima.append(float(top.max()))
        upper = min(upper, maxima[-1] ** (1.0 / k))
        bound = np.where(np.isnan(norms), hi, norms)
        lower = max(lower, _level_radius(W, bound, _power(lower, k)) ** (1.0 / k))
    # rho(W) <= ||W|| holds exactly, but the level roots may round the
    # lower bound one ulp past the upper; a lower bound may only drop.
    return JsrBounds(
        lower=min(lower, upper),
        upper=upper,
        k_max=k_max,
        levels_completed=len(maxima),
        complete=complete,
        level_maxima=tuple(maxima),
    )


def _norm_brackets(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo <= ||W_p||_2 <= hi for each matrix W_p of the
    finite stack W, widened by BOUND_MARGIN so that they hold for
    numpy's 2-norms too.

    On S = W_p / max|W_p|, whose largest entry is 1, nothing overflows
    or underflows that matters.  For the row w of S of largest norm,
    ||S w|| >= w'w, so ||S||_2 >= ||S w|| / ||w|| >= ||w||; and
    ||S||_2 <= ||S||_F.  Scaling back by max|W_p| keeps the relative
    rounding small while max|W_p| is a normal number; below that the
    bracket is (0, inf).
    """
    amax = np.abs(W).max(axis=(1, 2))
    S = W / np.where(amax > 0.0, amax, 1.0)[:, None, None]
    rows = np.einsum("pab,pab->pa", S, S)
    w = S[np.arange(len(S)), rows.argmax(axis=1)]
    Sw = np.einsum("pab,pb->pa", S, w)
    ww = rows.max(axis=1)
    lo = np.sqrt(np.einsum("pa,pa->p", Sw, Sw) / np.where(ww > 0.0, ww, 1.0))
    hi = np.sqrt(rows.sum(axis=1))
    with np.errstate(over="ignore"):
        lo = lo * amax * (1.0 - BOUND_MARGIN)
        hi = hi * amax * (1.0 + BOUND_MARGIN)
    small = amax < np.finfo(float).tiny
    lo[small] = 0.0
    hi[small & (amax > 0.0)] = math.inf
    return lo, hi


def _exact_norms(W: np.ndarray, norms: np.ndarray, sel: np.ndarray) -> np.ndarray:
    # Fills in the 2-norms of W[sel] not taken yet and returns norms[sel].
    todo = sel & np.isnan(norms)
    if todo.any():
        got = np.linalg.norm(W[todo], 2, axis=(1, 2))
        _check_finite(got, "the 2-norm of a mode product")
        norms[todo] = got
    return norms[sel]


def _kept_prefixes(W, lo, hi, norms, beta, lower, k, k_max) -> np.ndarray:
    # A prefix W of k - 1 modes is useless once no extension can reach
    # the current lower bound at any remaining depth j:
    # ||W V|| <= ||W|| beta^(j-k+1).  The thresholds are Python float
    # powers: numpy's vectorized powers may differ in the last bit and
    # so prune a different frontier.  lower^j overflows only when some
    # product of j modes does, since its largest norm is at least JSR^j.
    pairs = [(_power(beta, j - k + 1), _power(lower, j)) for j in range(k, k_max + 1)]
    for j, (_, t) in enumerate(pairs, start=k):
        if t == math.inf:
            raise DegenerateInput(f"products of {j} modes overflow: their norm reaches {lower}^{j}")

    def keep(x):
        # Monotone in x: fl(x * c) is, and x * inf is nan (kept: False)
        # only at x = 0.
        out = np.zeros(len(x), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for c, t in pairs:
                out |= x * c >= t
        return out

    # keep(lo) and not keep(hi) decide; the rest need the exact norm.
    mask = keep(lo)
    undecided = ~mask & (keep(hi) | np.isinf(hi))
    mask[undecided] = keep(_exact_norms(W, norms, undecided))
    return mask


def _level_radius(W: np.ndarray, bound: np.ndarray, floor: float) -> float:
    """The largest spectral radius among the products W whose radius
    could exceed floor, where bound >= ||W_p||_2; 0 when none can.

    numpy's eigenvalues are those of W_p + E with ||E|| within rounding
    of ||W_p||, so their largest modulus is at most the lifted
    bound(1 + BOUND_MARGIN) whenever that is a normal number.  One
    eigvals call takes every product whose lifted bound is above floor
    or positive and subnormal; no other product has a radius above floor.
    """
    lifted = bound * (1.0 + BOUND_MARGIN)
    todo = (lifted > floor) | ((lifted > 0.0) & (lifted < np.finfo(float).tiny))
    if not todo.any():
        return 0.0
    return float(np.abs(np.linalg.eigvals(W[todo])).max())


def kappa_estimate(jsr: JsrBounds, xi: float) -> TransientEstimate:
    """Transient constant sup_k max_{|W|=k} ||W|| / xi^k over every k >= 0,
    swept over the level maxima m_k of jsr.

    xi must be positive and dominate jsr.upper (XiTooSmall otherwise).
    The level K that sets jsr.upper has g(K) = (upper / xi)^K < 1
    whenever xi > upper, so only an xi within the 1e-12 slack below
    upper can leave the maximum uncertified (complete=False).  The
    sweep reads m_k 2^-ek, 2^(e-1) <= xi < 2^e (see _sweep).  A walk of
    more than SWEEP_STEPS_MAX levels raises DimensionMismatch.
    """
    _check_sweep_steps("the number of JSR levels kappa sweeps", len(jsr.level_maxima))
    _check_level("xi", xi, jsr.upper)
    e = _level_exponent(xi) * np.arange(1, len(jsr.level_maxima) + 1)
    with np.errstate(over="ignore"):
        scaled = np.ldexp(jsr.level_maxima, -e)
    return _sweep(((float(m), None) for m in scaled), xi, exact=True)


@dataclass
class StabilityReport:
    rho_aug: float
    is_mss: bool
    tau: TransientEstimate
    jsr: JsrBounds
    kappa: TransientEstimate
    a_bar: float
    b_bar: float
    t_bar: float

    def to_dict(self) -> dict:
        return {
            "rho_aug": self.rho_aug,
            "is_mss": self.is_mss,
            "rho_used": self.tau.level,
            "tau": self.tau.value,
            "tau_argmax_k": self.tau.argmax_k,
            "tau_unconverged": self.tau.unconverged,
            "tau_certified": self.tau.complete,
            "tau_exact": self.tau.exact,
            "jsr_lower": self.jsr.lower,
            "jsr_upper": self.jsr.upper,
            "jsr_levels": self.jsr.levels_completed,
            "jsr_complete": self.jsr.complete,
            "xi_used": self.kappa.level,
            "kappa": self.kappa.value,
            "kappa_argmax_k": self.kappa.argmax_k,
            "kappa_unconverged": self.kappa.unconverged,
            "a_bar": self.a_bar,
            "b_bar": self.b_bar,
            "t_bar": self.t_bar,
        }


def stability_report(
    model: MjsModel, rho: float | None = None, xi: float | None = None, budget: int = JSR_BUDGET
) -> StabilityReport:
    """All stability diagnostics of one model in a single pass: tau over
    TAU_STEPS powers of L, the JSR walk over JSR_LEVELS product lengths
    within budget products, and kappa from that walk.

    rho defaults to 1.01 * rho_aug (kept below 1 when rho_aug is); the
    same lift applies to xi on top of the certified joint-spectral-
    radius upper bound.  A NaN or nonpositive rho or xi, or one below
    its radius, raises RhoTooSmall or XiTooSmall; a T entry that is not
    >= 0 raises InputError.
    """
    op = MomentOperator(model.A, model.T)
    rho_aug = op.rho()
    rho = default_level(rho_aug) if rho is None else rho
    _check_level("rho", rho, rho_aug)
    tau = op.tau(rho, TAU_STEPS)
    jsr = jsr_bounds(model.A, k_max=JSR_LEVELS, budget=budget)
    kappa = kappa_estimate(jsr, default_level(jsr.upper) if xi is None else xi)
    return StabilityReport(
        rho_aug=rho_aug,
        is_mss=rho_aug < 1.0,
        tau=tau,
        jsr=jsr,
        kappa=kappa,
        a_bar=jsr.level_maxima[0],
        b_bar=float(np.linalg.norm(model.B, 2, axis=(1, 2)).max()) if model.p else 0.0,
        t_bar=float(model.T.max()),
    )
