"""Mean-square and uniform stability analysis.

The mean-square side works through the second-moment operator

    L(X)_i = sum_j T(j, i) A_j X_j A_j'

on stacks of s symmetric n x n blocks (Costa, Fragoso & Marques,
Discrete-Time Markov Jump Linear Systems, 2005, ch. 3).  Its spectral
radius below one is equivalent to mean-square stability.
MomentOperator applies L and its adjoint matrix-free, in
O(s n^3 + s^2 n^2) per step, and takes the spectral radius with ARPACK
on a LinearOperator, so the mean-square checks have no size cap.

The transient constant tau = sup_k ||L^k||_2 / rho^k is swept on dense
powers of L built column by column (apply_columns), taking the exact
2-norm of a power only where a cheap upper bound could still raise the
running maximum.  Above DEFAULT_SIZE_CAP no dense power is formed: L^k
is completely positive, so ||L^k||_2 <= sqrt(||L^k(I)|| ||L*^k(I)||) in
the largest block 2-norm, and tau is reported as that upper bound.

The dense form of L is the augmented (s n^2) x (s n^2) block matrix
whose (i, j) block is T(j, i) * kron(A_j, A_j), built from the same
stack of mode krons that apply_columns multiplies.  It is kept as the
fallback of MomentOperator.rho when ARPACK fails and as the oracle the
tests compare the operator against; it is size-capped.  tau_estimate
takes any such matrix and sweeps its powers directly.

The uniform side walks the mode products once.  jsr_bounds enumerates
them level by level, each level one stacked matmul of the kept prefixes
with every mode, and keeps the largest 2-norm m_k of each level.  It
prunes only prefixes whose every extension stays below lower^k, while
m_k >= JSR^k >= lower^k, so these maxima are exact.  kappa_estimate
reads them: g(k) = m_k / xi^k is submultiplicative (Jungers, The Joint
Spectral Radius, 2009, ch. 2), and at the level K that sets the upper
bound, g(K) = (upper / xi)^K < 1 for xi above it, so the largest g(k)
over the completed levels is kappa = sup_k g(k) over every k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

from .errors import NotConverged, RhoTooSmall, TooLarge, XiTooSmall
from .model import MjsModel, _check_x0, _resolve_init_dist, expand_reduced
from .clustering import ReductionResult
from .perturbation import construct_T0, perturbations

__all__ = [
    "TauEstimate",
    "KappaEstimate",
    "JsrBounds",
    "MomentOperator",
    "StabilityReport",
    "StabilityComparison",
    "augmented_matrix",
    "spectral_radius",
    "tau_estimate",
    "jsr_bounds",
    "kappa_estimate",
    "second_moment_evolution",
    "stability_report",
    "stability_comparison",
]

DEFAULT_SIZE_CAP = 4096
# Operators of at most this dimension (s n^2) take their spectral radius
# from the dense augmented matrix.  With BLAS on one thread, random
# ergodic models, dense vs ARPACK: dim 24 0.27 vs 0.67 ms, dim 36
# 0.5-0.8 vs 0.9 ms, dim 64 1.3-2.4 vs 1.3-1.8 ms, dim 72 1.7-2.8 vs
# 1.1-1.6 ms, dim 144 11.5 vs 1.7 ms.
DENSE_RHO_MAX = 64
# Restart budgets of ARPACK.  The plain run stops early: random models
# need at most ten restarts, while on a periodic chain it may never
# converge, and a failure hands over to the dense eig or the shifted
# retry, which gets the larger budget.
ARPACK_PLAIN_RESTARTS = 30
ARPACK_RESTARTS = 300
# Relative margin on the cheap norm bounds of the tau sweep, above the
# rounding of both the bounds and the exact 2-norm; kappa certifies a
# level against it too.
BOUND_MARGIN = 1e-12


@dataclass
class TauEstimate:
    """sup_k ||M^k|| / rho^k over k <= k_max, with the attaining k.

    certified: some K <= k_max has ||M^K|| <= rho^K, so the value is
    the sup over every k.  exact: False when value is the matrix-free
    upper bound on the sweep rather than the sweep itself.
    """

    value: float
    rho: float
    argmax_k: int
    k_max: int
    unconverged: bool
    certified: bool
    exact: bool


@dataclass
class KappaEstimate:
    """max(1, max_k m_k / xi^k) over the k_max levels of a JSR walk.

    complete: some level K has m_K <= xi^K, so the value is the sup
    over every k; unconverged is its negation.
    """

    value: float
    xi: float
    argmax_k: int
    k_max: int
    complete: bool

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


def augmented_matrix(model: MjsModel, cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Second-moment propagator of the autonomous part.

    Block (i, j) equals T(j, i) * kron(A_j, A_j).  Raises TooLarge when
    s * n^2 exceeds the cap.
    """
    dim = model.s * model.n * model.n
    if dim > cap:
        raise TooLarge(f"augmented matrix would be {dim} x {dim}, cap is {cap}")
    blocks = np.einsum("ji,jab->iajb", model.T, _krons(model.A), order="C")
    return blocks.reshape(dim, dim)


def _krons(A: np.ndarray) -> np.ndarray:
    # kron(A_j, A_j) for every mode, shape (s, n^2, n^2).
    s, m = A.shape[0], A.shape[1] ** 2
    return np.einsum("jab,jcd->jacbd", A, A).reshape(s, m, m)


def spectral_radius(M: np.ndarray, cap: int = DEFAULT_SIZE_CAP) -> float:
    M = np.asarray(M)
    if M.shape[0] > cap:
        raise TooLarge(f"matrix is {M.shape[0]} x {M.shape[1]}, cap is {cap}")
    return float(np.abs(np.linalg.eigvals(M)).max()) if M.size else 0.0


class MomentOperator:
    """The second-moment operator of the mode matrices A under T.

    apply maps a stack X of shape (s, n, n) to
    L(X)_i = sum_j T(j, i) A_j X_j A_j', one step of the per-mode second
    moments E[x x' 1{w = i}]; adjoint maps V to
    L*(V)_i = A_i' (sum_j T(i, j) V_j) A_i, one step of the value
    matrices.  Flattened row-major, apply is the augmented matrix and
    adjoint its transpose.
    """

    def __init__(self, A, T) -> None:
        self.A = np.asarray(A, dtype=float)
        self.T = np.asarray(T, dtype=float)
        self.s, self.n = self.A.shape[0], self.A.shape[1]

    @property
    def dim(self) -> int:
        return self.s * self.n * self.n

    def apply(self, X: np.ndarray) -> np.ndarray:
        """L(X) for a stack X of shape (s, n, n): one noise-free step of
        the per-mode second moments.  Closed-loop costs under noise are
        pairings with the value recursion on adjoint (see lqr)."""
        pushed = np.einsum("ijk,ikl,iml->ijm", self.A, X, self.A)
        return np.einsum("ij,ikl->jkl", self.T, pushed)

    def adjoint(self, V: np.ndarray) -> np.ndarray:
        # Two BLAS products rather than einsum: the closed-loop value
        # recursion of lqr runs one adjoint per step.
        s, n = self.s, self.n
        phi = (self.T @ V.reshape(s, n * n)).reshape(s, n, n)
        return self.A.transpose(0, 2, 1) @ phi @ self.A

    def apply_columns(self, P: np.ndarray) -> np.ndarray:
        """L applied to every column of P, each a flattened stack: the
        augmented matrix times P, in O(s n^4 + s^2 n^2) per column
        instead of O(s^2 n^4)."""
        s, m, cols = self.s, self.n * self.n, P.shape[1]
        pushed = _krons(self.A) @ P.reshape(s, m, cols)
        return (self.T.T @ pushed.reshape(s, m * cols)).reshape(s * m, cols)

    def tau(self, rho: float, k_max: int) -> TauEstimate:
        """sup_k ||L^k||_2 / rho^k over k <= k_max, for a rho the caller
        has checked against the spectral radius.

        Up to DEFAULT_SIZE_CAP the powers are dense and the value is
        exact.  Above it, the value is the sweep of the upper bound
        sqrt(||L^k(I)|| ||L*^k(I)||) in the largest block 2-norm, which
        holds because L^k is completely positive (exact=False).
        """
        if self.dim > DEFAULT_SIZE_CAP:
            return _tau_sweep(self._power_bounds(k_max), rho, k_max, exact=False)
        powers = _dense_powers(self.apply_columns, np.eye(self.dim), k_max)
        return _tau_sweep(powers, rho, k_max, exact=True)

    def _power_bounds(self, k_max: int):
        # Yields (bound on ||L^k||_2, None) for k = 1..k_max.
        X = Y = self._identity()
        for _ in range(k_max):
            X, Y = self.apply(X), self.adjoint(Y)
            top = np.linalg.norm(X, 2, axis=(1, 2)).max()
            top_adj = np.linalg.norm(Y, 2, axis=(1, 2)).max()
            yield float(np.sqrt(top * top_adj)), None

    def rho(self) -> float:
        """Spectral radius of L.

        Exactly 0 when n steps of L from the identity stack vanish (all
        mode products of length n are zero, as for strictly triangular
        modes); there eigensolvers return rounding noise instead.
        Otherwise dense eigvals up to DENSE_RHO_MAX and ARPACK eigs
        above, started from the identity stack so that runs are
        reproducible.  When ARPACK fails within ARPACK_PLAIN_RESTARTS
        (e.g. on the many eigenvalues of equal modulus of a long
        periodic chain), the dense eigvals answers up to
        DEFAULT_SIZE_CAP; above it ARPACK runs once more, with
        ARPACK_RESTARTS, on the shifted operator L + c I, and rho raises
        NotConverged only when that fails too.
        """
        if self._vanishes():
            return 0.0
        if self.dim <= DENSE_RHO_MAX:
            return self._dense_rho()
        shape = (self.s, self.n, self.n)

        def step(v):
            return self.apply(v.reshape(shape)).ravel()

        try:
            return float(np.abs(self._arpack(step, ARPACK_PLAIN_RESTARTS)))
        except ArpackError as exc:
            if self.dim <= DEFAULT_SIZE_CAP:
                return self._dense_rho()
            first = exc
        # In the largest block 2-norm, ||L|| <= c = max_i sum_j
        # T(j, i) ||A_j||^2, so rho <= c.  Every eigenvalue of L + c I
        # other than the Perron one, rho + c, is then strictly smaller in
        # modulus, which leaves ARPACK a single target.
        norms2 = np.linalg.norm(self.A, 2, axis=(1, 2)) ** 2
        c = float((self.T * norms2[:, None]).sum(axis=0).max())
        try:
            top = self._arpack(lambda v: step(v) + c * v, ARPACK_RESTARTS)
        except ArpackError as exc:
            raise NotConverged(
                f"ARPACK found no spectral radius of the {self.dim}-dimensional "
                f"second-moment operator, neither plain ({first}) nor shifted by "
                f"{c:.3g} ({exc}), and the dense fallback is capped at "
                f"{DEFAULT_SIZE_CAP}"
            ) from exc
        return max(float(top.real) - c, 0.0)

    def _arpack(self, matvec, restarts: int) -> np.complex128:
        # The eigenvalue of largest modulus of the operator matvec.
        op = LinearOperator((self.dim, self.dim), matvec=matvec, dtype=float)
        vals = eigs(
            op, k=1, which="LM", tol=0, v0=self._identity().ravel(),
            maxiter=restarts, return_eigenvectors=False,
        )
        return vals[0]

    def _dense_rho(self) -> float:
        return spectral_radius(augmented_matrix(MjsModel(self.A, None, self.T)))

    def _identity(self) -> np.ndarray:
        return np.tile(np.eye(self.n), (self.s, 1, 1))

    def _vanishes(self) -> bool:
        # L^k(I) = 0 forces L^k = 0: every (complex) PSD stack lies below
        # a multiple of I, and such stacks span the space.
        X = self._identity()
        for _ in range(self.n):
            X = self.apply(X)
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


def _check_rho(rho: float, radius: float) -> None:
    if not rho >= radius - 1e-12:
        raise RhoTooSmall(f"rho = {rho} is not at least the spectral radius {radius}")


def tau_estimate(M: np.ndarray, rho: float, k_max: int = 64) -> TauEstimate:
    """Transient growth constant sup_k ||M^k||_2 / rho^k, k = 0..k_max.

    Requires rho >= spectral_radius(M) (RhoTooSmall otherwise; the sup
    would diverge).  The result is flagged unconverged when the argmax
    sits at the sweep horizon.
    """
    M = np.asarray(M, dtype=float)
    _check_rho(rho, spectral_radius(M, cap=M.shape[0]))
    powers = _dense_powers(lambda P: P @ M, np.eye(M.shape[0]), k_max)
    return _tau_sweep(powers, rho, k_max, exact=True)


def _norm_bound(P: np.ndarray) -> float:
    # ||P||_2 <= ||P||_F and ||P||_2 <= sqrt(||P||_1 ||P||_inf).
    absP = np.abs(P)
    one, inf = absP.sum(axis=0).max(), absP.sum(axis=1).max()
    return float(min(np.linalg.norm(P, "fro"), np.sqrt(one * inf)))


def _dense_powers(step, P: np.ndarray, k_max: int):
    # Yields (bound on ||P_k||_2, P_k) for P_k = step(P_{k-1}), k = 1..k_max.
    for _ in range(k_max):
        P = step(P)
        yield _norm_bound(P), P


def _tau_sweep(powers, rho: float, k_max: int, exact: bool) -> TauEstimate:
    """Running maximum of ||M^k||_2 / rho^k over the pairs (bound, P) of
    powers, for k = 1..k_max, where bound >= ||M^k||_2.

    With exact, the 2-norm of P is taken only where the bound, lifted by
    BOUND_MARGIN, could still pass the strict update, so skipping leaves
    value and argmax_k as a full sweep would give them; otherwise the
    bound stands in for the norm.  Since g(k) = ||M^k|| / rho^k has
    g(a + b) <= g(a) g(b), one K with g(K) <= 1 makes the sweep over
    k < K the sup over every k (certified).
    """
    best, arg, certified = 1.0, 0, False
    for k, (bound, P) in enumerate(powers, start=1):
        if bound == 0.0:  # M^k = 0, and so is every later power
            certified = True
            continue
        rk = rho**k
        top = bound * (1.0 + BOUND_MARGIN) / rk
        certified = certified or top <= 1.0
        if top <= best:
            continue
        val = (float(np.linalg.norm(P, 2)) if exact else bound) / rk
        if val > best:
            best, arg = val, k
    return TauEstimate(
        value=best,
        rho=rho,
        argmax_k=arg,
        k_max=k_max,
        unconverged=arg == k_max,
        certified=certified,
        exact=exact,
    )


def jsr_bounds(A_list, k_max: int = 8, budget: int = 100_000) -> JsrBounds:
    """Bracket the joint spectral radius by product enumeration.

    Level k stacks the products A_{i_1} ... A_{i_k} of the kept prefixes
    of level k - 1, each extended on the right by every mode, as one
    matmul with one batched 2-norm and eigvals call (Gripenberg, Linear
    Algebra Appl. 234, 1996).  It contributes max rho(W)^{1/k} to the
    lower bound and max ||W||^{1/k} to the upper bound (minimized over
    levels).  Prefixes that provably cannot influence either bound are
    pruned; every product, level 1 included, counts against the budget,
    and when it runs out the bounds from completed levels are returned
    with complete=False.  Level 1 is always enumerated.
    """
    mats = np.asarray(A_list, dtype=float)
    W = mats
    norms = np.linalg.norm(W, 2, axis=(1, 2))
    beta = float(norms.max())
    lower, upper, maxima = 0.0, float("inf"), []
    count, complete = 0, True
    for k in range(1, max(k_max, 1) + 1):
        if k > 1:
            # A prefix W of k - 1 modes is useless once no extension can
            # reach the current lower bound at any remaining depth j:
            # ||W V|| <= ||W|| beta^(j-k+1).
            # The thresholds are Python float powers: numpy's vectorized
            # powers may differ in the last bit and so prune a different
            # frontier.
            mask = np.zeros(len(norms), dtype=bool)
            for j in range(k, k_max + 1):
                mask |= norms * beta ** (j - k + 1) >= lower**j
            need = int(mask.sum()) * len(mats)
            if need == 0:
                break
            # Checked before indexing: W[mask] copies the kept prefixes,
            # and on a level the budget refuses that copy only doubles
            # the peak.
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


def kappa_estimate(A_list, xi: float, jsr: JsrBounds | None = None) -> KappaEstimate:
    """Transient constant sup_k max_{|W|=k} ||W|| / xi^k over every k >= 0.

    xi must be positive and dominate the joint-spectral-radius upper
    bound of jsr (XiTooSmall otherwise); jsr defaults to
    jsr_bounds(A_list) and supplies the level maxima m_k.  Since
    g(k) = m_k / xi^k has g(a + b) <= g(a) g(b), one completed level K
    with g(K) <= 1, lifted by BOUND_MARGIN, bounds every k = qK + r by
    g(r): the maximum over the completed levels is then the sup over
    every k (complete).  The level K that sets jsr.upper has
    g(K) = (upper / xi)^K < 1 whenever xi > upper, so only an xi within
    the 1e-12 slack below upper can leave the maximum uncertified.
    """
    if not xi > 0.0:
        raise XiTooSmall(f"xi = {xi} is not positive")
    if jsr is None:
        jsr = jsr_bounds(A_list)
    if xi < jsr.upper - 1e-12:
        raise XiTooSmall(
            f"xi = {xi} is below the certified joint-spectral-radius "
            f"upper bound {jsr.upper}"
        )
    best, arg, complete = 1.0, 0, False
    for k, top in enumerate(jsr.level_maxima, start=1):
        rk = xi**k
        complete = complete or top * (1.0 + BOUND_MARGIN) <= rk
        val = top / rk
        if val > best:
            best, arg = val, k
    return KappaEstimate(
        value=best,
        xi=xi,
        argmax_k=arg,
        k_max=jsr.levels_completed,
        complete=complete,
    )


def second_moment_evolution(
    model: MjsModel, x0, t_max: int, init_dist=None
) -> np.ndarray:
    """Per-mode second moments E[x_t x_t' 1{w_t = i}] for t = 0..t_max.

    Autonomous, noise free.  Returns shape (t_max+1, s, n, n).  Stacking
    the vectorized blocks reproduces powers of the augmented matrix
    acting on the initial stack.  Raises DimensionMismatch unless x0
    has shape (n,).
    """
    x0 = _check_x0(x0, model.n)
    init, _ = _resolve_init_dist(model, init_dist)
    op = MomentOperator(model.A, model.T)
    out = np.empty((t_max + 1, model.s, model.n, model.n))
    out[0] = init[:, None, None] * np.outer(x0, x0)
    for t in range(t_max):
        out[t + 1] = op.apply(out[t])
    return out


@dataclass
class StabilityReport:
    rho_aug: float
    is_mss: bool
    rho_used: float
    tau: TauEstimate
    jsr: JsrBounds
    xi_used: float
    kappa: KappaEstimate
    a_bar: float
    b_bar: float
    t_bar: float

    def to_dict(self) -> dict:
        return {
            "rho_aug": self.rho_aug,
            "is_mss": self.is_mss,
            "rho_used": self.rho_used,
            "tau": self.tau.value,
            "tau_argmax_k": self.tau.argmax_k,
            "tau_unconverged": self.tau.unconverged,
            "tau_certified": self.tau.certified,
            "tau_exact": self.tau.exact,
            "jsr_lower": self.jsr.lower,
            "jsr_upper": self.jsr.upper,
            "jsr_levels": self.jsr.levels_completed,
            "jsr_complete": self.jsr.complete,
            "xi_used": self.xi_used,
            "kappa": self.kappa.value,
            "kappa_argmax_k": self.kappa.argmax_k,
            "kappa_unconverged": self.kappa.unconverged,
            "a_bar": self.a_bar,
            "b_bar": self.b_bar,
            "t_bar": self.t_bar,
        }


def stability_report(
    model: MjsModel,
    rho: float | None = None,
    xi: float | None = None,
    k_max_tau: int = 64,
    k_max_jsr: int = 8,
    budget: int = 100_000,
) -> StabilityReport:
    """All stability diagnostics of one model in a single pass.

    rho defaults to 1.01 * rho_aug (kept below 1 when rho_aug is); the
    same lift applies to xi on top of the certified joint-spectral-
    radius upper bound.  A rho below rho_aug, or NaN, raises RhoTooSmall.
    """
    op = MomentOperator(model.A, model.T)
    rho_aug = op.rho()
    if rho is None:
        rho_used = default_level(rho_aug)
    else:
        _check_rho(rho, rho_aug)
        rho_used = rho
    tau = op.tau(rho_used, k_max_tau)
    jsr = jsr_bounds(model.A, k_max=k_max_jsr, budget=budget)
    xi_used = default_level(jsr.upper) if xi is None else xi
    kappa = kappa_estimate(model.A, xi_used, jsr=jsr)
    return StabilityReport(
        rho_aug=rho_aug,
        is_mss=rho_aug < 1.0,
        rho_used=rho_used,
        tau=tau,
        jsr=jsr,
        xi_used=xi_used,
        kappa=kappa,
        a_bar=jsr.level_maxima[0],
        b_bar=float(np.linalg.norm(model.B, 2, axis=(1, 2)).max()) if model.p else 0.0,
        t_bar=float(model.T.max()),
    )


@dataclass
class StabilityComparison:
    report: StabilityReport
    report_reduced: StabilityReport
    eps_rho: float
    rho_gap_forward: float
    rho_gap_reverse: float
    bound_rho_forward: float
    bound_rho_reverse: float
    xi_gap_forward_certified: float
    xi_gap_reverse_certified: float
    bound_xi_forward: float
    bound_xi_reverse: float
    lemma_gap_rho: float

    def to_dict(self) -> dict:
        return {
            "eps_rho": self.eps_rho,
            "rho_gap_forward": self.rho_gap_forward,
            "rho_gap_reverse": self.rho_gap_reverse,
            "bound_rho_forward": self.bound_rho_forward,
            "bound_rho_reverse": self.bound_rho_reverse,
            "xi_gap_forward_certified": self.xi_gap_forward_certified,
            "xi_gap_reverse_certified": self.xi_gap_reverse_certified,
            "bound_xi_forward": self.bound_xi_forward,
            "bound_xi_reverse": self.bound_xi_reverse,
            "lemma_gap_rho": self.lemma_gap_rho,
            "original": self.report.to_dict(),
            "reduced": self.report_reduced.to_dict(),
        }


def stability_comparison(
    model: MjsModel,
    reduction: ReductionResult,
    branch: str | None = None,
    rho: float | None = None,
    rho_hat: float | None = None,
    xi: float | None = None,
    xi_hat: float | None = None,
    **sweep_kwargs,
) -> StabilityComparison:
    """Compare stability levels of a model and its reduction.

    Evaluates the two-sided spectral-radius perturbation bounds with
    eps_rho = sqrt(s) ((2 Abar + eps_A) eps_A + Abar^2 eps_T) and the
    analogous joint-spectral-radius bounds with kappa eps_A.  The
    reverse direction uses the transient constants of the expanded
    system (reduced matrices copied over each cluster, transition
    matrix from construct_T0), whose augmented spectral radius agrees
    with the reduced one; lemma_gap_rho records that agreement.
    """
    branch = branch or reduction.branch
    partition = reduction.partition
    reduced = reduction.reduced
    eps = perturbations(model, partition, branch)
    rep = stability_report(model, rho=rho, xi=xi, **sweep_kwargs)
    rep_hat = stability_report(reduced, rho=rho_hat, xi=xi_hat, **sweep_kwargs)
    eps_rho = float(
        np.sqrt(model.s)
        * ((2.0 * rep.a_bar + eps.eps_A) * eps.eps_A + rep.a_bar**2 * eps.eps_T)
    )
    T_bar = construct_T0(model.T, partition, branch=branch)
    expanded = expand_reduced(reduced, partition, T_bar)
    op_bar = MomentOperator(expanded.A, expanded.T)
    rho_aug_bar = op_bar.rho()
    _check_rho(rep_hat.rho_used, rho_aug_bar)
    tau_bar = op_bar.tau(rep_hat.rho_used, rep_hat.tau.k_max)
    kappa_bar = rep_hat.kappa  # expanded mode set equals the reduced one
    return StabilityComparison(
        report=rep,
        report_reduced=rep_hat,
        eps_rho=eps_rho,
        rho_gap_forward=rep_hat.rho_aug - rep.rho_aug,
        rho_gap_reverse=rep.rho_aug - rep_hat.rho_aug,
        bound_rho_forward=rep.tau.value * eps_rho + (rep.rho_used - rep.rho_aug),
        bound_rho_reverse=tau_bar.value * eps_rho
        + (rep_hat.rho_used - rep_hat.rho_aug),
        xi_gap_forward_certified=rep_hat.jsr.lower - rep.jsr.upper,
        xi_gap_reverse_certified=rep.jsr.lower - rep_hat.jsr.upper,
        bound_xi_forward=rep.kappa.value * eps.eps_A + (rep.xi_used - rep.jsr.lower),
        bound_xi_reverse=kappa_bar.value * eps.eps_A
        + (rep_hat.xi_used - rep_hat.jsr.lower),
        lemma_gap_rho=abs(rho_aug_bar - rep_hat.rho_aug),
    )
