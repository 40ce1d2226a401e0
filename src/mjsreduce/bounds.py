"""Trajectory and distribution approximation bounds.

Quantities feeding the bounds live in BoundInputs: worst-case mode
norms, transient constants from the stability module, perturbation
sizes of the partition, and run data (initial state, input ceiling).
Each bound evaluates its formula even when its premises fail; premise
checks are exposed separately so callers can flag such evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse

from .errors import DimensionMismatch, InputError, NotNormalized, TooLarge, TooManySequences
from .model import MjsModel, Partition, _check_x0, _resolve_init_dist, simulate_coupled_batch
from .perturbation import perturbations
from .stability import stability_report

__all__ = [
    "BoundInputs",
    "KernelDistribution",
    "DiffStats",
    "mss_premises",
    "mss_traj_bound",
    "corollary_sum_bound",
    "us_premises",
    "us_traj_bound",
    "wasserstein_kernel_bound",
    "transition_kernel_enum",
    "kernel_mean_cov",
    "w2_moment_lower_bound",
    "wasserstein_exact",
    "empirical_traj_diff",
]


@dataclass
class BoundInputs:
    """Constants entering the approximation bounds."""

    n: int
    s: int
    r: int
    a_bar: float
    b_bar: float
    t_bar: float
    T_norm: float
    rho: float
    tau: float
    xi: float
    kappa: float
    eps_A: float
    eps_B: float
    eps_T: float
    x0_norm: float
    u_bar: float = 0.0

    @property
    def rho0(self) -> float:
        return 0.5 * (1.0 + self.rho)

    @property
    def xi0(self) -> float:
        return 0.5 * (1.0 + self.xi)

    @classmethod
    def from_model(
        cls,
        model: MjsModel,
        partition: Partition,
        branch: str,
        x0,
        u_bar: float = 0.0,
        rho: float | None = None,
        xi: float | None = None,
        **report_kwargs,
    ) -> "BoundInputs":
        """The constants of model, partition and x0; DimensionMismatch
        unless x0 has shape (n,)."""
        x0 = _check_x0(x0, model.n)
        rep = stability_report(model, rho=rho, xi=xi, **report_kwargs)
        eps = perturbations(model, partition, branch)
        return cls(
            n=model.n,
            s=model.s,
            r=partition.r,
            a_bar=rep.a_bar,
            b_bar=rep.b_bar,
            t_bar=rep.t_bar,
            T_norm=float(np.linalg.norm(model.T, 2)),
            rho=rep.rho_used,
            tau=rep.tau.value,
            xi=rep.xi_used,
            kappa=rep.kappa.value,
            eps_A=eps.eps_A,
            eps_B=eps.eps_B,
            eps_T=eps.eps_T,
            x0_norm=float(np.linalg.norm(x0)),
            u_bar=u_bar,
        )


def mss_premises(b: BoundInputs) -> tuple[bool, list[str]]:
    """Premises of the mean-square trajectory bound."""
    reasons = []
    if not b.rho < 1.0:
        reasons.append(f"rho = {b.rho} is not below 1")
    # All A_i = 0 gives a_bar = 0: the second term is then +inf, cap 0.
    scale = 6.0 * b.tau * b.a_bar * b.T_norm
    cap = min(b.a_bar, (1.0 - b.rho) / scale if scale else np.inf)
    if b.eps_A > cap:
        reasons.append(f"eps_A = {b.eps_A:.3g} exceeds {cap:.3g}")
    if b.eps_B > b.b_bar:
        reasons.append(f"eps_B = {b.eps_B:.3g} exceeds b_bar = {b.b_bar:.3g}")
    return (not reasons, reasons)


def mss_traj_bound(b: BoundInputs, t: int) -> float:
    """Bound on E||x_t - xhat_t|| under mean-square stability.

    4 sqrt(n sqrt(s)) tau [ rho0^((t-1)/2) sqrt(t Abar ||T|| eps_A) ||x0||
      + sqrt(Bbar) ubar ( sqrt(rho0)/(1-sqrt(rho0))^2 sqrt(Abar ||T|| eps_A)
                          + sqrt(2)/(1-sqrt(rho0)) sqrt(eps_B) ) ].
    At t = 0 the trajectories share x0, so the bound is 0.
    """
    if t == 0:
        return 0.0
    r0 = b.rho0
    drive = b.a_bar * b.T_norm * b.eps_A
    term_x0 = r0 ** ((t - 1) / 2.0) * np.sqrt(t * drive) * b.x0_norm
    sq = np.sqrt(r0)
    term_u = (
        np.sqrt(b.b_bar)
        * b.u_bar
        * (sq / (1.0 - sq) ** 2 * np.sqrt(drive) + np.sqrt(2.0) / (1.0 - sq) * np.sqrt(b.eps_B))
        if b.u_bar > 0.0
        else 0.0
    )
    return float(4.0 * np.sqrt(b.n * np.sqrt(b.s)) * b.tau * (term_x0 + term_u))


def corollary_sum_bound(b: BoundInputs, delta: float, p: int) -> tuple[float, str]:
    """Whole-trajectory probabilistic bound in the autonomous case.

    With probability at least 1 - delta,
    sum_t ||x_t - xhat_t|| <= 4 sqrt(n p) tau ||x0|| sqrt(Abar eps_A)
                              / (delta (1 - sqrt(rho0))^2),
    evaluated exactly as stated.  The returned note records that the
    prefactor uses sqrt(n p) with the input dimension p, unlike the
    per-step bound's sqrt(n sqrt(s)), so it degenerates for p = 0.
    """
    val = (
        4.0
        * np.sqrt(b.n * p)
        * b.tau
        * b.x0_norm
        * np.sqrt(b.a_bar * b.eps_A)
        / (delta * (1.0 - np.sqrt(b.rho0)) ** 2)
    )
    note = (
        "prefactor sqrt(n*p) uses the input dimension and differs from the "
        "per-step bound's sqrt(n*sqrt(s)); the value is 0 when p = 0"
    )
    return float(val), note


def us_premises(b: BoundInputs) -> tuple[bool, list[str]]:
    """Premises of the uniform-stability trajectory bound."""
    reasons = []
    if not b.xi < 1.0:
        reasons.append(f"xi = {b.xi} is not below 1")
    cap = (1.0 - b.xi) / (2.0 * b.kappa) if b.xi < 1.0 else 0.0
    if b.eps_A > cap:
        reasons.append(f"eps_A = {b.eps_A:.3g} exceeds {cap:.3g}")
    if b.eps_B > b.b_bar:
        reasons.append(f"eps_B = {b.eps_B:.3g} exceeds b_bar = {b.b_bar:.3g}")
    return (not reasons, reasons)


def us_traj_bound(b: BoundInputs, t: int) -> float:
    """Almost-sure bound on ||x_t - xhat_t|| under uniform stability.

    t xi0^(t-1) kappa^2 ||x0|| eps_A
      + 2 (1 + t xi0^t) kappa^2 Bbar ubar / (1 - xi0) eps_A
      + kappa ubar / (1 - xi) eps_B.
    """
    x0 = b.xi0
    term1 = t * x0 ** (t - 1) * b.kappa**2 * b.x0_norm * b.eps_A if t > 0 else 0.0
    if b.u_bar > 0.0:
        term2 = 2.0 * (1.0 + t * x0**t) * b.kappa**2 * b.b_bar * b.u_bar / (1.0 - x0) * b.eps_A
        term3 = b.kappa * b.u_bar / (1.0 - b.xi) * b.eps_B
    else:
        term2 = term3 = 0.0
    return float(term1 + term2 + term3)


def _check_order(ell) -> None:
    # Below 1 the transport cost is no metric; 0 would divide by zero.
    if not ell >= 1:
        raise InputError(f"transport order ell must be at least 1, got {ell!r}")


def wasserstein_kernel_bound(b: BoundInputs, t: int, ell: int = 1) -> float:
    """Bound on the order-ell transport distance between the time-t
    state laws of the original and reduced autonomous systems:

    t xi0^(t-1) kappa^2 ||x0|| eps_A
      + 2 r^2 t kappa ||x0|| r^t (kappa eps_A + xi)^t
        (Tbar + eps_T)^((t-2)/ell) eps_T^(1/ell).

    Raises InputError unless ell >= 1.
    """
    _check_order(ell)
    x0 = b.xi0
    term1 = t * x0 ** (t - 1) * b.kappa**2 * b.x0_norm * b.eps_A if t > 0 else 0.0
    if b.eps_T > 0.0:
        term2 = (
            2.0
            * b.r**2
            * t
            * b.kappa
            * b.x0_norm
            * b.r**t
            * (b.kappa * b.eps_A + b.xi) ** t
            * (b.t_bar + b.eps_T) ** ((t - 2.0) / ell)
            * b.eps_T ** (1.0 / ell)
        )
    else:
        term2 = 0.0
    return float(term1 + term2)


@dataclass
class KernelDistribution:
    """Finitely supported law of x_t: support points and their masses."""

    support: np.ndarray
    mass: np.ndarray
    t: int

    def __post_init__(self) -> None:
        self.support = np.atleast_2d(np.asarray(self.support, dtype=float))
        self.mass = np.asarray(self.mass, dtype=float)

    @property
    def size(self) -> int:
        return self.support.shape[0]


def transition_kernel_enum(
    model: MjsModel,
    x0,
    t: int,
    init_dist=None,
    cap: int = 200_000,
    dedup_tol: float = 1e-10,
) -> KernelDistribution:
    """Exact law of x_t for an autonomous model by path enumeration.

    Walks all mode sequences of length t one level at a time (pruning
    zero-probability branches), in the order of a depth-first walk over
    the modes, collecting endpoint states and their probabilities.
    Each point, in that order, is merged into the first kept point that
    lies within dedup_tol * max(||x0||, 1) and shares its cell of a grid
    of that width; masses are added in point order.  Raises
    DimensionMismatch for a negative t or an x0 not of shape (n,),
    TooManySequences when s^t exceeds the cap, TooLarge when the model
    has inputs.
    """
    if t < 0:
        raise DimensionMismatch(f"t must be a nonnegative step count, got {t}")
    if model.p and np.any(model.B != 0.0):
        raise TooLarge("transition kernels are defined for autonomous models")
    if model.s**t > cap:
        raise TooManySequences(f"s^t = {model.s**t} exceeds the cap {cap}")
    x0 = _check_x0(x0, model.n)
    init, _ = _resolve_init_dist(model, init_dist)
    if t == 0:
        return KernelDistribution(support=np.array([x0]), mass=np.ones(1), t=0)
    # One row per live path: its last mode, probability and state.
    modes = np.flatnonzero(init > 0.0)
    q = init[modes]
    X = (model.A[modes] @ x0[:, None])[..., 0]
    for _ in range(t - 1):
        # Row-major nonzeros: each path's children in mode order, i.e.
        # the depth-first order of the paths.
        weights = q[:, None] * model.T[modes]
        rows, modes = np.nonzero(weights > 0.0)
        q = weights[rows, modes]
        X = (model.A[modes] @ X[rows][..., None])[..., 0]
    tol = dedup_tol * max(float(np.linalg.norm(x0)), 1.0)
    support, label = _merge_points(X, tol)
    mass = np.bincount(label, weights=q, minlength=len(support))
    return KernelDistribution(support=support, mass=mass, t=t)


def _merge_points(X: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy merge of the rows of X, in row order, into the first kept
    row within tol in the same cell of a grid of width tol.  Returns
    the kept rows, in order of appearance, and each row's kept index.
    """
    # Equal rows always share a cell and merge into the same kept row,
    # so the greedy pass only visits the distinct rows.
    first, inverse = _equal_rows(X)
    distinct = X[first]
    keys = np.round(distinct / max(tol, 1e-300)).astype(np.int64)
    _, cell = _equal_rows(keys)
    rep = np.arange(len(distinct))
    kept_in: dict[int, list[int]] = {}
    for i in np.flatnonzero(np.bincount(cell)[cell] > 1):
        kept = kept_in.setdefault(int(cell[i]), [])
        for j in kept:
            if np.linalg.norm(distinct[j] - distinct[i]) <= tol:
                rep[i] = j
                break
        else:
            kept.append(i)
    is_kept = rep == np.arange(len(distinct))
    index = np.cumsum(is_kept) - 1
    return distinct[is_kept], index[rep][inverse]


def _equal_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Groups of equal rows of X, numbered in order of first appearance:
    the first row of each group, and each row's group."""
    order = np.lexsort(X.T)  # stable: equal rows keep row order
    ordered = X[order]
    starts = np.ones(len(X), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    group = np.cumsum(starts) - 1
    first = order[starts]
    appearance = np.argsort(first)
    rank = np.empty_like(appearance)
    rank[appearance] = np.arange(len(first))
    inverse = np.empty_like(order)
    inverse[order] = rank[group]
    return first[appearance], inverse


def kernel_mean_cov(k: KernelDistribution) -> tuple[np.ndarray, np.ndarray]:
    mu = k.mass @ k.support / k.mass.sum()
    centered = k.support - mu
    S = (centered * k.mass[:, None]).T @ centered / k.mass.sum()
    return mu, S


def _psd_sqrt(S: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def w2_moment_lower_bound(p: KernelDistribution, q: KernelDistribution) -> float:
    """sqrt(||mu_p - mu_q||^2 + d(S_p, S_q)) <= W_2(p, q), where
    d(S, S') = tr(S + S' - 2 (S^{1/2} S' S^{1/2})^{1/2})."""
    mp, Sp = kernel_mean_cov(p)
    mq, Sq = kernel_mean_cov(q)
    R = _psd_sqrt(Sp)
    cross = _psd_sqrt(R @ Sq @ R)
    d = float(np.trace(Sp) + np.trace(Sq) - 2.0 * np.trace(cross))
    d = max(d, 0.0)
    return float(np.sqrt(np.linalg.norm(mp - mq) ** 2 + d))


def wasserstein_exact(
    p: KernelDistribution,
    q: KernelDistribution,
    ell: int = 1,
    return_plan: bool = False,
):
    """Order-ell transport distance between finitely supported laws.

    Solves the transportation linear program exactly (HiGHS): minimize
    sum f(a, b) ||x_a - y_b||^ell over nonnegative plans f with row
    marginals p.mass and column marginals q.mass, and returns the
    objective to the power 1/ell.  Raises NotNormalized when either
    mass vector is off 1 by more than 1e-9, InputError unless ell >= 1.
    """
    _check_order(ell)
    for name, k in (("first", p), ("second", q)):
        if abs(k.mass.sum() - 1.0) > 1e-9:
            raise NotNormalized(
                f"{name} distribution has total mass {k.mass.sum()!r}"
            )
    a = p.mass / p.mass.sum()
    b = q.mass / q.mass.sum()
    m, k = len(a), len(b)
    diff = p.support[:, None, :] - q.support[None, :, :]
    cost = np.linalg.norm(diff, axis=2) ** ell
    # Equality constraints on the row-major plan: row sums then column
    # sums (last one dropped as redundant).
    A_eq = scipy.sparse.vstack(
        [
            scipy.sparse.kron(scipy.sparse.eye(m), np.ones((1, k))),
            scipy.sparse.kron(np.ones((1, m)), scipy.sparse.eye(k), format="csr")[:-1],
        ],
        format="csr",
    )
    b_eq = np.concatenate([a, b[:-1]])
    res = scipy.optimize.linprog(
        c=cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )
    if not res.success:
        raise NotNormalized(f"transport program failed: {res.message}")
    value = float(max(res.fun, 0.0) ** (1.0 / ell))
    if return_plan:
        return value, res.x.reshape(m, k)
    return value


@dataclass
class DiffStats:
    """Per-step statistics of ||x_t - xhat_t|| over a batch of runs."""

    t: np.ndarray
    mean_diff: np.ndarray
    max_diff: np.ndarray
    n_traj: int


def empirical_traj_diff(
    model: MjsModel,
    reduced: MjsModel,
    partition: Partition,
    x0,
    horizon: int,
    n_traj: int,
    seed=None,
    noise_std: float = 0.0,
    init_dist=None,
) -> DiffStats:
    """Monte Carlo estimate of the coupled trajectory difference."""
    states, red_states, _ = simulate_coupled_batch(
        model,
        reduced,
        partition,
        x0,
        horizon,
        n_traj,
        noise_std=noise_std,
        seed=seed,
        init_dist=init_dist,
    )
    diff = np.linalg.norm(states - red_states, axis=2)
    return DiffStats(
        t=np.arange(horizon + 1),
        mean_diff=diff.mean(axis=0),
        max_diff=diff.max(axis=0),
        n_traj=n_traj,
    )
