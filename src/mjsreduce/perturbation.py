"""Partition perturbation metrics and the misclustering bound.

All pair sums run over ordered pairs (i, i') within a cluster, so each
unordered pair contributes twice; diagonal terms vanish.  Cluster means
and block sums come from Partition; mr_bound refuses a negative or NaN
kmeans_eps with InputError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import InfeasibleBlock, InputError, SizeMismatch
from .clustering import (
    FeatureMatrix,
    build_features_aggregatable,
    build_features_lumpable,
    check_branch,
)
from .model import MjsModel, Partition

__all__ = [
    "PerturbationTriple",
    "MrBoundReport",
    "perturbations",
    "averaged_feature_matrix",
    "combine_perturbations",
    "bound_from_constants",
    "mr_bound",
    "construct_T0",
]


@dataclass
class PerturbationTriple:
    eps_A: float
    eps_B: float
    eps_T: float
    branch: str


@dataclass
class MrBoundReport:
    branch: str
    weights: tuple[float, float, float]
    eps: PerturbationTriple
    eps_combined: float
    sigma_r_phibar: float
    threshold_nonzero: float
    threshold_zero: float
    bound_value: float
    applicable: bool
    predicted_mr_zero: bool
    kmeans_eps: float
    gamma1: float | None = None
    gamma2: float | None = None
    gamma3: float | None = None

    def to_dict(self) -> dict:
        return {
            "branch": self.branch,
            "weights": list(self.weights),
            "eps_A": self.eps.eps_A,
            "eps_B": self.eps.eps_B,
            "eps_T": self.eps.eps_T,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "gamma3": self.gamma3,
            "sigma_r_phibar": self.sigma_r_phibar,
            "eps_combined": self.eps_combined,
            "threshold_nonzero": self.threshold_nonzero,
            "threshold_zero": self.threshold_zero,
            "bound_value": self.bound_value,
            "applicable": self.applicable,
            "predicted_mr_zero": self.predicted_mr_zero,
        }


# Pair differences are formed this many entries at a time, which bounds
# the memory of the pair sums on large clusters.
PAIR_CHUNK = 1 << 22


def _pair_norm_sum(X: np.ndarray, partition: Partition, ord: int) -> float:
    """Sum of ||X[i] - X[i']|| over ordered within-cluster pairs (i, i'),
    each X[i] flattened: ord=2 gives Frobenius norms, ord=1 l1 norms."""
    flat = X.reshape(len(X), X[0].size)
    labels = partition.labels
    pairs = np.argwhere(np.triu(labels[:, None] == labels, 1))
    step = max(1, PAIR_CHUNK // max(1, flat.shape[1]))
    return 2.0 * sum(
        float(np.linalg.norm(flat[ij[:, 0]] - flat[ij[:, 1]], ord, axis=1).sum())
        for ij in np.split(pairs, range(step, len(pairs), step))
    )


def perturbations(
    model: MjsModel, partition: Partition, branch: str
) -> PerturbationTriple:
    """How far (model, partition) is from exact reducibility.

    eps_A and eps_B sum Frobenius distances between the dynamics of
    within-cluster mode pairs.  eps_T depends on the branch:
    "lumpable" compares cluster-block row sums, "aggregatable" compares
    whole transition rows in the l1 norm.
    """
    check_branch(branch)
    if partition.s != model.s:
        raise SizeMismatch(
            f"partition covers {partition.s} modes, model has {model.s}"
        )
    eps_A = _pair_norm_sum(model.A, partition, 2)
    eps_B = _pair_norm_sum(model.B, partition, 2)
    rows = partition.block_sums(model.T) if branch == "lumpable" else model.T
    eps_T = _pair_norm_sum(rows, partition, 1)
    return PerturbationTriple(eps_A=eps_A, eps_B=eps_B, eps_T=eps_T, branch=branch)


def averaged_feature_matrix(
    feats: FeatureMatrix | np.ndarray, partition: Partition
) -> tuple[np.ndarray, float]:
    """Replace each feature row by its cluster mean; also return sigma_r.

    sigma_r is the r-th singular value of the averaged matrix, r being
    the number of clusters.
    """
    phi = feats.phi if isinstance(feats, FeatureMatrix) else np.asarray(feats, float)
    if phi.shape[0] != partition.s:
        raise SizeMismatch(
            f"feature matrix has {phi.shape[0]} rows, partition covers {partition.s}"
        )
    phibar = partition.cluster_means(phi)[partition.labels]
    sv = np.linalg.svd(phibar, compute_uv=False)
    return phibar, float(sv[partition.r - 1])


def combine_perturbations(
    weights, eps: PerturbationTriple, gamma3: float | None = None
) -> float:
    """Weighted combination feeding the misclustering bound.

    Aggregatable: sqrt(aA^2 eA^2 + aB^2 eB^2 + aT^2 eT^2).  The lumpable
    variant passes gamma3, which multiplies the transition term.
    """
    g = 1.0 if gamma3 is None else gamma3
    wa, wb, wt = weights
    return float(
        np.sqrt(
            (wa * eps.eps_A) ** 2
            + (wb * eps.eps_B) ** 2
            + (wt * g * eps.eps_T) ** 2
        )
    )


def bound_from_constants(
    sigma_r: float, eps_combined: float, kmeans_eps: float = 1.0
) -> float:
    """Misclustering bound 64 (2 + eps) sigma_r^{-2} eps_combined^2."""
    if sigma_r <= 0:
        return float("inf")
    return 64.0 * (2.0 + kmeans_eps) * eps_combined**2 / sigma_r**2


def _chain_constants(
    model: MjsModel, r: int, feats: FeatureMatrix
) -> tuple[float, float, float]:
    """(gamma1, gamma2, gamma3) for the lumpable bound."""
    eigs = np.linalg.eigvals(model.T)
    perron = int(np.argmin(np.abs(eigs - 1.0)))
    rest = np.delete(eigs, perron)
    gaps = np.abs(1.0 - rest)
    gamma1 = float(np.sum(1.0 / gaps)) if np.all(gaps > 0) else float("inf")
    sv = np.linalg.svd(feats.H, compute_uv=False)
    tail = sv[r] if r < len(sv) else 0.0
    gamma2 = float(min(sv[r - 1] - tail, 1.0))
    if gamma2 <= 0 or not np.isfinite(gamma1):
        gamma3 = float("inf")
    else:
        gamma3 = float(
            16.0
            * gamma1
            * np.sqrt(r * model.pi.max())
            * np.linalg.norm(model.T)
            / (gamma2 * model.pi.min() ** 2)
        )
    return gamma1, gamma2, gamma3


def mr_bound(
    model: MjsModel,
    partition: Partition,
    branch: str,
    kmeans_eps: float = 1.0,
    weights=None,
) -> MrBoundReport:
    """Evaluate the misclustering bound for a given partition.

    The bound is 64 (2 + kmeans_eps) sigma_r^{-2} eps_combined^2, where
    sigma_r is the r-th singular value of the cluster-averaged feature
    matrix.  `applicable` records whether the premises hold: full rank
    of the averaged features and eps_combined at most

        sigma_r sqrt(|C_(r)| + |C_(1)|) / (8 sqrt((2+eps) |C_(1)|))

    with an extra sqrt(s) inside the denominator root on the lumpable
    branch, which additionally needs eps_T <= pi_min / gamma1 (vacuous if gamma1 = 0).
    |C_(1)| and |C_(r)| are the largest and smallest cluster sizes.
    predicted_mr_zero records the stronger premise
    eps_combined <= sigma_r / (8 sqrt((2+eps) |C_(1)|)) under which the
    estimated partition is error free.

    Raises InputError unless kmeans_eps >= 0.
    """
    check_branch(branch)
    if not kmeans_eps >= 0:
        raise InputError(f"kmeans_eps must be nonnegative, got {kmeans_eps}")
    r = partition.r
    if branch == "aggregatable":
        feats = build_features_aggregatable(model, weights)
        g1 = g2 = g3 = None
    else:
        feats = build_features_lumpable(model, r, weights)
        g1, g2, g3 = _chain_constants(model, r, feats)
    eps = perturbations(model, partition, branch)
    eps_combined = combine_perturbations(feats.weights, eps, g3)
    phibar, sigma_r = averaged_feature_matrix(feats, partition)
    big = partition.size_largest
    small = partition.size_smallest
    extra = model.s if branch == "lumpable" else 1.0
    denom = 8.0 * np.sqrt(extra * (2.0 + kmeans_eps) * big)
    threshold_nonzero = sigma_r * np.sqrt(small + big) / denom
    threshold_zero = sigma_r / (8.0 * np.sqrt((2.0 + kmeans_eps) * big))
    applicable = sigma_r > 1e-10 and eps_combined <= threshold_nonzero
    if branch == "lumpable":
        applicable = applicable and (g1 == 0.0 or eps.eps_T <= model.pi.min() / g1)
    return MrBoundReport(
        branch=branch,
        weights=feats.weights,
        eps=eps,
        eps_combined=eps_combined,
        sigma_r_phibar=sigma_r,
        threshold_nonzero=float(threshold_nonzero),
        threshold_zero=float(threshold_zero),
        bound_value=bound_from_constants(sigma_r, eps_combined, kmeans_eps),
        applicable=bool(applicable),
        predicted_mr_zero=bool(eps_combined <= threshold_zero),
        kmeans_eps=kmeans_eps,
        gamma1=g1,
        gamma2=g2,
        gamma3=g3,
    )


def _lp_row_adjustment(
    row: np.ndarray, partition: Partition, deficits: np.ndarray, i: int
) -> np.ndarray:
    """Feasibility LP fallback for one row's block adjustment."""
    res = scipy.optimize.linprog(
        c=np.zeros(len(row)),
        A_eq=(np.arange(partition.r)[:, None] == partition.labels).astype(float),
        b_eq=deficits,
        bounds=list(zip(-row, 1.0 - row)),
        method="highs",
    )
    if not res.success:
        raise InfeasibleBlock(f"no feasible adjustment for row {i}")
    return res.x


def construct_T0(
    T: np.ndarray, partition: Partition, eps_T: float | None = None, branch: str = "lumpable"
) -> np.ndarray:
    """A nearby chain whose cluster-block sums are cluster-constant.

    Lumpable branch: within each row i and block C_l, mass is shifted
    toward the cluster-average block sum, proportionally to headroom
    (1 - T(i, j)) when adding and to existing mass when removing; every
    adjusted entry moves in the same direction and stays in [0, 1], and
    rows stay stochastic.  If a block defeats the proportional scheme a
    feasibility LP handles that row; if that also fails InfeasibleBlock
    names the row.

    Aggregatable branch: each row is replaced by its cluster-average row.

    When eps_T is given the result is checked against it in both the
    max-absolute-row-sum and Frobenius norms (InfeasibleBlock on
    violation); by construction the distance never exceeds the measured
    branch perturbation of (T, partition).
    """
    check_branch(branch)
    T = np.asarray(T, dtype=float)
    if partition.s != T.shape[0]:
        raise SizeMismatch(
            f"partition covers {partition.s} modes, T is {T.shape[0]} x {T.shape[1]}"
        )
    labels = partition.labels
    if branch == "aggregatable":
        T0 = partition.cluster_means(T)[labels]
    else:
        block = partition.block_sums(T)
        deficits = partition.cluster_means(block)[labels] - block
        d = deficits[:, labels]
        share = np.where(d > 0, 1.0 - T, T)
        total = partition.block_sums(share)[:, labels]
        delta = np.divide(d * share, total, out=np.zeros_like(T), where=total > 0)
        for i in np.flatnonzero((total < np.abs(d) - 1e-15).any(axis=1)):
            delta[i] = _lp_row_adjustment(T[i], partition, deficits[i], i)
        T0 = T + delta
    T0 = np.clip(T0, 0.0, 1.0)
    T0 = T0 / T0.sum(axis=1, keepdims=True)
    if eps_T is not None:
        diff = T0 - T
        inf_norm = float(np.abs(diff).sum(axis=1).max())
        fro_norm = float(np.linalg.norm(diff))
        slack = 1e-9
        if inf_norm > eps_T + slack or fro_norm > eps_T + slack:
            raise InfeasibleBlock(
                f"adjusted chain is {inf_norm:.3e} (max row) / {fro_norm:.3e} "
                f"(Frobenius) away, beyond the budget {eps_T:.3e}"
            )
    return T0
