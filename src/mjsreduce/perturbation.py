"""The misclustering bound and the nearby exactly lumpable chain.

The perturbation sizes themselves, perturbations and PerturbationTriple,
live in clustering, beside the two notions of exact reducibility they
measure, so that reduce_model can score its branches without importing
this module; they are imported back here.  Cluster means and block sums
come from Partition; mr_bound refuses a negative, infinite or NaN
kmeans_eps with InputError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, PartitionMismatch
from .clustering import PerturbationTriple, _branch_features, check_branch, perturbations
from .model import MjsModel, Partition, _chain_violations

__all__ = [
    "PerturbationTriple",
    "MrBoundReport",
    "perturbations",
    "mr_bound",
    "construct_T0",
]


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


def _chain_constants(
    model: MjsModel, r: int, sv: np.ndarray
) -> tuple[float, float, float]:
    """(gamma1, gamma2, gamma3) for the lumpable bound, from the
    singular values sv of the scaled chain H (see FeatureMatrix)."""
    eigs = np.linalg.eigvals(model.T)
    perron = int(np.argmin(np.abs(eigs - 1.0)))
    rest = np.delete(eigs, perron)
    gaps = np.abs(1.0 - rest)
    gamma1 = float(np.sum(1.0 / gaps)) if np.all(gaps > 0) else float("inf")
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

    The bound is 64 (2 + kmeans_eps) sigma_r^{-2} eps_combined^2 (inf
    when sigma_r = 0), where sigma_r is the r-th singular value of the
    feature matrix with each row replaced by its cluster mean, and

        eps_combined = sqrt(aA^2 eA^2 + aB^2 eB^2 + (aT g eT)^2)

    weighs the perturbations by the feature weights (aA, aB, aT), with
    g = gamma3 on the lumpable branch and 1 on the aggregatable one.
    `applicable` records whether the premises hold: full rank
    of the averaged features and eps_combined at most

        sigma_r sqrt(|C_(r)| + |C_(1)|) / (8 sqrt((2+eps) |C_(1)|))

    with an extra sqrt(s) inside the denominator root on the lumpable
    branch, which additionally needs eps_T <= pi_min / gamma1 (vacuous if gamma1 = 0).
    |C_(1)| and |C_(r)| are the largest and smallest cluster sizes.
    predicted_mr_zero records the stronger premise
    eps_combined <= sigma_r / (8 sqrt((2+eps) |C_(1)|)) under which the
    estimated partition is error free.

    Raises PartitionMismatch unless the partition covers the model's
    modes, on either branch; InputError unless kmeans_eps is finite and
    nonnegative.
    """
    partition._check_covers(model.s)
    if not 0 <= kmeans_eps < np.inf:
        raise InputError(f"kmeans_eps must be finite and nonnegative, got {kmeans_eps}")
    r = partition.r
    feats = _branch_features(model, r, branch, weights)
    g1 = g2 = g3 = None
    if branch == "lumpable":
        g1, g2, g3 = _chain_constants(model, r, feats.sv)
    eps = perturbations(model, partition, branch)
    wa, wb, wt = feats.weights
    g = 1.0 if g3 is None else g3
    eps_combined = float(
        np.sqrt((wa * eps.eps_A) ** 2 + (wb * eps.eps_B) ** 2 + (wt * g * eps.eps_T) ** 2)
    )
    # phibar, the features with each row replaced by its cluster mean,
    # has phibar^T phibar = M^T diag(|C|) M for the cluster means M, so
    # the r x d matrix diag(sqrt|C|) M has its nonzero singular values.
    root = np.sqrt(np.array(partition.sizes, dtype=float))
    scaled = root[:, None] * partition.cluster_means(feats.phi)
    sigma_r = float(np.linalg.svd(scaled, compute_uv=False)[r - 1])
    if sigma_r <= 0:
        bound_value = float("inf")
    else:
        bound_value = 64.0 * (2.0 + kmeans_eps) * eps_combined**2 / sigma_r**2
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
        bound_value=bound_value,
        applicable=bool(applicable),
        predicted_mr_zero=bool(eps_combined <= threshold_zero),
        kmeans_eps=kmeans_eps,
        gamma1=g1,
        gamma2=g2,
        gamma3=g3,
    )


def construct_T0(T: np.ndarray, partition: Partition, branch: str = "lumpable") -> np.ndarray:
    """A nearby chain whose cluster-block sums are cluster-constant.

    Lumpable branch: within each row i and block C_l, mass is shifted
    toward the cluster-average block sum d, proportionally to headroom
    (1 - T(i, j)) when adding and to existing mass when removing:
    delta = d share / total, with total the block's summed share.
    Every adjusted entry moves in the same direction; clipped to
    [0, 1], rows stay stochastic.  A chain's block is short of room
    (total < |d|) only on a singleton whose cluster mean passes 1, by
    rounding or the 1e-9 row-sum tolerance, and the clip takes its
    overshoot back to exactly 1.

    Aggregatable branch: each row is replaced by its cluster-average row.

    By construction the distance to T, in both the max-absolute-row-sum
    and Frobenius norms, never exceeds the measured branch perturbation
    of (T, partition).  Raises PartitionMismatch unless T is s x s, and
    InputError unless T is a chain by MjsModel's rule: finite,
    nonnegative, rows summing to 1 within 1e-9.
    """
    check_branch(branch)
    T = np.asarray(T, dtype=float)
    if T.shape != (partition.s, partition.s):
        raise PartitionMismatch(f"partition covers {partition.s} modes, T has shape {T.shape}")
    violations = _chain_violations(T)
    if violations:
        raise InputError("T is not a chain: " + "; ".join(violations))
    labels = partition.labels
    if branch == "aggregatable":
        T0 = partition.cluster_means(T)[labels]
    else:
        block = partition.block_sums(T)
        d = (partition.cluster_means(block)[labels] - block)[:, labels]
        share = np.where(d > 0, 1.0 - T, T)
        total = partition.block_sums(share)[:, labels]
        T0 = T + np.divide(d * share, total, out=np.zeros_like(T), where=total > 0)
    T0 = np.clip(T0, 0.0, 1.0)
    return T0 / T0.sum(axis=1, keepdims=True)
