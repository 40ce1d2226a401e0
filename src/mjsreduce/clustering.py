"""Spectral-embedding clustering of modes and model reduction.

Each mode is embedded as one row of a feature matrix built from its
dynamics matrices and either its raw transition row (aggregatable
branch) or a rank-r spectral summary of the chain (lumpable branch).
k-means on the top singular subspace of the feature matrix yields the
cluster estimate; averaging within clusters yields the reduced model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import (
    BadWeights,
    DegenerateInput,
    DimensionMismatch,
    RankDeficient,
    SizeMismatch,
)
from .model import MjsModel, Partition, stationary_distribution

__all__ = [
    "BRANCHES",
    "check_branch",
    "FeatureMatrix",
    "ReductionResult",
    "default_weights",
    "build_features_aggregatable",
    "build_features_lumpable",
    "kmeans_partition",
    "reduce_model",
    "average_model",
    "misclustering_rate",
]

# The two notions of exact reducibility: equal transition rows within a
# cluster (aggregatable) or equal cluster-block row sums (lumpable).
BRANCHES = ("aggregatable", "lumpable")


def check_branch(branch: str) -> None:
    """Raise DimensionMismatch unless branch is one of BRANCHES."""
    if branch not in BRANCHES:
        raise DimensionMismatch(f"unknown branch {branch!r}; choose from {BRANCHES}")


@dataclass
class FeatureMatrix:
    """Per-mode feature rows plus the pieces used to build them."""

    phi: np.ndarray
    weights: tuple[float, float, float]
    branch: str
    H: np.ndarray | None = None
    W_r: np.ndarray | None = None
    S_r: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.phi.shape[1]


@dataclass
class ReductionResult:
    partition: Partition
    reduced: MjsModel
    objective: float
    restarts_used: int
    branch: str
    embedding: np.ndarray

    def to_dict(self) -> dict:
        from .model import model_to_dict

        return {
            "partition": self.partition.to_lists_1based(),
            "reduced": model_to_dict(self.reduced),
            "objective": self.objective,
            "restarts_used": self.restarts_used,
        }


def default_weights(model: MjsModel) -> tuple[float, float, float]:
    """Feature block weights, inversely proportional to the blocks' scale.

    alpha_A ~ 1 / max_i ||A_i||, alpha_B ~ 1 / max_i ||B_i||,
    alpha_T ~ 1 / ||T|| (spectral norms), normalized to sum to one.
    A block with zero scale (e.g. p = 0) gets weight zero.
    """
    a = np.linalg.norm(model.A, 2, axis=(1, 2)).max()
    b = np.linalg.norm(model.B, 2, axis=(1, 2)).max() if model.p else 0.0
    t = np.linalg.norm(model.T, 2)
    raw = np.array(
        [1.0 / a if a > 0 else 0.0, 1.0 / b if b > 0 else 0.0, 1.0 / t if t > 0 else 0.0]
    )
    total = raw.sum()
    if total <= 0:
        raise BadWeights("model has no nonzero feature block")
    w = raw / total
    return (float(w[0]), float(w[1]), float(w[2]))


def _check_weights(weights) -> tuple[float, float, float]:
    w = np.asarray(weights, dtype=float)
    if w.shape != (3,):
        raise BadWeights(f"weights must be a triple, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise BadWeights(f"weights must be finite and nonnegative, got {w.tolist()}")
    if abs(w.sum() - 1.0) > 1e-12:
        raise BadWeights(f"weights must sum to 1, got {w.sum()!r}")
    return (float(w[0]), float(w[1]), float(w[2]))


def _ab_block(model: MjsModel, wa: float, wb: float) -> np.ndarray:
    # Column-major vectorization of each mode's matrices.
    s = model.s
    va = model.A.transpose(0, 2, 1).reshape(s, -1)
    vb = model.B.transpose(0, 2, 1).reshape(s, -1)
    return np.hstack([wa * va, wb * vb])


def build_features_aggregatable(
    model: MjsModel, weights=None
) -> FeatureMatrix:
    """Feature rows [a_A vec(A_i), a_B vec(B_i), a_T T(i, :)]."""
    w = default_weights(model) if weights is None else _check_weights(weights)
    phi = np.hstack([_ab_block(model, w[0], w[1]), w[2] * model.T])
    return FeatureMatrix(phi=phi, weights=w, branch="aggregatable")


def build_features_lumpable(
    model: MjsModel, r: int, weights=None
) -> FeatureMatrix:
    """Feature rows [a_A vec(A_i), a_B vec(B_i), a_T S_r(i, :)].

    S_r is a stationary-scaled rank-r spectral summary of the chain:
    with D = diag(pi) and H = D^{1/2} T D^{-1/2}, W_r holds the top-r
    left singular vectors of H and S_r = D^{-1/2} W_r.

    Raises DegenerateInput if r > s, RankDeficient if sigma_r(H) is
    numerically zero, NotErgodic if the chain has no stationary law.
    """
    if r > model.s:
        raise DegenerateInput(f"r = {r} exceeds the mode count s = {model.s}")
    w = default_weights(model) if weights is None else _check_weights(weights)
    pi = stationary_distribution(model.T).pi
    d = np.sqrt(pi)
    H = (model.T * d[:, None]) / d[None, :]
    U, sv, _ = np.linalg.svd(H)
    if sv[r - 1] < 1e-12:
        raise RankDeficient(
            f"sigma_{r}(H) = {sv[r - 1]:.3e} is numerically zero"
        )
    W_r = U[:, :r]
    S_r = W_r / d[:, None]
    phi = np.hstack([_ab_block(model, w[0], w[1]), w[2] * S_r])
    return FeatureMatrix(phi=phi, weights=w, branch="lumpable", H=H, W_r=W_r, S_r=S_r)


def _kmeans_plus_plus(points: np.ndarray, r: int, rng: np.random.Generator) -> np.ndarray:
    s = points.shape[0]
    centers = np.empty((r, points.shape[1]))
    centers[0] = points[rng.integers(s)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for k in range(1, r):
        total = d2.sum()
        if total <= 0:
            # All remaining points duplicate chosen centers.
            centers[k] = points[rng.integers(s)]
            continue
        probs = d2 / total
        idx = int(rng.choice(s, p=probs))
        centers[k] = points[idx]
        d2 = np.minimum(d2, ((points - centers[k]) ** 2).sum(axis=1))
    return centers


def _lloyd(
    points: np.ndarray, centers: np.ndarray, max_iter: int = 300
) -> tuple[np.ndarray, np.ndarray, float]:
    r = centers.shape[0]
    labels = np.full(points.shape[0], -1)
    for _ in range(max_iter):
        dist2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dist2, axis=1)
        # Repair empty clusters by reseeding from the farthest point.
        for k in range(r):
            if np.any(new_labels == k):
                continue
            assigned = dist2[np.arange(len(points)), new_labels]
            far = int(np.argmax(assigned))
            if assigned[far] <= 0:
                continue  # nothing to split off; cluster stays empty
            centers[k] = points[far]
            new_labels[far] = k
            dist2[:, k] = ((points - centers[k]) ** 2).sum(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in range(r):
            mask = labels == k
            if np.any(mask):
                centers[k] = points[mask].mean(axis=0)
    dist2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(dist2, axis=1)
    objective = float(dist2[np.arange(len(points)), labels].sum())
    return labels, centers, objective


def kmeans_partition(
    points: np.ndarray, r: int, restarts: int = 50, seed=None
) -> tuple[Partition, np.ndarray, float]:
    """Best-of-restarts k-means on the rows of `points`.

    Seeding is k-means++ per restart; each restart runs Lloyd iterations
    to a fixed assignment.  Returns (partition, centers, objective) of
    the lowest-objective run (first found wins ties).  Clusters that
    stay empty after repair are dropped, so the partition can have fewer
    than r clusters when the points carry fewer than r distinct values.

    Raises DimensionMismatch if r < 1, DegenerateInput if there are
    fewer points than clusters.
    """
    points = np.asarray(points, dtype=float)
    if r < 1:
        raise DimensionMismatch(f"cluster count must be at least 1, got {r}")
    if restarts < 1:
        raise DegenerateInput("restarts must be at least 1")
    if points.shape[0] < r:
        raise DegenerateInput(
            f"cannot form {r} clusters from {points.shape[0]} points"
        )
    best = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        centers = _kmeans_plus_plus(points, r, rng)
        labels, centers, objective = _lloyd(points, centers)
        if best is None or objective < best[2]:
            best = (labels, centers, objective)
    labels, centers, objective = best
    # Partition orders clusters by smallest member; line the centers up.
    used, first = np.unique(labels, return_index=True)
    return Partition.from_labels(labels), centers[used[np.argsort(first)]], objective


def average_model(
    model: MjsModel, partition: Partition, pi_weighted: bool = False
) -> MjsModel:
    """Cluster-averaged reduced model.

    Plain averaging: A_k = mean of A_i over the cluster, likewise B_k;
    T(k, l) = |C_k|^{-1} sum_{i in C_k, j in C_l} T(i, j).  With
    pi_weighted=True the averages use stationary-probability weights
    instead of uniform ones (no equivalence between the two is claimed).
    """
    if partition.s != model.s:
        raise SizeMismatch(
            f"partition covers {partition.s} modes, model has {model.s}"
        )
    w = stationary_distribution(model.T).pi if pi_weighted else None
    A = partition.cluster_means(model.A, w)
    B = partition.cluster_means(model.B, w)
    T = partition.block_sums(partition.cluster_means(model.T, w))
    return MjsModel(A, B, T)


def _reduce_one_branch(
    model: MjsModel,
    r: int,
    branch: str,
    weights,
    restarts: int,
    seed,
    pi_weighted: bool,
) -> ReductionResult:
    check_branch(branch)
    if branch == "aggregatable":
        feats = build_features_aggregatable(model, weights)
    else:
        feats = build_features_lumpable(model, r, weights)
    U, _, _ = np.linalg.svd(feats.phi, full_matrices=False)
    embedding = U[:, :r]
    partition, _, objective = kmeans_partition(
        embedding, r, restarts=restarts, seed=seed
    )
    reduced = average_model(model, partition, pi_weighted=pi_weighted)
    return ReductionResult(
        partition=partition,
        reduced=reduced,
        objective=objective,
        restarts_used=restarts,
        branch=branch,
        embedding=embedding,
    )


def reduce_model(
    model: MjsModel,
    r: int,
    branch: str | None = None,
    weights=None,
    restarts: int = 50,
    seed=None,
    pi_weighted: bool = False,
) -> ReductionResult:
    """Cluster the modes into r groups and average within clusters.

    branch selects the transition features: "aggregatable" uses raw
    transition rows, "lumpable" uses the spectral summary S_r.  With
    branch=None both run and the partition whose measured perturbation
    vector (eps_T, eps_A + eps_B) is lexicographically smaller wins,
    each branch scored under its own transition semantics; ties go to
    the aggregatable candidate.

    Raises DimensionMismatch if r < 1, DegenerateInput if r > s.
    """
    if r < 1:
        raise DimensionMismatch(f"cluster count must be at least 1, got {r}")
    if r > model.s:
        raise DegenerateInput(f"r = {r} exceeds the mode count s = {model.s}")
    if branch is not None:
        return _reduce_one_branch(
            model, r, branch, weights, restarts, seed, pi_weighted
        )
    from .errors import ComputationError
    from .perturbation import perturbations

    candidates = [
        _reduce_one_branch(model, r, "aggregatable", weights, restarts, seed, pi_weighted)
    ]
    try:
        candidates.append(
            _reduce_one_branch(model, r, "lumpable", weights, restarts, seed, pi_weighted)
        )
    except ComputationError:
        pass  # lumpable features unavailable (e.g. non-ergodic chain)
    scored = []
    for res in candidates:
        eps = perturbations(model, res.partition, res.branch)
        scored.append(((eps.eps_T, eps.eps_A + eps.eps_B), res))
    scored.sort(key=lambda t: (t[0], t[1].branch))  # aggregatable wins ties
    return scored[0][1]


def misclustering_rate(
    estimated: Partition, truth: Partition, method: str = "auto"
) -> float:
    """Fraction-weighted disagreement between two partitions.

    Over bijections h between cluster labels, minimizes
    sum_k |{i in truth_k : i not in est_{h(k)}}| / |truth_k|.
    Exhaustive search for r <= 8 (or method="exhaustive"); otherwise a
    linear assignment on the miscount matrix.  Range [0, r].
    """
    if estimated.s != truth.s:
        raise SizeMismatch(
            f"partitions cover different mode counts: {estimated.s} vs {truth.s}"
        )
    if estimated.r != truth.r:
        raise SizeMismatch(
            f"partitions have different cluster counts: {estimated.r} vs {truth.r}"
        )
    r = truth.r
    # shared[k, m] = |truth_k & est_m|, so cost[k, m] = |truth_k - est_m| / |truth_k|.
    shared = np.bincount(truth.labels * r + estimated.labels, minlength=r * r).reshape(r, r)
    sizes = np.array(truth.sizes)[:, None]
    cost = (sizes - shared) / sizes
    if method == "auto":
        method = "exhaustive" if r <= 8 else "assignment"
    if method == "exhaustive":
        best = min(
            sum(cost[k, h[k]] for k in range(r))
            for h in itertools.permutations(range(r))
        )
        return float(best)
    row, col = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[row, col].sum())
