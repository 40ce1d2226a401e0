"""Spectral-embedding clustering of modes and model reduction.

Each mode is embedded as one row of a feature matrix built from its
dynamics matrices and either its raw transition row (aggregatable
branch) or a rank-r spectral summary of the chain (lumpable branch).
k-means on the top singular subspace of the feature matrix yields the
cluster estimate; averaging within clusters yields the reduced model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import (
    BadWeights,
    ComputationError,
    DegenerateInput,
    DimensionMismatch,
    InputError,
    NotConverged,
    RankDeficient,
    SizeMismatch,
)
from .model import MjsModel, Partition, _is_integer, model_to_dict

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


def _check_cluster_count(r) -> None:
    """Raise DimensionMismatch unless r is an integer of at least 1."""
    if not _is_integer(r) or r < 1:
        raise DimensionMismatch(f"cluster count must be an integer of at least 1, got {r!r}")


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

    Raises DimensionMismatch unless r is an integer of at least 1,
    DegenerateInput if r > s, RankDeficient if sigma_r(H) is
    numerically zero, NotErgodic if the chain has no stationary law.
    """
    _check_cluster_count(r)
    if r > model.s:
        raise DegenerateInput(f"r = {r} exceeds the mode count s = {model.s}")
    w = default_weights(model) if weights is None else _check_weights(weights)
    d = np.sqrt(model.pi)
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


# Lloyd gives up on a restart after this many assignment rounds.
MAX_ITER = 300
# Elements of the (restarts, s, r, d) difference block built at a time.
_BLOCK = 1 << 16


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (restarts, s, r) from the points to each
    restart's centers (restarts, r, d).

    Each entry is summed over the last axis of a difference block, as a
    lone restart sums its (s, r, d) block; the block is built a few
    restarts at a time to bound the temporaries.  An overflow leaves
    inf in place silently; the callers refuse it as DegenerateInput.
    """
    R, r, d = centers.shape
    s = points.shape[0]
    step = max(1, _BLOCK // max(1, s * r * d))
    out = np.empty((R, s, r))
    with np.errstate(over="ignore"):
        for lo in range(0, R, step):
            diff = points[None, :, None, :] - centers[lo : lo + step, None]
            out[lo : lo + step] = np.square(diff, out=diff).sum(axis=3)
    return out


def _seed(pair: np.ndarray, r: int, rngs: list) -> np.ndarray:
    """k-means++ seeds as point indices (restarts, r), one generator per
    restart; pair[i] holds the squared distances from point i.

    Each generator draws what a lone restart draws, in the same order:
    integers(s) for the first center, then per further center one
    uniform, mapped through the cdf of the squared distances as
    Generator.choice(s, p=d2 / d2.sum()) maps it, or integers(s) once
    every squared distance is zero.
    """
    s = len(pair)
    seeds = np.empty((len(rngs), r), dtype=int)
    seeds[:, 0] = [g.integers(s) for g in rngs]
    d2 = pair[seeds[:, 0]]
    for k in range(1, r):
        total = d2.sum(axis=1)
        if not np.all(np.isfinite(total)):
            raise DegenerateInput("squared distances between the points overflow")
        live = total > 0
        cdf = (d2[live] / total[live, None]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        u = np.array([g.random() for g, on in zip(rngs, live) if on])
        seeds[live, k] = (cdf <= u[:, None]).sum(axis=1)
        # All remaining points duplicate chosen centers.
        seeds[~live, k] = [g.integers(s) for g, on in zip(rngs, live) if not on]
        d2 = np.minimum(d2, pair[seeds[:, k]])
    return seeds


def _repair(points: np.ndarray, centers: np.ndarray, labels: np.ndarray, dist2: np.ndarray) -> None:
    """Reseed one restart's empty clusters from its farthest point, in place."""
    rows = np.arange(len(points))
    for k in range(centers.shape[0]):
        if np.any(labels == k):
            continue
        assigned = dist2[rows, labels]
        far = int(np.argmax(assigned))
        if assigned[far] <= 0:
            continue  # nothing to split off; cluster stays empty
        centers[k] = points[far]
        labels[far] = k
        dist2[:, k] = np.square(points - centers[k]).sum(axis=1)


def _sizes(labels: np.ndarray, r: int) -> np.ndarray:
    """Cluster sizes (restarts, r) under each row of labels (restarts, s)."""
    R = len(labels)
    return np.bincount((np.arange(R)[:, None] * r + labels).ravel(), minlength=R * r).reshape(R, r)


def _cluster_means(points: np.ndarray, labels: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Cluster means (restarts, r, d) and sizes (restarts, r) of the
    points under each row of labels (restarts, s); empty clusters get 0.

    The sums add rows in the order points[mask].mean(axis=0) adds them:
    one after another when d > 1, and pairwise (numpy's 1-D sum) when
    d = 1.
    """
    R = len(labels)
    flat = (np.arange(R)[:, None] * r + labels).ravel()
    sizes = np.bincount(flat, minlength=R * r)
    cols = np.tile(points.T, R)
    sums = np.zeros((R * r, points.shape[1]))
    if points.shape[1] == 1:
        # reduceat sums a segment as "first element + pairwise sum of the
        # rest", so a zero ahead of each segment gives np.sum's order.
        filled = np.flatnonzero(sizes)
        starts = np.cumsum(sizes[filled]) - sizes[filled]
        led = np.insert(cols[0, np.argsort(flat, kind="stable")], starts, 0.0)
        sums[filled, 0] = np.add.reduceat(led, starts + np.arange(len(starts)))
    else:
        for j, col in enumerate(cols):
            sums[:, j] = np.bincount(flat, weights=col, minlength=R * r)
    sizes = sizes.reshape(R, r)
    return sums.reshape(R, r, points.shape[1]) / np.maximum(sizes, 1)[..., None], sizes


def _lloyd(
    points: np.ndarray, centers: np.ndarray, dist2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iterations on every restart's centers (restarts, r, d), in
    place, from their squared distances dist2 (restarts, s, r).

    A restart stops, without a center update, at the first assignment
    equal to its previous one.  Returns the squared distance from each
    point to its nearest final center (restarts, s), the index of that
    center, and the indices of the restarts still moving after MAX_ITER
    assignments.
    """
    R, r, _ = centers.shape
    labels = np.full((R, points.shape[0]), -1)
    near = np.empty(labels.shape)
    nearest = np.empty_like(labels)
    active = np.arange(R)
    for _ in range(MAX_ITER):
        new = dist2.argmin(axis=2)
        for a in np.flatnonzero((_sizes(new, r) == 0).any(axis=1)):
            _repair(points, centers[active[a]], new[a], dist2[a])
        moved = (new != labels[active]).any(axis=1)
        # A stopped restart's centers are final, and so are its distances.
        near[active[~moved]] = dist2[~moved].min(axis=2)
        nearest[active[~moved]] = dist2[~moved].argmin(axis=2)
        active, new = active[moved], new[moved]
        if active.size == 0:
            break
        labels[active] = new
        means, sizes = _cluster_means(points, new, r)
        filled = sizes > 0
        update = centers[active]
        update[filled] = means[filled]
        centers[active] = update
        dist2 = _sq_dists(points, update)
    else:
        # Out of rounds: the distances to the last centers are final.
        near[active] = dist2.min(axis=2)
        nearest[active] = dist2.argmin(axis=2)
    return near, nearest, active


def kmeans_partition(
    points: np.ndarray, r: int, restarts: int = 50, seed=None
) -> tuple[Partition, np.ndarray, float]:
    """Best-of-restarts k-means on the rows of `points`.

    Seeding is k-means++ per restart; each restart runs Lloyd iterations
    to a fixed assignment.  Returns (partition, centers, objective) of
    the lowest-objective run (first found wins ties).  Clusters that
    stay empty after repair are dropped, so the partition can have fewer
    than r clusters when the points carry fewer than r distinct values.

    All restarts run together, as arrays with a leading restart axis,
    and the result equals that of running them one by one: restart i
    seeds from its own generator, default_rng(SeedSequence(seed).spawn(
    restarts)[i]), which draws integers(s) for the first center and then
    one uniform per further center (integers(s) once every squared
    distance is zero); its Lloyd iterations stop at the first repeated
    assignment, and its sums run in the order of a lone restart.

    Raises DimensionMismatch if points is not 2-D or r is not an integer
    of at least 1; InputError if points holds NaN or infinite values or
    restarts is not an integer; DegenerateInput if restarts < 1, if
    there are fewer points than clusters, or if squared distances
    overflow; NotConverged if the winning restart is still moving after
    MAX_ITER Lloyd iterations.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DimensionMismatch(f"points must form a 2-D array, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise InputError("points must be finite")
    _check_cluster_count(r)
    if not _is_integer(restarts):
        raise InputError(f"restarts must be an integer, got {restarts!r}")
    if restarts < 1:
        raise DegenerateInput("restarts must be at least 1")
    if points.shape[0] < r:
        raise DegenerateInput(
            f"cannot form {r} clusters from {points.shape[0]} points"
        )
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(restarts)]
    # Seeds are points, so one table of point-to-point distances serves
    # the seeding and the first assignment.
    pair = _sq_dists(points, points[:, None])[..., 0]
    seeds = _seed(pair, r, rngs)
    centers = points[seeds]
    near, nearest, moving = _lloyd(points, centers, pair[seeds].transpose(0, 2, 1))
    objectives = near.sum(axis=1)
    best = int(np.argmin(objectives))
    if not np.isfinite(objectives[best]):
        raise DegenerateInput("squared distances between the points overflow")
    if best in moving:
        raise NotConverged(
            f"k-means restart {best} still moves after {MAX_ITER} Lloyd iterations"
        )
    labels = nearest[best]
    # Partition orders clusters by smallest member; line the centers up.
    used, first = np.unique(labels, return_index=True)
    return (
        Partition.from_labels(labels),
        centers[best][used[np.argsort(first)]],
        float(objectives[best]),
    )


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
    w = model.pi if pi_weighted else None
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

    Raises DimensionMismatch unless r is an integer of at least 1,
    DegenerateInput if r > s.
    """
    _check_cluster_count(r)
    if r > model.s:
        raise DegenerateInput(f"r = {r} exceeds the mode count s = {model.s}")
    if branch is not None:
        return _reduce_one_branch(
            model, r, branch, weights, restarts, seed, pi_weighted
        )
    # perturbation imports this module at load time, so import it here.
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


def misclustering_rate(estimated: Partition, truth: Partition) -> float:
    """Fraction-weighted disagreement between two partitions.

    Over bijections h between cluster labels, minimizes
    sum_k |{i in truth_k : i not in est_{h(k)}}| / |truth_k|, by a
    linear assignment on the miscount matrix; the matched costs are
    summed in truth-cluster order.  Range [0, r].

    An estimate with fewer clusters than the truth, as kmeans_partition
    returns when the points carry fewer than r distinct values, is
    padded with empty clusters, so a truth cluster left without a match
    costs 1.  Raises SizeMismatch if the mode counts differ or the
    estimate has more clusters than the truth.
    """
    if estimated.s != truth.s:
        raise SizeMismatch(
            f"partitions cover different mode counts: {estimated.s} vs {truth.s}"
        )
    if estimated.r > truth.r:
        raise SizeMismatch(
            f"estimate has more clusters than the truth: {estimated.r} vs {truth.r}"
        )
    r = truth.r
    # shared[k, m] = |truth_k & est_m|, so cost[k, m] = |truth_k - est_m| / |truth_k|.
    shared = np.bincount(truth.labels * r + estimated.labels, minlength=r * r).reshape(r, r)
    sizes = np.array(truth.sizes)[:, None]
    cost = (sizes - shared) / sizes
    row, col = scipy.optimize.linear_sum_assignment(cost)
    return float(sum(cost[row, col].tolist()))
