"""Spectral-embedding clustering of modes and model reduction.

Each mode is embedded as one row of a feature matrix built from its
dynamics matrices and either its raw transition row (aggregatable
branch) or a rank-r spectral summary of the chain (lumpable branch).
k-means on the top singular subspace of the feature matrix yields the
cluster estimate; averaging within clusters yields the reduced model.
perturbations measures how far a partition is from exact reducibility;
its pair sums run over ordered pairs (i, i') within a cluster, so each
unordered pair contributes twice, and diagonal terms vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.optimize

from .errors import (
    BadWeights,
    ComputationError,
    DegenerateInput,
    DimensionMismatch,
    InputError,
    NotConverged,
    PartitionMismatch,
    RankDeficient,
)
from .model import MjsModel, Partition, _check_count, _check_seed, model_to_dict

__all__ = [
    "PerturbationTriple",
    "perturbations",
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
class PerturbationTriple:
    eps_A: float
    eps_B: float
    eps_T: float
    branch: str


# Pair differences are formed this many entries at a time, which bounds
# the memory of the pair sums on large clusters.
PAIR_CHUNK = 1 << 22


def _pair_norm_sum(X: np.ndarray, pairs: np.ndarray, ord: int) -> float:
    """Sum of ||X[i] - X[i']|| over ordered within-cluster pairs (i, i'),
    given the unordered pairs i < i' as rows of pairs, each X[i]
    flattened: ord=2 gives Frobenius norms, ord=1 l1 norms."""
    flat = X.reshape(len(X), X[0].size)
    step = max(1, PAIR_CHUNK // max(1, flat.shape[1]))
    return 2.0 * sum(
        _norm_sum(flat[ij[:, 0]], flat[ij[:, 1]], ord)
        for ij in np.split(pairs, range(step, len(pairs), step))
    )


# A sum past the float range is inf, as it should be.
@np.errstate(over="ignore")
def _norm_sum(U: np.ndarray, V: np.ndarray, ord: int) -> float:
    """Sum of ||U[k] - V[k]|| over the rows of U and V, whose entries
    are finite.  A norm that overflows is taken again on its two rows
    times 2^-e, exactly, with e the exponent of their largest |entry|,
    and scaled back by 2^e, so finite norms keep their bits."""
    norms = np.linalg.norm(U - V, ord, axis=1)
    far = ~np.isfinite(norms)
    if far.any():
        U, V = U[far], V[far]
        e = np.frexp(np.maximum(np.abs(U), np.abs(V)).max(axis=1))[1]
        scaled = np.ldexp(U, -e[:, None]) - np.ldexp(V, -e[:, None])
        norms[far] = np.ldexp(np.linalg.norm(scaled, ord, axis=1), e)
    return float(norms.sum())


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
    partition._check_covers(model.s)
    labels = partition.labels
    pairs = np.argwhere(np.triu(labels[:, None] == labels, 1))
    eps_A = _pair_norm_sum(model.A, pairs, 2)
    eps_B = _pair_norm_sum(model.B, pairs, 2)
    rows = partition.block_sums(model.T) if branch == "lumpable" else model.T
    eps_T = _pair_norm_sum(rows, pairs, 1)
    return PerturbationTriple(eps_A=eps_A, eps_B=eps_B, eps_T=eps_T, branch=branch)


@dataclass
class FeatureMatrix:
    """Per-mode feature rows; on the lumpable branch, sv holds the
    singular values of the scaled chain H they were built from."""

    phi: np.ndarray
    weights: tuple[float, float, float]
    branch: str
    sv: np.ndarray | None = None

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
    A block with zero scale (e.g. p = 0) gets weight zero.  The T block
    always has a positive weight: MjsModel holds a chain, whose rows sum
    to within 1e-9 of 1, so ||T|| >= 1 - 1e-9.
    """
    a = np.linalg.norm(model.A, 2, axis=(1, 2)).max()
    b = np.linalg.norm(model.B, 2, axis=(1, 2)).max() if model.p else 0.0
    t = np.linalg.norm(model.T, 2)
    raw = np.array([1.0 / a if a > 0 else 0.0, 1.0 / b if b > 0 else 0.0, 1.0 / t])
    w = raw / raw.sum()
    return (float(w[0]), float(w[1]), float(w[2]))


def _check_weights(weights) -> tuple[float, float, float]:
    w = np.asarray(weights, dtype=float)
    if w.shape != (3,):
        raise BadWeights(f"weights must be a triple, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise BadWeights(f"weights must be finite and nonnegative, got {w.tolist()}")
    if abs(w.sum() - 1.0) > 1e-12:
        raise BadWeights(f"weights must sum to 1, got {float(w.sum())!r}")
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
    _check_count("r", r, 1)
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
    S_r = U[:, :r] / d[:, None]
    phi = np.hstack([_ab_block(model, w[0], w[1]), w[2] * S_r])
    return FeatureMatrix(phi=phi, weights=w, branch="lumpable", sv=sv)


def _branch_features(model: MjsModel, r: int, branch: str, weights) -> FeatureMatrix:
    """The feature matrix of branch, for r clusters; DimensionMismatch
    for a branch not in BRANCHES."""
    check_branch(branch)
    if branch == "aggregatable":
        return build_features_aggregatable(model, weights)
    return build_features_lumpable(model, r, weights)


# Lloyd gives up on a restart after this many assignment rounds.
MAX_ITER = 300
# Elements of the (d, centers, s) block of squared differences built at
# a time.
_BLOCK = 1 << 16


def _add_planes(planes: np.ndarray) -> np.ndarray:
    """Sum over the first axis of planes (n, ...) of nonnegative terms,
    in the order in which np.add.reduce sums a contiguous row of n
    terms.  Sums in place and returns planes[0], or zeros when n = 0.

    numpy adds the row to 0, which leaves a nonnegative sum's bits as
    they are.  Below 8 terms it keeps a running sum.  Up to 128 terms, 8
    accumulators take every 8th term, fold as ((a0 + a1) + (a2 + a3)) +
    ((a4 + a5) + (a6 + a7)), and the n % 8 terms left over follow one at
    a time.  Above 128, the halves, split at a multiple of 8, are summed
    so and then added.
    """
    n = len(planes)
    if n == 0:
        return np.zeros(planes.shape[1:])
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _add_planes(planes[:half])
        total += _add_planes(planes[half:])
        return total
    rest = 1
    if n >= 8:
        acc = planes[:8]
        for i in range(8, n - n % 8, 8):
            acc += planes[i : i + 8]
        acc[0::2] += acc[1::2]
        acc[0::4] += acc[2::4]
        acc[0] += acc[4]
        rest = n - n % 8
    for i in range(rest, n):
        planes[0] += planes[i]
    return planes[0]


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (restarts, s, r) from the points (s, d) to each
    restart's centers (restarts, r, d).

    Each distance has the bits of np.square(p - c).sum(), the row sum
    of a lone restart's difference block, so the partitions, centers
    and objectives are those of restarts run one by one: the d
    coordinate planes of squared differences, each a contiguous
    (centers, s) array, are added in np.add.reduce's order for a row of
    d terms (see _add_planes).  Walking the planes costs a few
    whole-array operations per coordinate, where numpy's reduction loop
    pays a fixed cost for every short row.  The planes are built a few
    centers at a time to bound the temporaries.  The result is a view
    whose memory is laid out (restarts, r, s).  An overflow leaves inf
    in place silently; the callers refuse it as DegenerateInput.
    """
    R, r, d = centers.shape
    s = points.shape[0]
    cols = np.ascontiguousarray(points.T)[:, None, :]
    flat = np.ascontiguousarray(centers.reshape(R * r, d).T)[:, :, None]
    step = max(1, _BLOCK // max(1, s * d))
    out = np.empty((R * r, s))
    with np.errstate(over="ignore"):
        for lo in range(0, R * r, step):
            planes = cols - flat[:, lo : lo + step]
            out[lo : lo + step] = _add_planes(np.square(planes, out=planes))
    return out.reshape(R, r, s).transpose(0, 2, 1)


class _Streams(NamedTuple):
    """What each restart's k-means++ seeding draws from its generator,
    default_rng(SeedSequence(seed).spawn(restarts)[i]): integers(s) for
    the first center, then random(r - 1), which numpy fills with the
    numbers of r - 1 scalar random() calls."""

    first: np.ndarray  # (restarts,)
    uniforms: np.ndarray  # (restarts, r - 1)


def _restart_streams(s: int, r: int, restarts: int, seed) -> _Streams:
    """The restart streams of k-means on s points into r clusters.

    Raises DimensionMismatch unless restarts is an integer of at least 1
    and an integer seed is nonnegative, DegenerateInput if s < r.
    """
    _check_count("restarts", restarts, 1)
    _check_seed(seed)
    if s < r:
        raise DegenerateInput(f"cannot form {r} clusters from {s} points")
    first = np.empty(restarts, dtype=int)
    uniforms = np.empty((restarts, r - 1))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(restarts)):
        rng = np.random.default_rng(child)
        first[i] = rng.integers(s)
        uniforms[i] = rng.random(r - 1)
    return _Streams(first, uniforms)


def _seed(pair: np.ndarray, r: int, streams: _Streams) -> np.ndarray:
    """k-means++ seeds as point indices (restarts, r), from each
    restart's stream; pair[i] holds the squared distances from point i.

    Each further center maps the restart's next uniform through the cdf
    of the squared distances, as Generator.choice(s, p=d2 / d2.sum())
    maps it.  The squared distances vanish once every point lies at
    distance 0 from a chosen center: it copies one (kmeans_partition
    answers fewer than r distinct rows before seeding) or differs from
    one by less than about 1e-162.
    Such a restart repeats its first seed for each remaining center:
    every point ties with an earlier center at distance 0, so the
    repeat's cluster stays empty, as that of a lone restart's
    integers(s) draw would.

    The entries of pair are finite (kmeans_partition refuses a table
    that is not), but a sum of them may overflow: the first sums raise
    DegenerateInput then.  Each later sum adds, in the same order, terms
    no larger than those of the one before, so it is finite too.
    """
    first, uniforms = streams
    seeds = np.repeat(first[:, None], r, axis=1)
    live = np.arange(len(first))
    d2 = pair[first]
    for k in range(1, r):
        with np.errstate(over="ignore"):
            total = d2.sum(axis=1)
        if k == 1 and not np.all(np.isfinite(total)):
            raise DegenerateInput("squared distances between the points overflow")
        if not total.all():
            keep = total > 0
            live, d2, total = live[keep], d2[keep], total[keep]
        cdf = (d2 / total[:, None]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        chosen = (cdf <= uniforms[live, k - 1, None]).sum(axis=1)
        seeds[live, k] = chosen
        d2 = np.minimum(d2, pair[chosen])
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
        dist2[:, k] = _sq_dists(points, centers[k][None, None])[0, :, 0]


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
    means = sums / np.maximum(sizes, 1)[:, None]
    return means.reshape(R, r, points.shape[1]), sizes.reshape(R, r)


def _lloyd(
    points: np.ndarray, centers: np.ndarray, dist2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iterations on every restart's centers (restarts, r, d) and
    their squared distances dist2 (restarts, s, r), both in place.

    A restart stops, without a center update, at the first assignment
    equal to its previous one.  A round recomputes only the distance
    columns of centers whose bits changed, possibly none: the distances
    are a function of the center's bits, so the others keep theirs.
    Every distance comes from _sq_dists, summed over the coordinates in
    numpy's row order, as a lone restart's np.square(diff).sum(axis=-1)
    sums it; another order could move a near-tie between two centers,
    and with it the assignment.  Returns the squared distance from each
    point to its nearest final center (restarts, s), the index of that
    center, and the indices of the restarts still moving after MAX_ITER
    assignments.
    """
    R, r, _ = centers.shape
    labels = np.full((R, points.shape[0]), -1)
    active = np.arange(R)
    for _ in range(MAX_ITER):
        new = dist2[active].argmin(axis=2)
        for a in np.flatnonzero((_sizes(new, r) == 0).any(axis=1)):
            _repair(points, centers[active[a]], new[a], dist2[active[a]])
        moved = (new != labels[active]).any(axis=1)
        # A stopped restart's centers are final, and so are its distances.
        active, new = active[moved], new[moved]
        if active.size == 0:
            break
        labels[active] = new
        means, sizes = _cluster_means(points, new, r)
        old = centers[active]
        update = np.where((sizes > 0)[..., None], means, old)
        centers[active] = update
        # != misses -0.0 against 0.0, whose squared distances agree.
        a, k = np.nonzero((update != old).any(axis=2))
        dist2[active[a], :, k] = _sq_dists(points, update[a, k][:, None])[..., 0]
    nearest = dist2.argmin(axis=2)
    return np.take_along_axis(dist2, nearest[..., None], 2)[..., 0], nearest, active


def kmeans_partition(
    points: np.ndarray,
    r: int,
    restarts: int = 50,
    seed=None,
    *,
    _streams: _Streams | None = None,
) -> tuple[Partition, np.ndarray, float]:
    """Best-of-restarts k-means on the rows of `points`.

    Points two of which lie at a squared distance that overflows are
    refused, whatever the seed.  Points with fewer than r distinct rows
    get one cluster per distinct row, the rows in order of first
    appearance as centers, and objective 0.0: the optimum, which every
    restart reaches unless two rows lie within underflow distance.
    Otherwise seeding is k-means++ per restart; each restart runs Lloyd
    iterations to a fixed assignment.  Returns (partition, centers,
    objective) of the lowest-objective run (first found wins ties).
    Clusters that stay empty after repair are dropped, so the partition
    can have fewer than r clusters when rows differ by less than about
    1e-162, so that their squared distances underflow to 0.

    All restarts run together, as arrays with a leading restart axis,
    and the result equals that of running them one by one: restart i
    seeds from its own generator, default_rng(SeedSequence(seed).spawn(
    restarts)[i]), which draws integers(s) for the first center and then
    one uniform per further center; its Lloyd iterations stop at the
    first repeated assignment, and its sums run in the order of a lone
    restart: a squared distance adds its d terms in np.add.reduce's
    order for a contiguous row (a running sum below 8 terms, 8
    accumulators up to 128, halves above; see _sq_dists), and a cluster
    sum adds rows in points[mask].mean(axis=0)'s order (see
    _cluster_means).  The uniforms come from one random(r - 1) call per
    generator, which numpy fills with the numbers of r - 1 scalar calls.
    A restart whose squared distances all vanish repeats its first seed
    where a lone restart draws integers(s); either center's cluster
    stays empty (see _seed).  _streams,
    private to reduce_model, passes the streams that reduce_model builds
    once, before its branch loop, from the same s, r, restarts and seed,
    so every branch draws the same streams; restarts and seed were
    checked when the streams were built.

    Raises DimensionMismatch if points is not 2-D, r or restarts is
    not an integer of at least 1 or an integer seed is negative;
    InputError if points holds NaN or infinite values; DegenerateInput
    if there are fewer points than clusters, or if a squared distance
    between two points, or a sum of them in the seeding or in a
    restart's objective, overflows; NotConverged if the winning restart
    is still moving after MAX_ITER Lloyd iterations.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DimensionMismatch(f"points must form a 2-D array, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise InputError("points must be finite")
    _check_count("r", r, 1)
    if _streams is None:
        _streams = _restart_streams(points.shape[0], r, restarts, seed)
    # Seeds are points, so one table of point-to-point distances serves
    # the seeding and the first assignment.
    pair = _sq_dists(points, points[:, None])[..., 0]
    if not np.all(np.isfinite(pair)):
        raise DegenerateInput("squared distances between the points overflow")
    # Fewer than r distinct rows: one cluster per row.  A copy lies at
    # distance 0 from an earlier point in pair; so does a near-copy whose
    # squared distance underflows, which np.unique tells apart.
    if np.count_nonzero(np.tril(pair == 0.0, -1).any(axis=1)) > len(points) - r:
        _, first, rows = np.unique(points, axis=0, return_index=True, return_inverse=True)
        if len(first) < r:
            return Partition.from_labels(rows.reshape(-1)), points[np.sort(first)], 0.0
    seeds = _seed(pair, r, _streams)
    centers = points[seeds]
    near, nearest, moving = _lloyd(points, centers, pair[seeds].transpose(0, 2, 1))
    with np.errstate(over="ignore"):
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
    partition._check_covers(model.s)
    w = model.pi if pi_weighted else None
    A = partition.cluster_means(model.A, w)
    B = partition.cluster_means(model.B, w)
    T = partition.block_sums(partition.cluster_means(model.T, w))
    return MjsModel(A, B, T)


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
    branch=None the branches run in the order of BRANCHES, and one
    replaces the best so far only if its measured perturbation vector
    (eps_T, eps_A + eps_B) is lexicographically smaller, each branch
    scored under its own transition semantics; ties therefore keep the
    aggregatable candidate.  A lumpable branch that fails with a
    ComputationError (e.g. a non-ergodic chain) drops out.  Only the
    winner is averaged.  Every branch clusters the s modes into r groups
    from the same seed, so one set of restart streams (see
    kmeans_partition) and one computation of the weights serve them all,
    and each equals the reduction with that branch given; under
    seed=None they share one draw of entropy.

    Bad input is refused in one order, whatever the branch: r, the
    branch, the weights, restarts, the seed, then r > s.  Raises
    DimensionMismatch unless r and restarts are integers of at least 1,
    the branch is one of BRANCHES and an integer seed is nonnegative;
    BadWeights for weights that are no nonnegative triple summing to 1;
    DegenerateInput if r > s (k-means cannot form r clusters from s
    points).
    """
    _check_count("r", r, 1)
    if branch is not None:
        check_branch(branch)
    weights = default_weights(model) if weights is None else _check_weights(weights)
    streams = _restart_streams(model.s, r, restarts, seed)
    best = score = None
    for name in BRANCHES if branch is None else (branch,):
        try:
            feats = _branch_features(model, r, name, weights)
            embedding = np.linalg.svd(feats.phi, full_matrices=False)[0][:, :r]
            partition, _, objective = kmeans_partition(
                embedding, r, restarts=restarts, seed=seed, _streams=streams
            )
        except ComputationError:
            if best is None:  # the only or the aggregatable branch
                raise
            continue
        if branch is None:
            eps = perturbations(model, partition, name)
            score = (eps.eps_T, eps.eps_A + eps.eps_B)
            if best is not None and not score < best[0]:
                continue
        best = (score, name, partition, objective, embedding)
    _, name, partition, objective, embedding = best
    return ReductionResult(
        partition=partition,
        reduced=average_model(model, partition, pi_weighted=pi_weighted),
        objective=objective,
        restarts_used=restarts,
        branch=name,
        embedding=embedding,
    )


def misclustering_rate(estimated: Partition, truth: Partition) -> float:
    """Fraction-weighted disagreement between two partitions.

    Over bijections h between cluster labels, minimizes
    sum_k |{i in truth_k : i not in est_{h(k)}}| / |truth_k|, by a
    linear assignment on the miscount matrix; the matched costs are
    summed in truth-cluster order.  Range [0, r].

    An estimate with fewer clusters than the truth, as kmeans_partition
    returns when the points carry fewer than r distinct values, is
    padded with empty clusters, so a truth cluster left without a match
    costs 1.  Raises PartitionMismatch if the mode counts differ or the
    estimate has more clusters than the truth.
    """
    estimated._check_covers(truth.s)
    if estimated.r > truth.r:
        raise PartitionMismatch(
            f"estimate has more clusters than the truth: {estimated.r} vs {truth.r}"
        )
    r = truth.r
    # shared[k, m] = |truth_k & est_m|, so cost[k, m] = |truth_k - est_m| / |truth_k|.
    shared = np.bincount(truth.labels * r + estimated.labels, minlength=r * r).reshape(r, r)
    sizes = np.array(truth.sizes)[:, None]
    cost = (sizes - shared) / sizes
    row, col = scipy.optimize.linear_sum_assignment(cost)
    return float(sum(cost[row, col].tolist()))
