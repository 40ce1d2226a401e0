"""Markov jump linear system model, simulation, and JSON I/O.

A system is given by mode matrices A_1..A_s (n x n), input matrices
B_1..B_s (n x p), and a row-stochastic mode transition matrix T (s x s).
The state evolves as x_{t+1} = A[w_t] x_t + B[w_t] u_t where the mode
sequence w_t is a Markov chain driven by T.  Simulation is autonomous:
a system under state feedback u = K x runs as its closed loop A + B K.
simulate_coupled_batch and lqr.monte_carlo_cost both step their paths,
started from the stationary law, in the one kernel _rollout.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    NotErgodic,
    PartitionMismatch,
)

__all__ = [
    "MjsModel",
    "Partition",
    "simulate_coupled_batch",
    "expand_reduced",
    "model_to_dict",
    "save_model",
    "load_model",
]


class MjsModel:
    """Immutable container for the matrices (A, B, T) of a jump system.

    Args:
        A: array-like of shape (s, n, n), one square matrix per mode.
        B: array-like of shape (s, n, p), or None for an autonomous
            system (p = 0).
        T: array-like of shape (s, s), the mode transition matrix.

    Shape inconsistencies, s = 0 and n = 0 raise DimensionMismatch, and
    values that make no jump system InputError ("invalid model: ..."),
    listing each: A or B not finite, or T no chain by _chain_violations.
    pi, the stationary law of the mode chain, is computed on first
    access and kept.
    """

    def __init__(self, A, B, T) -> None:
        A = np.array(A, dtype=float)
        T = np.array(T, dtype=float)
        if A.ndim != 3 or A.shape[1] != A.shape[2] or 0 in A.shape:
            raise DimensionMismatch(
                f"A must have shape (s, n, n) with s, n >= 1, got {A.shape}"
            )
        s, n = A.shape[0], A.shape[1]
        if B is None:
            B = np.zeros((s, n, 0))
        else:
            B = np.array(B, dtype=float)
        if B.ndim != 3 or B.shape[0] != s or B.shape[1] != n:
            raise DimensionMismatch(
                f"B must have shape (s, n, p) = ({s}, {n}, p), got {B.shape}"
            )
        if T.shape != (s, s):
            raise DimensionMismatch(
                f"T must have shape ({s}, {s}), got {T.shape}"
            )
        violations = [
            f"{name} contains non-finite entries"
            for name, M in (("A", A), ("B", B))
            if not np.isfinite(M).all()
        ] + _chain_violations(T)
        if violations:
            raise InputError("invalid model: " + "; ".join(violations))
        for M in (A, B, T):
            M.setflags(write=False)
        self.__dict__.update(A=A, B=B, T=T)

    def __setattr__(self, name, value):
        # Rebinding A, B or T would leave the cached pi stale.
        raise AttributeError(f"MjsModel is immutable; cannot set {name!r}")

    @property
    def s(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def p(self) -> int:
        return self.B.shape[2]

    @cached_property
    def pi(self) -> np.ndarray:
        """Stationary law of the mode chain, shape (s,), read-only: the
        left Perron eigenvector of T.

        Raises NotErgodic, on every access, unless some power T^m with
        m <= s^2 is entrywise above 1e-14.  Once a power is positive
        every higher power stays positive (each row of a stochastic
        matrix has a positive entry), so squaring up to the first power
        of two past s^2 checks every m.
        """
        T, s = self.T, self.s
        M, m = T, 1
        while not np.all(M > 1e-14):
            if m >= s * s:
                raise NotErgodic("transition matrix is not ergodic")
            M = M @ M
            m *= 2
        w, V = np.linalg.eig(T.T)
        k = int(np.argmin(np.abs(w - 1.0)))
        pi = np.real(V[:, k])
        pi = pi / pi.sum()
        # A couple of power steps scrub residual eigensolver noise.
        for _ in range(2):
            pi = pi @ T
            pi = pi / pi.sum()
        pi = np.maximum(pi, 0.0)
        pi = pi / pi.sum()
        pi.setflags(write=False)
        return pi

    def __repr__(self) -> str:
        return f"MjsModel(s={self.s}, n={self.n}, p={self.p})"


class Partition:
    """Disjoint non-empty clusters of the mode set {0, ..., s-1}.

    Clusters are stored sorted, 0-based.  JSON serialization is 1-based
    (see to_lists_1based / from_lists_1based).  A mode number is an
    integer or an integral float; a bool, a fractional, NaN or infinite
    number, or anything else raises InputError.
    """

    def __init__(self, clusters, s: int | None = None) -> None:
        cleaned = []
        for c in clusters:
            c = tuple(sorted(_mode_number(i) for i in c))
            if not c:
                raise PartitionMismatch("empty cluster")
            cleaned.append(c)
        flat = [i for c in cleaned for i in c]
        total = len(flat)
        if s is None:
            s = total
        if sorted(flat) != list(range(s)):
            raise PartitionMismatch(
                f"clusters must partition range({s}) exactly"
            )
        # Canonical order: by smallest member.  Cluster k of a reduced
        # model always refers to position k in this canonical tuple.
        cleaned.sort(key=lambda c: c[0])
        self.clusters: tuple[tuple[int, ...], ...] = tuple(cleaned)
        self.s = s
        labels = np.empty(s, dtype=int)
        for k, c in enumerate(self.clusters):
            labels[list(c)] = k
        labels.setflags(write=False)
        self.labels = labels
        # (cluster ids (K,), members (K, m)) per cluster size m: the
        # aggregations reduce each group as one stacked array.
        sizes = np.array(self.sizes)
        self._size_groups = []
        for m in np.unique(sizes):
            ks = np.flatnonzero(sizes == m)
            self._size_groups.append((ks, np.array([self.clusters[k] for k in ks])))

    @property
    def r(self) -> int:
        return len(self.clusters)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.clusters)

    @property
    def size_largest(self) -> int:
        return max(self.sizes)

    @property
    def size_smallest(self) -> int:
        return min(self.sizes)

    def cluster_means(self, X, weights=None) -> np.ndarray:
        """Mean of the rows X[i] (axis 0) over each cluster, shape (r, ...).

        Row k equals X[list(C_k)].mean(axis=0) bit for bit.  With a
        per-mode weight vector, each cluster's weights are normalized
        to sum to one within it and row k is their weighted sum of rows.
        """
        X = np.asarray(X, dtype=float)
        out = np.empty((self.r,) + X.shape[1:])
        for ks, members in self._size_groups:
            if weights is None:
                out[ks] = X[members].mean(axis=1)
            else:
                w = np.asarray(weights, dtype=float)[members]
                w = w / w.sum(axis=1, keepdims=True)
                out[ks] = np.einsum("ki,ki...->k...", w, X[members])
        return out

    def block_sums(self, X) -> np.ndarray:
        """Sum of X over each cluster's columns (last axis), shape (..., r).

        Each entry is bit for bit the 1-D sum of its row's slice, e.g.
        X[i, list(C_l)].sum(); a 2-D .sum(axis=1) may round differently.
        """
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[:-1] + (self.r,))
        for ks, members in self._size_groups:
            out[..., ks] = np.take(X, members, axis=-1).sum(axis=-1)
        return out

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        labels = np.asarray(labels, dtype=int)
        return cls([np.flatnonzero(labels == k) for k in np.unique(labels)], s=len(labels))

    @classmethod
    def uniform(cls, s: int, r: int) -> "Partition":
        """Contiguous clusters of equal size; integers s, r >= 1 with r | s."""
        _check_count("s", s, 1)
        _check_count("r", r, 1)
        if s % r != 0:
            raise PartitionMismatch(f"uniform partition needs r | s, got s={s}, r={r}")
        w = s // r
        return cls([range(k * w, (k + 1) * w) for k in range(r)], s=s)

    def _check_covers(self, s: int) -> None:
        if self.s != s:
            raise PartitionMismatch(f"partition covers {self.s} modes, not {s}")

    def to_lists_1based(self) -> list[list[int]]:
        return [[i + 1 for i in c] for c in self.clusters]

    @classmethod
    def from_lists_1based(cls, lists, s: int | None = None) -> "Partition":
        """Read 1-based clusters; InputError for a mode number that is not
        an integer."""
        return cls([[_mode_number(i) - 1 for i in c] for c in lists], s=s)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.clusters == other.clusters

    def __hash__(self) -> int:
        return hash(self.clusters)

    def __repr__(self) -> str:
        return f"Partition({list(map(list, self.clusters))})"


def _chain_violations(T: np.ndarray) -> list[str]:
    """The ways T fails to be a chain: a non-finite or negative entry,
    or a row sum off 1 by more than 1e-9."""
    if not np.isfinite(T).all():
        return ["T contains non-finite entries"]
    sums = T.sum(axis=1)
    if T.min(initial=0.0) >= 0.0 and np.abs(sums - 1.0).max(initial=0.0) <= 1e-9:
        return []  # a chain, in two passes
    violations = [f"T({i},{j}) = {T[i, j]:.6g} is negative" for i, j in np.argwhere(T < 0.0)[:1]]
    return violations + [
        f"T row {i} sums to {sums[i]:.6g}" for i in np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
    ]


def _is_integer(value) -> bool:
    """True for Python and numpy integers, False for bools and the rest."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value, minimum: int) -> None:
    """Raise DimensionMismatch unless value is an integer (a Python or
    numpy integer, not a bool) of at least minimum."""
    if not _is_integer(value) or value < minimum:
        raise DimensionMismatch(
            f"{name} must be an integer of at least {minimum}, got {value!r}"
        )


def _check_seed(seed) -> None:
    """DimensionMismatch for an integer seed below 0; numpy takes the rest."""
    if _is_integer(seed):
        _check_count("seed", seed, 0)


def _mode_number(value) -> int:
    """A mode number as an int: an integer or an integral float.  Raises
    InputError for a bool (True would read as mode 1), a fractional,
    NaN or infinite number, and anything else."""
    if _is_integer(value):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise InputError(f"mode numbers must be integers, got {value!r}")


def _batch_modes(
    rng: np.random.Generator, model: MjsModel, n_traj: int, horizon: int
) -> np.ndarray:
    """n_traj mode paths of the chain started from model.pi, shape
    (n_traj, horizon).

    One rng.random(n_traj) draw per step.  A draw u picks the first mode
    whose cumulative probability exceeds u (searchsorted side="right"),
    so a mode of probability zero is never picked.  MjsModel holds T >= 0,
    so each cdf row is nondecreasing and ends at exactly 1.0 > u, and
    that mode is also the count of entries <= u: argmin over the row's
    "<= u" flags finds it with one gather and compare per step.
    """
    _check_count("n_traj", n_traj, 1)
    _check_count("horizon", horizon, 0)
    modes = np.empty((n_traj, horizon), dtype=int)
    if horizon == 0:
        return modes
    # Row s of the table holds the initial law; normalizing by the last
    # entry guards against row sums a hair under 1.
    cdf = np.cumsum(np.vstack([model.T, model.pi]), axis=1)
    cdf = cdf / cdf[:, -1:]
    prev = np.full(n_traj, model.s)
    for t in range(horizon):
        u = rng.random(n_traj)
        modes[:, t] = np.argmin(np.take(cdf, prev, axis=0) <= u[:, None], axis=1)
        prev = modes[:, t]
    return modes


def _check_sigma_w(sigma_w) -> None:
    """InputError unless the noise level sigma_w is a finite
    nonnegative number."""
    if not 0.0 <= sigma_w < np.inf:
        raise InputError(f"sigma_w must be finite and nonnegative, got {sigma_w}")


def _check_x0(x0, n: int) -> np.ndarray:
    """x0 as a float array; DimensionMismatch unless it has shape (n,),
    InputError unless every entry is finite."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise DimensionMismatch(f"x0 must have shape ({n},), got {x0.shape}")
    if not np.isfinite(x0).all():
        raise InputError(f"x0 must be finite, got {x0.tolist()}")
    return x0


def _rollout(A: np.ndarray, modes: np.ndarray, x0, sigma_w: float, rng):
    """Stream x_{t+1} = A x + w for c autonomous jump systems on shared
    paths.

    A stacks the mode matrices of all c systems, modes of shape (c, N, H)
    indexes into it, one set of N paths per system.  Yields fresh arrays
    X_0..X_H of shape (c, N, n); each step adds one (N, n) standard
    normal draw, scaled by sigma_w, to every system alike.  The draw
    fills one buffer in place, the same numbers rng.standard_normal((N,
    n)) returns, so the stream and the sums match a fresh draw.  Raises
    DimensionMismatch unless x0 has shape (n,), InputError for an x0
    that is not finite or a NaN, infinite or negative sigma_w.
    """
    c, N, H = modes.shape
    n = A.shape[1]
    x0 = _check_x0(x0, n)
    _check_sigma_w(sigma_w)
    X = np.empty((c, N, n))
    X[:] = x0
    yield X
    noise = np.empty((N, n))
    for t in range(H):
        X = np.einsum("cbij,cbj->cbi", A[modes[:, :, t]], X)
        if sigma_w > 0.0:
            rng.standard_normal(out=noise)
            noise *= sigma_w
            X += noise
        yield X


def simulate_coupled_batch(
    model: MjsModel,
    reduced: MjsModel,
    partition: Partition,
    x0,
    horizon: int,
    n_traj: int,
    seed=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Autonomous runs of the original and a reduced system on shared
    mode paths.

    The n_traj mode paths w_t are drawn from model.T, started from the
    stationary law model.pi; the reduced system runs on the projected
    paths partition.labels[w_t].  A pair under state feedback u = K x runs as its closed loops
    A + B K.  Returns (states, red_states, modes): state arrays of shape
    (n_traj, H+1, n) and the original modes (n_traj, H).  Raises
    PartitionMismatch unless partition links the two mode sets,
    DimensionMismatch unless the state sizes agree, n_traj is an integer
    of at least 1, horizon one of at least 0 and a seed not negative,
    InputError for an x0 that is not finite.
    """
    if partition.s != model.s or partition.r != reduced.s:
        raise PartitionMismatch(
            "partition does not link the two models: "
            f"s={model.s}, r={reduced.s}, partition covers {partition.s} "
            f"in {partition.r} clusters"
        )
    if reduced.n != model.n:
        raise DimensionMismatch("reduced model state size disagrees with model")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    modes = _batch_modes(rng, model, n_traj, horizon)
    both = np.stack([modes, model.s + partition.labels[modes]])
    A = np.concatenate([model.A, reduced.A])
    states = np.empty((2, n_traj, horizon + 1, model.n))
    for t, X in enumerate(_rollout(A, both, x0, 0.0, rng)):
        states[:, :, t] = X
    return states[0], states[1], modes


def expand_reduced(
    reduced: MjsModel, partition: Partition, T_bar: np.ndarray
) -> MjsModel:
    """Lift a reduced system back to the full mode set.

    Every mode in cluster k receives copies of the reduced matrices
    (A_k, B_k); the supplied s x s chain T_bar drives the expanded
    chain, checked as every model's T is.
    """
    if partition.r != reduced.s:
        raise PartitionMismatch(
            f"partition has {partition.r} clusters, reduced model has {reduced.s} modes"
        )
    labels = partition.labels
    A = reduced.A[labels]
    B = reduced.B[labels]
    return MjsModel(A, B, T_bar)


def model_to_dict(model: MjsModel) -> dict:
    return {
        "n": model.n,
        "p": model.p,
        "s": model.s,
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "T": model.T.tolist(),
    }


def save_model(model: MjsModel, path) -> None:
    with open(path, "w") as f:
        json.dump(model_to_dict(model), f)


def _read_json(path, what: str):
    """The JSON value in the file at path; InputError, naming the file
    as a `what` file, when it cannot be read or parsed."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise InputError(f"cannot read {what} file {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise InputError(f"malformed JSON in {path}: {e}") from e


def load_model(path) -> MjsModel:
    """The model in the JSON file at path, as model_to_dict writes it
    ("B": null stands for an all-zero input map of the declared shape).
    Raises InputError for a file that cannot be read or parsed, arrays
    that disagree with the declared sizes, and values MjsModel
    refuses."""
    d = _read_json(path, "model")
    if not isinstance(d, dict):
        raise InputError(f"model file {path} must hold a JSON object")
    try:
        # Sizes stay as given: a fractional one then fails the shape check.
        n, p, s = d["n"], d["p"], d["s"]
        A = np.asarray(d["A"], dtype=float)
        B = np.zeros((s, n, p)) if d.get("B") is None else np.asarray(d["B"], dtype=float)
        T = np.asarray(d["T"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise InputError(f"malformed model in {path}: {e}") from e
    if A.shape != (s, n, n) or B.shape != (s, n, p) or T.shape != (s, s):
        raise InputError(
            "model arrays disagree with declared sizes: "
            f"A {A.shape}, B {B.shape}, T {T.shape} for n={n}, p={p}, s={s}"
        )
    return MjsModel(A, B, T)
