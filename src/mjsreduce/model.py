"""Markov jump linear system model, simulation, and JSON I/O.

A system is given by mode matrices A_1..A_s (n x n), input matrices
B_1..B_s (n x p), and a row-stochastic mode transition matrix T (s x s).
The state evolves as x_{t+1} = A[w_t] x_t + B[w_t] u_t where the mode
sequence w_t is a Markov chain driven by T; every simulator steps it in
the one kernel _rollout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    NotErgodic,
    NotNormalized,
    PartitionMismatch,
)

__all__ = [
    "MjsModel",
    "Partition",
    "Trajectory",
    "validate_model",
    "is_ergodic",
    "stationary_distribution",
    "simulate",
    "simulate_batch",
    "simulate_coupled",
    "simulate_coupled_batch",
    "expand_reduced",
    "model_to_dict",
    "model_from_dict",
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

    Shape inconsistencies raise DimensionMismatch.  Value-level problems
    (bad row sums, negative entries, NaN) are reported by
    validate_model, not here.  pi, the stationary law of the mode
    chain, is computed on first access and kept.
    """

    def __init__(self, A, B, T) -> None:
        A = np.array(A, dtype=float)
        T = np.array(T, dtype=float)
        if A.ndim != 3 or A.shape[1] != A.shape[2]:
            raise DimensionMismatch(
                f"A must have shape (s, n, n), got {A.shape}"
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
        """Stationary law of the mode chain, shape (s,), read-only.

        Raises NotErgodic, on every access, when the chain has none.
        """
        pi = stationary_distribution(self.T)
        pi.setflags(write=False)
        return pi

    def __repr__(self) -> str:
        return f"MjsModel(s={self.s}, n={self.n}, p={self.p})"


class Partition:
    """Disjoint non-empty clusters of the mode set {0, ..., s-1}.

    Clusters are stored sorted, 0-based.  JSON serialization is 1-based
    (see to_lists_1based / from_lists_1based).
    """

    def __init__(self, clusters, s: int | None = None) -> None:
        cleaned = []
        for c in clusters:
            c = tuple(sorted(int(i) for i in c))
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

    def cluster_of(self, i: int) -> int:
        return int(self.labels[i])

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
        """Contiguous clusters of equal size; requires r | s."""
        if s % r != 0:
            raise PartitionMismatch(f"uniform partition needs r | s, got s={s}, r={r}")
        w = s // r
        return cls([range(k * w, (k + 1) * w) for k in range(r)], s=s)

    def to_lists_1based(self) -> list[list[int]]:
        return [[i + 1 for i in c] for c in self.clusters]

    @classmethod
    def from_lists_1based(cls, lists, s: int | None = None) -> "Partition":
        """Read 1-based clusters; InputError for a fractional mode number."""
        clusters = [[i - 1 for i in c] for c in lists]
        if any(i != int(i) for c in clusters for i in c):
            raise InputError(f"mode numbers must be integers, got {lists}")
        return cls(clusters, s=s)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.clusters == other.clusters

    def __hash__(self) -> int:
        return hash(self.clusters)

    def __repr__(self) -> str:
        return f"Partition({list(map(list, self.clusters))})"


@dataclass
class Trajectory:
    """One simulated path: states x_0..x_H, modes w_0..w_{H-1}, inputs u_0..u_{H-1}."""

    states: np.ndarray
    modes: np.ndarray
    inputs: np.ndarray

    def __post_init__(self) -> None:
        H = len(self.modes)
        if self.states.shape[0] != H + 1 or self.inputs.shape[0] != H:
            raise DimensionMismatch(
                "trajectory arrays disagree on horizon: "
                f"states {self.states.shape}, modes {self.modes.shape}, "
                f"inputs {self.inputs.shape}"
            )

    @property
    def horizon(self) -> int:
        return len(self.modes)


def validate_model(model: MjsModel, tol: float = 1e-9) -> list[str]:
    """Return a list of value-level violations; empty means valid.

    Never raises.  Checks: finite entries, nonnegative T, unit row sums.
    """
    violations: list[str] = []
    for name, M in (("A", model.A), ("B", model.B), ("T", model.T)):
        if not np.all(np.isfinite(M)):
            violations.append(f"{name} contains non-finite entries")
    if np.all(np.isfinite(model.T)):
        if np.any(model.T < -tol):
            i, j = np.argwhere(model.T < -tol)[0]
            violations.append(f"T({i},{j}) = {model.T[i, j]:.6g} is negative")
        sums = model.T.sum(axis=1)
        for i in np.nonzero(np.abs(sums - 1.0) > tol)[0]:
            violations.append(f"T row {i} sums to {sums[i]:.6g}")
    return violations


def is_ergodic(T: np.ndarray, tol: float = 1e-14) -> bool:
    """True iff some power T^m with m <= s^2 is entrywise positive.

    Once a power is positive every higher power stays positive (each row
    of a stochastic matrix has a positive entry), so squaring up to the
    first power of two past s^2 is equivalent to checking every m.
    """
    T = np.asarray(T, dtype=float)
    s = T.shape[0]
    M = T
    m = 1
    while True:
        if np.all(M > tol):
            return True
        if m >= s * s:
            return False
        M = M @ M
        m *= 2


def stationary_distribution(T: np.ndarray) -> np.ndarray:
    """Stationary law of an ergodic chain, via the left Perron eigenvector.

    Raises NotErgodic when no power of T up to s^2 is entrywise positive.
    """
    T = np.asarray(T, dtype=float)
    if not is_ergodic(T):
        raise NotErgodic("transition matrix is not ergodic")
    w, V = np.linalg.eig(T.T)
    k = int(np.argmin(np.abs(w - 1.0)))
    pi = np.real(V[:, k])
    pi = pi / pi.sum()
    # A couple of power steps scrub residual eigensolver noise.
    for _ in range(2):
        pi = pi @ T
        pi = pi / pi.sum()
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def _is_integer(value) -> bool:
    """True for Python and numpy integers, False for bools and the rest."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _resolve_init_dist(model: MjsModel, init_dist) -> tuple[np.ndarray, int | None]:
    """The initial mode law as (pi, fixed mode or None).

    None gives the stationary law model.pi, an int a fixed mode (pi is
    then its indicator), a length-s vector the law itself.  Raises
    InputError for any other scalar (a bool or a fractional mode),
    DimensionMismatch for a mode outside range(s) or a vector of the
    wrong shape, NotNormalized for negative entries or a total mass off
    1 by more than 1e-9.
    """
    if init_dist is None:
        return model.pi, None
    if np.isscalar(init_dist):
        if not _is_integer(init_dist):
            raise InputError(f"initial mode must be an integer, got {init_dist!r}")
        mode = int(init_dist)
        if not 0 <= mode < model.s:
            raise DimensionMismatch(f"initial mode {mode} outside range({model.s})")
        pi = np.zeros(model.s)
        pi[mode] = 1.0
        return pi, mode
    pi = np.asarray(init_dist, dtype=float)
    if pi.shape != (model.s,):
        raise DimensionMismatch(
            f"initial distribution must have shape ({model.s},), got {pi.shape}"
        )
    if not (np.all(pi >= 0.0) and abs(pi.sum() - 1.0) <= 1e-9):
        raise NotNormalized(
            f"initial distribution must be nonnegative with total mass 1, got {pi}"
        )
    return pi, None


def _batch_modes(
    rng: np.random.Generator,
    model: MjsModel,
    n_traj: int,
    horizon: int,
    init_dist,
) -> np.ndarray:
    """n_traj mode paths of the chain, shape (n_traj, horizon).

    One rng.random(n_traj) draw per step, the initial one skipped when
    init_dist fixes the mode.  A draw u picks the first mode whose
    cumulative probability exceeds u (searchsorted side="right"), so a
    mode of probability zero is never picked.
    """
    modes = np.empty((n_traj, horizon), dtype=int)
    if horizon == 0:
        return modes
    pi, mode = _resolve_init_dist(model, init_dist)
    # Row s of the table holds the initial law; normalizing by the last
    # entry guards against row sums a hair under 1.
    cdf = np.cumsum(np.vstack([model.T, pi]), axis=1)
    cdf = cdf / cdf[:, -1:]
    prev = np.full(n_traj, model.s)
    for t in range(horizon):
        if t == 0 and mode is not None:
            modes[:, 0] = mode
        else:
            u = rng.random(n_traj)
            modes[:, t] = np.minimum((cdf[prev] <= u[:, None]).sum(axis=1), model.s - 1)
        prev = modes[:, t]
    return modes


def _check_noise_std(std, name: str = "noise_std") -> None:
    """InputError unless std is a finite nonnegative number."""
    if not 0.0 <= std < np.inf:
        raise InputError(f"{name} must be finite and nonnegative, got {std}")


def _check_x0(x0, n: int) -> np.ndarray:
    """x0 as a float array; DimensionMismatch unless it has shape (n,)."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise DimensionMismatch(f"x0 must have shape ({n},), got {x0.shape}")
    return x0


def _rollout(A: np.ndarray, modes: np.ndarray, x0, noise_std: float, rng, drive=None):
    """Stream x_{t+1} = A x + B u + noise for c jump systems on shared paths.

    A stacks the mode matrices of all c systems, modes of shape (c, N, H)
    indexes into it, one set of N paths per system.  Yields fresh arrays
    X_0..X_H of shape (c, N, n); each step adds one (N, n) standard
    normal draw, scaled by noise_std, to every system alike.  drive is
    None (zero input) or (B, control), B stacked like A: control(t, x,
    mode) -> u runs once per step on the first path of the first system,
    and u drives every path.  Raises DimensionMismatch unless x0 has
    shape (n,), InputError for a NaN, infinite or negative noise_std.
    """
    c, N, H = modes.shape
    n = A.shape[1]
    x0 = _check_x0(x0, n)
    _check_noise_std(noise_std)
    B, control = (None, None) if drive is None else drive
    X = np.empty((c, N, n))
    X[:] = x0
    yield X
    for t in range(H):
        m = modes[:, :, t]
        if control is not None:
            BU = B[m] @ control(t, X[0, 0], int(m[0, 0]))
        X = np.einsum("cbij,cbj->cbi", A[m], X)
        if control is not None:
            X += BU
        if noise_std > 0.0:
            X += noise_std * rng.standard_normal((N, X.shape[2]))
        yield X


def _input_at(inputs, t: int, x: np.ndarray, mode: int, used: np.ndarray) -> np.ndarray:
    """Resolve u_t of None, an (H, p) array or a callable into row t of used."""
    p = used.shape[1]
    if inputs is None:
        u = np.zeros(p)
    elif callable(inputs):
        u = np.asarray(inputs(t, x, mode), dtype=float)
    else:
        u = np.asarray(inputs[t], dtype=float)
    if u.shape != (p,):
        raise DimensionMismatch(f"input at t={t} has shape {u.shape}, expected ({p},)")
    used[t] = u
    return used[t]


def simulate(
    model: MjsModel,
    x0,
    horizon: int,
    inputs=None,
    noise_std: float = 0.0,
    seed=None,
    init_dist=None,
    modes=None,
) -> Trajectory:
    """Sample one trajectory of the jump system.

    Args:
        model: the system.
        x0: initial state, shape (n,).
        horizon: number of steps H; the trajectory has H+1 states.
        inputs: None (zero input), an (H, p) array of fixed inputs, or a
            callable (t, x, mode) -> u for state feedback.
        noise_std: standard deviation of additive iid Gaussian state noise.
        seed: anything np.random.default_rng accepts.
        init_dist: initial mode distribution; None uses the stationary
            law, an int fixes the mode, a length-s probability vector
            gives the law.
        modes: optional injected mode sequence of length H, overriding
            the Markov chain (the rng then only drives noise).

    Returns:
        Trajectory with states (H+1, n), modes (H,), inputs (H, p).
    """
    rng = np.random.default_rng(seed)
    if modes is None:
        modes = _batch_modes(rng, model, 1, horizon, init_dist)[0]
    else:
        modes = np.asarray(modes, dtype=int)
        if modes.shape != (horizon,) or not np.all((0 <= modes) & (modes < model.s)):
            raise DimensionMismatch(
                f"injected modes must have shape ({horizon},) and lie in range({model.s})"
            )
    used = np.empty((horizon, model.p))
    drive = (model.B, lambda t, x, w: _input_at(inputs, t, x, w, used))
    states = np.empty((horizon + 1, model.n))
    for t, X in enumerate(_rollout(model.A, modes[None, None], x0, noise_std, rng, drive)):
        states[t] = X[0, 0]
    return Trajectory(states=states, modes=modes, inputs=used)


def simulate_batch(
    model: MjsModel,
    x0,
    horizon: int,
    n_traj: int,
    noise_std: float = 0.0,
    seed=None,
    init_dist=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Many zero-input trajectories at once.

    Returns (states, modes) with shapes (n_traj, H+1, n) and
    (n_traj, H).  The rng draws the mode paths first, then one
    (n_traj, n) noise sample per step.
    """
    rng = np.random.default_rng(seed)
    modes = _batch_modes(rng, model, n_traj, horizon, init_dist)
    states = np.empty((n_traj, horizon + 1, model.n))
    for t, X in enumerate(_rollout(model.A, modes[None], x0, noise_std, rng)):
        states[:, t] = X[0]
    return states, modes


def _coupled_rollout(
    model, reduced, partition, x0, horizon, n_traj, noise_std, seed, init_dist, control=None
) -> tuple[np.ndarray, np.ndarray]:
    """The original and the reduced system, stacked in (A, B), on shared
    mode paths and noise: states (2, n_traj, H+1, n) and the original
    modes (n_traj, H).  Input sizes must agree only under a control."""
    if partition.s != model.s or partition.r != reduced.s:
        raise PartitionMismatch(
            "partition does not link the two models: "
            f"s={model.s}, r={reduced.s}, partition covers {partition.s} "
            f"in {partition.r} clusters"
        )
    if reduced.n != model.n or (control is not None and reduced.p != model.p):
        raise DimensionMismatch("reduced model state/input sizes disagree with model")
    rng = np.random.default_rng(seed)
    modes = _batch_modes(rng, model, n_traj, horizon, init_dist)
    both = np.stack([modes, model.s + partition.labels[modes]])
    A = np.concatenate([model.A, reduced.A])
    drive = None if control is None else (np.concatenate([model.B, reduced.B]), control)
    states = np.empty((2, n_traj, horizon + 1, model.n))
    for t, X in enumerate(_rollout(A, both, x0, noise_std, rng, drive)):
        states[:, :, t] = X
    return states, modes


def simulate_coupled_batch(
    model: MjsModel,
    reduced: MjsModel,
    partition: Partition,
    x0,
    horizon: int,
    n_traj: int,
    noise_std: float = 0.0,
    seed=None,
    init_dist=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched zero-input coupled runs sharing mode paths and noise.

    Returns (states, red_states, modes); state arrays have shape
    (n_traj, H+1, n).
    """
    states, modes = _coupled_rollout(
        model, reduced, partition, x0, horizon, n_traj, noise_std, seed, init_dist
    )
    return states[0], states[1], modes


def simulate_coupled(
    model: MjsModel,
    reduced: MjsModel,
    partition: Partition,
    x0,
    horizon: int,
    inputs=None,
    noise_std: float = 0.0,
    seed=None,
    init_dist=None,
) -> tuple[Trajectory, Trajectory]:
    """Run the original and a reduced system on one shared mode path.

    The original mode sequence w_t is drawn from model.T; the reduced
    system runs on the projected sequence cluster_of(w_t).  Inputs and
    any additive noise are shared between the two systems; a callable
    input sees the original state and mode.
    """
    used = np.empty((horizon, model.p))
    states, modes = _coupled_rollout(
        model, reduced, partition, x0, horizon, 1, noise_std, seed, init_dist,
        lambda t, x, w: _input_at(inputs, t, x, w, used),
    )
    (modes,) = modes
    return (
        Trajectory(states=states[0, 0], modes=modes, inputs=used),
        Trajectory(states=states[1, 0], modes=partition.labels[modes], inputs=used),
    )


def expand_reduced(
    reduced: MjsModel, partition: Partition, T_bar: np.ndarray
) -> MjsModel:
    """Lift a reduced system back to the full mode set.

    Every mode in cluster k receives copies of the reduced matrices
    (A_k, B_k); the supplied s x s transition matrix T_bar drives the
    expanded chain.
    """
    if partition.r != reduced.s:
        raise PartitionMismatch(
            f"partition has {partition.r} clusters, reduced model has {reduced.s} modes"
        )
    T_bar = np.asarray(T_bar, dtype=float)
    if T_bar.shape != (partition.s, partition.s):
        raise DimensionMismatch(
            f"T_bar must have shape ({partition.s}, {partition.s}), got {T_bar.shape}"
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


def model_from_dict(d: dict) -> MjsModel:
    try:
        # Sizes stay as given: a fractional one then fails the shape check.
        n, p, s = d["n"], d["p"], d["s"]
        A = np.asarray(d["A"], dtype=float)
        # "B": null stands for an all-zero input map of the declared shape.
        B = np.zeros((s, n, p)) if d.get("B") is None else np.asarray(d["B"], dtype=float)
        T = np.asarray(d["T"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise InputError(f"malformed model dictionary: {e}") from e
    if A.shape != (s, n, n) or B.shape != (s, n, p) or T.shape != (s, s):
        raise InputError(
            "model arrays disagree with declared sizes: "
            f"A {A.shape}, B {B.shape}, T {T.shape} for n={n}, p={p}, s={s}"
        )
    model = MjsModel(A, B, T)
    violations = validate_model(model)
    if violations:
        raise InputError("invalid model: " + "; ".join(violations))
    return model


def save_model(model: MjsModel, path) -> None:
    with open(path, "w") as f:
        json.dump(model_to_dict(model), f)


def load_model(path) -> MjsModel:
    try:
        with open(path) as f:
            d = json.load(f)
    except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
        raise InputError(f"malformed JSON in {path}: {e}") from e
    if not isinstance(d, dict):
        raise InputError(f"model file {path} must hold a JSON object")
    return model_from_dict(d)
