"""Trajectory and distribution approximation bounds.

This module certifies a reduction against its original: it sits above
both the reduction (clustering, perturbation) and the analysis of one
system (stability).  Quantities feeding the bounds live in BoundInputs:
worst-case mode norms, transient constants from the stability module,
perturbation sizes of the partition, and the norm of the initial state.
stability_comparison sets the stability levels of a model and its
reduction side by side, with their two-sided perturbation bounds.  The bounds
are those of autonomous runs: there is no input-driven simulator, so
the paper's input terms are not evaluated.
Each bound evaluates its formula even when its premises fail; premise
checks are exposed separately so callers can flag such evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# scipy.optimize first: importing the bindings by their own path first
# made start-up about 5 ms slower (medians of 24 and 30 runs).
import scipy.optimize  # noqa: F401
from scipy.optimize._highspy import _core as _highs

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    InputError,
    NotConverged,
    NotNormalized,
    TooLarge,
    TooManySequences,
)
from .clustering import ReductionResult
from .model import MjsModel, Partition, _check_count, _check_x0, expand_reduced
from .model import simulate_coupled_batch
from .perturbation import construct_T0, perturbations
from .stability import JSR_BUDGET, TAU_STEPS, MomentOperator, StabilityReport, _check_level
from .stability import _level_exponent, stability_report

# Largest number s^t of mode sequences transition_kernel_enum walks, and
# the merge distance of its endpoints relative to max(||x0||, 1).
KERNEL_PATHS = 200_000
MERGE_TOL = 1e-10
# Targets of each source that open the transport program, and the slack
# on reduced costs, relative to the largest cost, under which a solution
# of the restricted program is accepted as optimal.  With six, the first
# program was optimal on every fig4 kernel pair of the certify benchmark
# (seeds 0-31, t = 1-6).  Measured through scipy's wrapper, against
# 47.4 ms of W2 per fig4 op with six: 3, 4 and 10 neighbours took 63.9,
# 66.5 and 57.3 ms, HiGHS presolve 59.2 ms and its primal simplex
# 113 ms; the restricted dual program took 100.8 ms against 38.3 ms for
# this one.  Solving through the bindings directly (_transport_solve)
# took W2 per fig4 op from 22.1 to 12.3 ms (best of 15; t = 1-6: 0.19,
# 0.28, 0.63, 1.26, 3.05 and 6.91 ms), of which HiGHS's run is 71%.
TRANSPORT_NEIGHBOURS = 6
TRANSPORT_SLACK = 1e-13
# HiGHS's primal and dual feasibility tolerances in the transport
# program.  At its default of 1e-7 a plan could miss masses below about
# 1e-7, moving W by up to about 5e-7 relative on laws with such masses.
TRANSPORT_FEASIBILITY = 1e-10
# Odd multiplier of the row hash _equal_rows sorts on (2^64 / golden ratio).
_ROW_HASH = np.uint64(0x9E3779B97F4A7C15)

__all__ = [
    "BoundInputs",
    "KernelDistribution",
    "DiffStats",
    "StabilityComparison",
    "mss_premises",
    "mss_traj_bound",
    "us_premises",
    "us_traj_bound",
    "wasserstein_kernel_bound",
    "stability_comparison",
    "transition_kernel_enum",
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
        budget: int = JSR_BUDGET,
    ) -> "BoundInputs":
        """The constants of model, partition and x0, with the transient
        constants of stability_report(model, budget=budget);
        PartitionMismatch unless the partition covers the model's modes,
        DimensionMismatch unless x0 has shape (n,), InputError unless
        it is finite."""
        partition._check_covers(model.s)
        x0 = _check_x0(x0, model.n)
        rep = stability_report(model, budget=budget)
        eps = perturbations(model, partition, branch)
        return cls(
            n=model.n,
            s=model.s,
            r=partition.r,
            a_bar=rep.a_bar,
            b_bar=rep.b_bar,
            t_bar=rep.t_bar,
            T_norm=float(np.linalg.norm(model.T, 2)),
            rho=rep.tau.level,
            tau=rep.tau.value,
            xi=rep.kappa.level,
            kappa=rep.kappa.value,
            eps_A=eps.eps_A,
            eps_B=eps.eps_B,
            eps_T=eps.eps_T,
            x0_norm=float(np.linalg.norm(x0)),
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
    """Bound on E||x_t - xhat_t|| under mean-square stability:

    4 sqrt(n sqrt(s)) tau rho0^((t-1)/2) sqrt(t Abar ||T|| eps_A) ||x0||.
    At t = 0 the trajectories share x0, so the bound is 0.  A t that is
    no integer >= 0 raises DimensionMismatch.
    """
    _check_count("t", t, 0)
    if t == 0:
        return 0.0
    drive = b.a_bar * b.T_norm * b.eps_A
    term_x0 = b.rho0 ** ((t - 1) / 2.0) * np.sqrt(t * drive) * b.x0_norm
    return float(4.0 * np.sqrt(b.n * np.sqrt(b.s)) * b.tau * term_x0)


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
    """Almost-sure bound on ||x_t - xhat_t|| under uniform stability:

    t xi0^(t-1) kappa^2 ||x0|| eps_A.
    A t that is no integer >= 0 raises DimensionMismatch.
    """
    _check_count("t", t, 0)
    if t == 0:
        return 0.0
    return float(t * b.xi0 ** (t - 1) * b.kappa**2 * b.x0_norm * b.eps_A)


def _check_order(ell) -> None:
    # Below 1 the cost is no metric, 0 divides by zero, inf makes it 0, 1 or inf.
    if not 1 <= ell < np.inf:
        raise InputError(f"transport order ell must be finite and at least 1, got {ell!r}")


def wasserstein_kernel_bound(b: BoundInputs, t: int, ell: int = 1) -> float:
    """Bound on the order-ell transport distance between the time-t
    state laws of the original and reduced autonomous systems:

    us_traj_bound(b, t)
      + 2 r^2 t kappa ||x0|| r^t (kappa eps_A + xi)^t
        (Tbar + eps_T)^((t-2)/ell) eps_T^(1/ell).

    Raises InputError unless ell is finite and at least 1, and
    DimensionMismatch unless t is an integer >= 0.
    """
    _check_order(ell)
    term1 = us_traj_bound(b, t)
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
    model: MjsModel, reduction: ReductionResult, branch: str | None = None
) -> StabilityComparison:
    """Compare stability levels of a model and its reduction, each
    reported by stability_report at its default levels.

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
    rep = stability_report(model)
    rep_hat = stability_report(reduced)
    eps_rho = float(
        np.sqrt(model.s)
        * ((2.0 * rep.a_bar + eps.eps_A) * eps.eps_A + rep.a_bar**2 * eps.eps_T)
    )
    T_bar = construct_T0(model.T, partition, branch=branch)
    expanded = expand_reduced(reduced, partition, T_bar)
    op_bar = MomentOperator(expanded.A, expanded.T)
    rho_aug_bar = op_bar.rho()
    _check_level("rho", rep_hat.tau.level, rho_aug_bar)
    tau_bar = op_bar.tau(rep_hat.tau.level, TAU_STEPS)
    kappa_bar = rep_hat.kappa  # expanded mode set equals the reduced one
    return StabilityComparison(
        report=rep,
        report_reduced=rep_hat,
        eps_rho=eps_rho,
        rho_gap_forward=rep_hat.rho_aug - rep.rho_aug,
        rho_gap_reverse=rep.rho_aug - rep_hat.rho_aug,
        bound_rho_forward=rep.tau.value * eps_rho + (rep.tau.level - rep.rho_aug),
        bound_rho_reverse=tau_bar.value * eps_rho
        + (rep_hat.tau.level - rep_hat.rho_aug),
        xi_gap_forward_certified=rep_hat.jsr.lower - rep.jsr.upper,
        xi_gap_reverse_certified=rep.jsr.lower - rep_hat.jsr.upper,
        bound_xi_forward=rep.kappa.value * eps.eps_A + (rep.kappa.level - rep.jsr.lower),
        bound_xi_reverse=kappa_bar.value * eps.eps_A
        + (rep_hat.kappa.level - rep_hat.jsr.lower),
        lemma_gap_rho=abs(rho_aug_bar - rep_hat.rho_aug),
    )


def _law_tolerance(t: int) -> float:
    """How far the masses of a law of x_t may sum from 1: 1e-9 up to
    t = 1, and (1 + 1e-9)^t - 1 beyond.

    A chain's rows sum to 1 within 1e-9 (MjsModel's rule), and
    transition_kernel_enum's law of x_t is pi carried through t - 1
    levels of T: a sequence of mass q passes q T(i, j) to each child,
    whose masses total q times a row sum.  So the law's total lies
    within [(1 - 1e-9)^(t-1), (1 + 1e-9)^(t-1)] times pi's, that is
    within (1 + 1e-9)^(t-1) - 1 of it, since (1 + e)^k + (1 - e)^k >= 2.
    (1 + 1e-9)^t - 1 exceeds that by (1 + 1e-9)^(t-1) * 1e-9 >= 1e-9,
    which covers pi's total, off 1 by rounding, and the rounding of
    the products and sums: at most KERNEL_PATHS masses, each a product
    of t factors, which move the total by about (t + KERNEL_PATHS) *
    2^-53, 2e-11 at the cap, relative.
    """
    return 1e-9 if t <= 1 else math.expm1(t * math.log1p(1e-9))


@dataclass(frozen=True)
class KernelDistribution:
    """Finitely supported law of x_t: support points, one per row, and
    their masses, as read-only copies.  DimensionMismatch unless each
    point has one mass, NotNormalized unless the masses are nonnegative
    and sum to 1 within _law_tolerance(t), which is 1e-9 up to t = 1 and
    about t * 1e-9 beyond, InputError for a point that is not finite."""

    support: np.ndarray
    mass: np.ndarray
    t: int

    def __post_init__(self) -> None:
        support = np.atleast_2d(np.array(self.support, dtype=float))
        mass = np.array(self.mass, dtype=float)
        if mass.ndim != 1 or support.shape[0] != mass.shape[0]:
            raise DimensionMismatch(f"{mass.shape} masses for {support.shape[0]} support points")
        if not (abs(mass.sum() - 1.0) <= _law_tolerance(self.t) and (mass >= 0.0).all()):  # NaN too
            least = mass.min(initial=np.inf)
            raise NotNormalized(f"masses sum to {mass.sum():.12g}, least {least:.6g}")
        if not np.isfinite(support).all():
            raise InputError("law has a support point that is not finite")
        for name, M in (("support", support), ("mass", mass)):
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @property
    def size(self) -> int:
        return self.support.shape[0]


def transition_kernel_enum(model: MjsModel, x0, t: int) -> KernelDistribution:
    """Exact law of x_t for an autonomous model started from the
    stationary law model.pi, by a walk over the mode sequences.

    Walks all mode sequences of length t one level at a time (pruning
    zero-probability branches) from a start state whose one step draws
    the first mode from model.pi, in the order of a depth-first walk over
    the modes, and keeps each sequence's probability.  The pair (mode,
    state) is a Markov chain, so sequences that reach bit-equal states
    have equal futures (Kemeny & Snell, Finite Markov Chains, 1960,
    ch. 6): each state is computed once per class of sequences with
    bit-equal parent states and the same mode, and classes are numbered
    by their first sequence.  Each endpoint, in sequence order, is
    merged into the first kept point that lies within MERGE_TOL * ||x0||
    and shares its cell of a grid of that width, so the law scales with
    x0; masses are added in sequence order.  Support and mass are
    bit for bit those of a walk that forms every sequence's state.

    At t = 0 the law is the point mass at x0, whatever the chain.
    Raises DimensionMismatch for a t that is not a nonnegative integer
    or an x0 not of shape (n,), InputError for an x0 that is not
    finite, TooManySequences when s^t exceeds KERNEL_PATHS, TooLarge
    when the model has inputs, DegenerateInput at the first level whose
    states are not all finite.
    """
    _check_count("t, the nonnegative step count,", t, 0)
    t = int(t)
    if model.p and np.any(model.B != 0.0):
        raise TooLarge("transition kernels are defined for autonomous models")
    if model.s**t > KERNEL_PATHS:
        raise TooManySequences(f"s^t = {model.s**t} exceeds the cap {KERNEL_PATHS}")
    x0 = _check_x0(x0, model.n)
    if t == 0:
        return KernelDistribution(support=np.array([x0]), mass=np.ones(1), t=0)
    s = model.s
    # Row s of T is a start state whose step draws the stationary law.
    T = np.vstack([model.T, model.pi])
    # One entry per live sequence: its last mode, its probability and
    # the class cls of its state; one row of X per class.
    modes, q, cls, X = np.array([s]), np.ones(1), np.zeros(1, dtype=np.intp), x0[None]
    for level in range(t):
        if level > 1:
            # Bit-equal states are one class: the int64 view keeps -0.0
            # and 0.0 apart, which == does not.
            first, inverse = _equal_rows(X.view(np.int64))
            X = X[first]
            cls = inverse[cls]
        # Row-major nonzeros: each sequence's children in mode order,
        # i.e. the depth-first order of the sequences.
        weights = q[:, None] * T[modes]
        live = weights > 0.0
        rows, modes = np.nonzero(live)
        q = weights[live]
        # A child's state is A[mode] @ X[class]: one class per used
        # (class, mode) key, numbered by the key's first sequence.
        key = cls[rows] * s + modes
        first_seq = np.full(len(X) * s, len(key))
        np.minimum.at(first_seq, key, np.arange(len(key)))
        used = np.flatnonzero(first_seq < len(key))
        used = used[np.argsort(first_seq[used])]
        number = np.empty(len(X) * s, dtype=np.intp)
        number[used] = np.arange(len(used))
        cls = number[key]
        X = _finite_states(model.A[used % s], X[used // s], level + 1)
    # ||x0|| from x0 times 2^-e, exactly, so that its square cannot
    # overflow and the tolerance is finite.
    e = _level_exponent(np.abs(x0).max())
    tol = math.ldexp(MERGE_TOL * float(np.linalg.norm(np.ldexp(x0, -e))), e)
    support, label = _merge_points(X, tol)
    mass = np.bincount(label[cls], weights=q, minlength=len(support))
    return KernelDistribution(support=support, mass=mass, t=t)


def _finite_states(A: np.ndarray, X: np.ndarray, t: int) -> np.ndarray:
    """The states A[k] @ X[k] at time t; DegenerateInput unless every
    entry is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        X = (A @ X[..., None])[..., 0]
    if not np.isfinite(X).all():
        raise DegenerateInput(f"the states at t = {t} overflow: an entry is not finite")
    return X


# Grid keys, differences, squares and norms of states near the float
# range overflow to inf, which shares a cell and exceeds tol, as it should.
@np.errstate(over="ignore")
def _merge_points(X: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy merge of the rows of X, in row order, into the first kept
    row within tol in the same cell of a grid of width tol.  Returns
    the kept rows, in order of appearance, and each row's kept index.
    """
    # Equal rows share a cell; in a walking cell a copy of row i meets
    # the kept rows i met, then the row i joined (or i), at distance 0.
    # Float keys: an int64 cast would wrap once |x| / tol passes 2^63.
    head, cell = _equal_rows(np.round(X / max(tol, 1e-300)))
    # A cell whose rows all lie within tol of its first row merges into
    # that row, as the greedy walk would.  Only the other cells walk.
    rep = head[cell]
    walks = np.zeros(len(head), dtype=bool)
    walks[cell[~_surely_within(X - X[rep], tol)]] = True
    walking = np.flatnonzero(walks[cell])
    rep[walking] = walking
    kept_in: dict[int, list[int]] = {}
    for i in walking:
        kept = kept_in.setdefault(int(cell[i]), [])
        for j in kept:
            if np.linalg.norm(X[j] - X[i]) <= tol:
                rep[i] = j
                break
        else:
            kept.append(i)
    is_kept = rep == np.arange(len(X))
    index = np.cumsum(is_kept) - 1
    return X[is_kept], index[rep]


def _surely_within(D: np.ndarray, tol: float) -> np.ndarray:
    """Rows d of D with np.linalg.norm(d) <= tol, whatever order that
    norm sums the squares in: two orders of summing n squares and a
    square root differ by less than (n + 2) eps relative (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 3), so a
    row within tol by a margin of twice that is within tol by either.
    Rows near tol, and NaN rows, read False."""
    margin = 2.0 * (D.shape[1] + 2) * np.finfo(float).eps
    return np.sqrt(np.square(D).sum(axis=1)) <= tol * (1.0 - margin)


def _equal_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Groups of equal rows of X, numbered in order of first appearance:
    the first row of each group, and each row's group."""
    # One sort on a 64-bit hash of each row's bits, with 0.0 for -0.0 so
    # that rows equal under == hash alike and sit side by side.  A run
    # of equal hashes that holds unequal rows (a collision; NaN rows,
    # which == never pairs, count too) has two unequal neighbours, and
    # the rows are then sorted on every column instead.  Neither sort
    # needs to be stable: a group's first row is its least index.
    bits = np.ascontiguousarray(X + X.dtype.type(0)).view(np.uint64)
    h = bits[:, 0]
    for col in bits.T[1:]:
        h = h * _ROW_HASH + col
    order = np.argsort(h)
    starts = _row_changes(X, order)
    hashes = h[order]
    if np.any(starts[1:] & (hashes[1:] == hashes[:-1])):
        order = np.lexsort(X.T)
        starts = _row_changes(X, order)
    group = np.cumsum(starts) - 1
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    appearance = np.argsort(first)
    rank = np.empty_like(appearance)
    rank[appearance] = np.arange(len(first))
    inverse = np.empty_like(order)
    inverse[order] = rank[group]
    return first[appearance], inverse


def _row_changes(X: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Where the rows of X[order] differ from the row before (True at 0)."""
    starts = np.zeros(len(X), dtype=bool)
    starts[:1] = True
    for col in X.T:
        c = col[order]
        starts[1:] |= c[1:] != c[:-1]
    return starts


def _psd_sqrt(S: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def w2_moment_lower_bound(p: KernelDistribution, q: KernelDistribution) -> float:
    """sqrt(||mu_p - mu_q||^2 + d(S_p, S_q)) <= W_2(p, q), where
    d(S, S') = tr(S + S' - 2 (S^{1/2} S' S^{1/2})^{1/2}), with mu and S
    the mean and covariance of each law."""
    moments = []
    for k in (p, q):
        mu = k.mass @ k.support / k.mass.sum()
        centered = k.support - mu
        moments.append((mu, (centered * k.mass[:, None]).T @ centered / k.mass.sum()))
    (mp, Sp), (mq, Sq) = moments
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

    Minimizes sum f(a, b) c(a, b), c(a, b) = ||x_a - y_b||^ell, over
    nonnegative plans f with row marginals p.mass and column marginals
    q.mass, and returns the objective to the power 1/ell (with the
    m x k plan when return_plan is set).

    The program is solved on a growing set of active cells (Peyre &
    Cuturi, Computational Optimal Transport, 2019, ch. 3; Schmitzer,
    JMIV 2016).  It opens with each source's min(TRANSPORT_NEIGHBOURS,
    k) cheapest targets and the north-west-corner staircase, which keeps
    it feasible.  HiGHS's dual simplex, called through the bindings
    scipy ships (_transport_solve), solves the restricted program and
    returns its duals u, v, with reduced cost c(a, b) - u_a - v_b above
    -delta = -TRANSPORT_SLACK * max c on every active cell (measured:
    above -6e-16 max c).  When every inactive cell has one above -delta
    too, (u, v - delta) is feasible for the dual of the full program,
    so with unit total mass the objective is within delta of the full
    optimum.  Otherwise the violating cells join and the program is
    solved again; every round adds cells, so the loop ends.

    Raises InputError unless ell is finite and >= 1, and NotConverged,
    with HiGHS's model status, when it reports no optimum.
    """
    _check_order(ell)
    a = p.mass / p.mass.sum()
    b = q.mass / q.mass.sum()
    m, k = len(a), len(b)
    # HiGHS's tolerances are absolute, and it reads a cost from 1e20 up
    # as infinite: the program is solved on the supports times 2^-e,
    # exactly, and the distance scaled back by 2^e.
    e = _level_exponent(max(np.abs(p.support).max(), np.abs(q.support).max()))
    diff = np.ldexp(p.support, -e)[:, None, :] - np.ldexp(q.support, -e)[None, :, :]
    cost = np.linalg.norm(diff, axis=2) ** ell
    slack = TRANSPORT_SLACK * float(cost.max())
    active = _initial_cells(cost, a, b)
    # Row sums, then column sums with the last one dropped as redundant
    # (its dual is 0).
    b_eq = np.concatenate([a, b[:-1]])
    while True:
        rows, cols = np.nonzero(active)
        fun, x, dual = _transport_solve(cost[rows, cols], rows, cols, m, b_eq)
        reduced = cost - dual[:m, None] - np.append(dual[m:], 0.0)[None, :]
        violating = ~active & (reduced < -slack)
        if not violating.any():
            break
        active |= violating
    with np.errstate(over="ignore"):
        value = float(np.ldexp(max(fun, 0.0) ** (1.0 / ell), e))
    if return_plan:
        plan = np.zeros((m, k))
        plan[rows, cols] = x
        return value, plan
    return value


def _transport_solve(
    c: np.ndarray, rows: np.ndarray, cols: np.ndarray, m: int, b_eq: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Minimize c x over x >= 0, one variable per cell (rows, cols) of
    an m x k plan, with row sums b_eq[:m] and column sums b_eq[m:] for
    the first k - 1 columns.  Returns the objective, x and the duals of
    the sums; NotConverged unless HiGHS reports an optimum.

    The program goes column-wise to scipy's own HiGHS bindings, with
    presolve off, both feasibility tolerances at TRANSPORT_FEASIBILITY
    and the log silenced: HiGHS prints to stdout otherwise.
    """
    n, n_rows = len(c), len(b_eq)
    # Cell (i, j) enters the sum of row i and, unless j is the last
    # column, the sum of column j, in that order.
    in_col = cols < n_rows - m
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(1 + in_col, out=start[1:])
    index = np.empty(start[-1], dtype=np.intp)
    index[start[:-1]] = rows
    index[start[:-1][in_col] + 1] = m + cols[in_col]
    lp = _highs.HighsLp()
    lp.num_col_, lp.num_row_ = n, n_rows
    lp.col_cost_ = c
    lp.col_lower_ = np.zeros(n)
    lp.col_upper_ = np.full(n, np.inf)
    lp.row_lower_ = lp.row_upper_ = b_eq
    A = lp.a_matrix_
    A.format_ = _highs.MatrixFormat.kColwise
    A.num_col_, A.num_row_ = n, n_rows
    # The bindings copy integer vectors element by element, from a list
    # about twice as fast as from an array.
    A.start_ = start.tolist()
    A.index_ = index.tolist()
    A.value_ = np.ones(len(index))
    solver = _highs._Highs()
    solver.setOptionValue("output_flag", False)
    solver.setOptionValue("presolve", "off")
    solver.setOptionValue("primal_feasibility_tolerance", TRANSPORT_FEASIBILITY)
    solver.setOptionValue("dual_feasibility_tolerance", TRANSPORT_FEASIBILITY)
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise NotConverged(f"transport program failed: {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    return (
        solver.getInfo().objective_function_value,
        np.array(solution.col_value),
        np.array(solution.row_dual),
    )


def _initial_cells(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The first active cells of the transport program: each row's
    min(TRANSPORT_NEIGHBOURS, k) cheapest of the k columns and the
    north-west-corner staircase of the marginals a, b, which carries a
    feasible plan."""
    m, k = cost.shape
    active = np.zeros((m, k), dtype=bool)
    opened = min(TRANSPORT_NEIGHBOURS, k)
    near = np.argpartition(cost, opened - 1, axis=1)[:, :opened]
    active[np.arange(m)[:, None], near] = True
    # The staircase steps down a row where the row's cumulative mass
    # ends and right a column where the column's does.
    ends = np.concatenate([np.cumsum(a)[:-1], np.cumsum(b)[:-1]])
    down = np.argsort(ends, kind="stable") < m - 1
    # After i steps it has gone down rows[i] times, right i - rows[i].
    rows = np.zeros(len(ends) + 1, dtype=np.intp)
    np.cumsum(down, out=rows[1:])
    active[rows, np.arange(len(rows)) - rows] = True
    return active


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
) -> DiffStats:
    """Monte Carlo estimate of the coupled trajectory difference.

    Runs simulate_coupled_batch: n_traj autonomous runs from x0, the
    modes drawn from the stationary law model.pi.
    """
    states, red_states, _ = simulate_coupled_batch(
        model, reduced, partition, x0, horizon, n_traj, seed=seed
    )
    diff = np.linalg.norm(states - red_states, axis=2)
    return DiffStats(
        t=np.arange(horizon + 1),
        # Contiguous rows: each step's mean sums as diff[:, t].mean() does.
        mean_diff=np.ascontiguousarray(diff.T).mean(axis=1),
        max_diff=diff.max(axis=0),
        n_traj=n_traj,
    )
