"""Coupled Riccati synthesis and closed-loop cost evaluation.

The infinite-horizon jump LQR solution is the fixed point of the
coupled Riccati map.  With phi_i(X) = sum_j T(i, j) X_j:

    gain_i(X) = -(R + B_i' phi_i(X) B_i)^{-1} B_i' phi_i(X) A_i
    ricc_i(X) = Q + A_i' phi_i(X) A_i
                - A_i' phi_i(X)' B_i (R + B_i' phi_i(X) B_i)^{-1}
                  B_i' phi_i(X) A_i

iterated from X = (Q, ..., Q) until the gains and the values settle
and the gain is proved stabilizing.  The gain test is
max_i ||K_i - K_prev_i||_2 < RICCATI_TOL.  Those 2-norms, one SVD per
mode, are taken only on a step whose largest Frobenius gain change is
at most sqrt(min(p, n)) RICCATI_TOL, lifted by a rounding margin; no
other step can stop, since ||D||_2 >= ||D||_F / sqrt(min(p, n)), so the
iteration stops where a per-step 2-norm test would.  The values settle
when no block moves by more than RICCATI_SETTLE of the largest entry,
and the previous values, a Lyapunov witness of the new gain, prove it
stabilizing (riccati_solve).  With B identically zero there is no gain
to settle, and the solution is the zero gain's closed-loop value below.
riccati_solve either returns a converged, stabilizing LqrSolution,
timed over its iteration, or raises: NotConverged when its step budget
does not settle it, Diverged when a value matrix passes RICCATI_CAP
times the largest |Q| entry, SingularInnerMatrix when some
R + B' phi B cannot be inverted, NotMss for a settled gain or a loop
without inputs that is not mean-square stable.  Callers never check
convergence themselves.

A fixed gain u = K x is priced through its closed-loop value matrices,
the solution of V = stage + L*(V) with stage_i = Q + K_i' R K_i and L*
the adjoint of the closed loop's second-moment operator
(stability.MomentOperator).  The stationary cost under iid noise is
the pairing sigma_w^2 sum_i pi_i tr V_i (Costa, Fragoso & Marques,
Discrete-Time Markov Jump Linear Systems, 2005, ch. 3).
monte_carlo_cost estimates the same cost by rolling the closed loop
A + B K out from the stationary law.

The recursion also proves the closed loop mean-square stable.  A loop
is stable iff some W with every W_i > 0 has W_i - L*(W)_i > 0 in every
mode (ibid., ch. 3), and up to rounding the converged V of a positive
definite stage is such a W; _witness_certifies checks it against a
stated rounding bound.  Only when that fails (say, for a semidefinite
stage), or when the recursion runs WITNESS_STEPS steps or grows past
WITNESS_GROWTH unconverged, is the spectral radius MomentOperator.rho()
computed; NotMss carries it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    Diverged,
    InputError,
    NotConverged,
    NotMss,
    PartitionMismatch,
    SingularInnerMatrix,
)
from .model import (
    MjsModel,
    Partition,
    _batch_modes,
    _check_count,
    _check_seed,
    _check_sigma_w,
    _rollout,
)
from .clustering import ReductionResult, reduce_model
from .stability import MomentOperator

__all__ = [
    "LqrSolution",
    "CostReport",
    "SuboptimalityResult",
    "riccati_solve",
    "lift_gains",
    "closed_loop_average_cost",
    "monte_carlo_cost",
    "reduced_lqr_suboptimality",
]

# Step budget of the closed-loop value recursion.
FIXED_POINT_STEPS = 1_000_000
# An unconverged recursion that runs this many steps, or whose largest
# value entry passes this multiple of the largest stage entry, proves
# its loop through the spectral radius rather than its own witness.
WITNESS_STEPS = 1_000
WITNESS_GROWTH = 1e12
# Step budget, stop tolerances on the gain change and on the value
# change relative to the largest |P| entry, and divergence cap, relative
# to the largest |Q| entry, of the Riccati iteration.
RICCATI_STEPS = 100_000
RICCATI_TOL = 1e-12
RICCATI_SETTLE = 1e-10
RICCATI_CAP = 1e12
# Relative margin of the Riccati stop test's Frobenius gate (see
# riccati_solve).  It covers the rounding of both computed norms: numpy's
# Frobenius norm of a p x n block is off by at most (p n + 2) u, and
# LAPACK's top singular value by p(p, n) eps, p a modestly growing
# function (LAPACK Users' Guide, 3rd ed., 1999, sec. 4.9), far below
# 1e-9 at any size the package handles.
GAIN_GATE_MARGIN = 1e-9
# State norm past which a Monte Carlo run counts as diverged.
MC_BLOWUP = 1e8


def _check_qr(model: MjsModel, Q: np.ndarray, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    if Q.shape != (model.n, model.n):
        raise DimensionMismatch(f"Q must be {model.n} x {model.n}, got {Q.shape}")
    if R.shape != (model.p, model.p):
        raise DimensionMismatch(f"R must be {model.p} x {model.p}, got {R.shape}")
    return Q, R


def _riccati_step(
    model: MjsModel, Q: np.ndarray, R: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One evaluation of the gain and Riccati maps at X, of shape
    (s, n, n), for checked Q and R.  Returns (K, ricc) with shapes
    (s, p, n), (s, n, n).  Raises SingularInnerMatrix when some
    R + B' phi B cannot be inverted.
    """
    phi = np.einsum("ij,jkl->ikl", model.T, X)
    A, B, At = model.A, model.B, model.A.transpose(0, 2, 1)
    Bt_phi = B.transpose(0, 2, 1) @ phi
    G = R + Bt_phi @ B
    try:
        sol = np.linalg.solve(G, Bt_phi @ A)
    except np.linalg.LinAlgError as e:
        # The solve fails on an exactly zero LU pivot, which zeroes det.
        bad = int(np.argmin(np.abs(np.linalg.det(G))))
        raise SingularInnerMatrix(
            f"inner matrix R + B' phi B singular at mode {bad}"
        ) from e
    return -sol, Q + At @ phi @ A - At @ phi.transpose(0, 2, 1) @ B @ sol


def _gain_change(delta: np.ndarray) -> float:
    """Largest 2-norm of the per-mode gain changes delta, shape (s, p, n)."""
    return float(np.linalg.norm(delta, 2, axis=(1, 2)).max())


@dataclass
class LqrSolution:
    """A converged Riccati fixed point; elapsed_ms times its iteration."""

    P: np.ndarray
    K: np.ndarray
    iterations: int
    final_gain_delta: float
    elapsed_ms: float


def riccati_solve(model: MjsModel, Q, R) -> LqrSolution:
    """Fixed point of the coupled Riccati map, started from X = Q.

    Stops at the first step h that passes three tests, each on the
    iterates P_{h-1} and P_h and the gain K_h computed from P_{h-1}:

    - the gain has settled: max_i ||K_h,i - K_{h-1},i||_2 < RICCATI_TOL;
    - the values have settled: max_i ||P_h,i - P_{h-1},i||_F is at most
      RICCATI_SETTLE times the largest |P_h| entry, since a weak input
      settles its gain, which moves by about B dP, while P still moves;
    - K_h is proved stabilizing with P_{h-1} as its Lyapunov witness,
      by _witness_certifies on A + B K_h, else by the spectral radius of
      that closed loop, which raises NotMss when it is not below 1.

    The gain 2-norms cost one SVD per mode, so they are taken only on
    steps that could stop: since ||D||_2 >= ||D||_F / sqrt(min(p, n))
    (Golub & Van Loan, Matrix Computations, 2013, sec. 2.3), a step whose
    largest Frobenius change passes sqrt(min(p, n)) RICCATI_TOL
    (1 + GAIN_GATE_MARGIN) cannot, and skips them.  Raises Diverged when
    any value matrix norm passes RICCATI_CAP times the largest |Q| entry
    (e.g. unstabilizable dynamics), so (c Q, c R) gives c P and the same
    K and steps, and NotConverged, naming the model size and the 2-norm
    of the last gain change, after RICCATI_STEPS steps.

    With B identically zero no gain acts: P is the value of the zero
    gain, from _closed_loop_values with its stop rule, stability proof
    and FIXED_POINT_STEPS budget, so a loop that is not mean-square
    stable raises NotMss, and no inner matrix is formed.
    """
    Q, R = _check_qr(model, Q, R)
    t0 = time.perf_counter()
    if not np.any(model.B):
        K = np.zeros((model.s, model.p, model.n))
        V, steps, _, _ = _closed_loop_values(model, K, Q, R)
        P = 0.5 * (V + V.transpose(0, 2, 1))
        return LqrSolution(P, K, steps, 0.0, (time.perf_counter() - t0) * 1e3)
    P = np.tile(Q, (model.s, 1, 1))
    cap = RICCATI_CAP * float(np.abs(Q).max())
    K_prev = delta = None
    gate = math.sqrt(min(model.p, model.n)) * RICCATI_TOL * (1.0 + GAIN_GATE_MARGIN)
    for h in range(1, RICCATI_STEPS + 1):
        X = P
        K, P = _riccati_step(model, Q, R, X)
        P = 0.5 * (P + P.transpose(0, 2, 1))
        if float(np.linalg.norm(P, axis=(1, 2)).max()) > cap:
            raise Diverged(f"value iteration passed {RICCATI_CAP:.0e} max|Q| at step {h}")
        if K_prev is not None:
            delta = K - K_prev
            # NaN fails the gate and takes the SVD, as it would without it.
            if not np.linalg.norm(delta, axis=(1, 2)).max() > gate:
                change = _gain_change(delta)
                moves = np.linalg.norm(P - X, axis=(1, 2)).max()
                if change < RICCATI_TOL and moves <= RICCATI_SETTLE * np.abs(P).max():
                    op = MomentOperator(model.A + model.B @ K, model.T)
                    if not _witness_certifies(op, X):
                        _rho_proof(op)
                    return LqrSolution(P, K, h, change, (time.perf_counter() - t0) * 1e3)
        K_prev = K
    change = float("nan") if delta is None else _gain_change(delta)
    raise NotConverged(
        f"Riccati iteration on (s, n, p) = ({model.s}, {model.n}, {model.p}) "
        f"did not converge in {RICCATI_STEPS} steps (last gain change {change:.3e})"
    )


def lift_gains(K_reduced: np.ndarray, partition: Partition) -> np.ndarray:
    """Copy each cluster's gain to all of its modes: u_t = K_k x_t
    whenever the active mode lies in cluster k.  Raises
    PartitionMismatch unless there is one gain per cluster."""
    K_reduced = np.asarray(K_reduced)
    if K_reduced.shape[:1] != (partition.r,):
        raise PartitionMismatch(f"gains of shape {K_reduced.shape} for {partition.r} clusters")
    return K_reduced[partition.labels]


def _closed_loop(model: MjsModel, K, Q, R) -> tuple[np.ndarray, np.ndarray]:
    """Closed-loop modes A_i + B_i K_i of u = K x and their stage
    weights Q + K_i' R K_i, the per-mode x' Q x + u' R u."""
    Q, R = _check_qr(model, Q, R)
    K = np.asarray(K, dtype=float)
    if K.shape != (model.s, model.p, model.n):
        raise DimensionMismatch(
            f"gains must have shape ({model.s}, {model.p}, {model.n}), got {K.shape}"
        )
    A_cl = model.A + np.einsum("ijk,ikl->ijl", model.B, K)
    return A_cl, Q + np.einsum("ikj,kl,ilm->ijm", K, R, K)


@dataclass
class CostReport:
    """One cost estimate of a gain.

    For the closed form, iterations and gap describe the value
    recursion: its step count and the largest entry change of its last
    step; proof names what showed the closed loop mean-square stable,
    "witness" (its own value matrices) or "rho" (the spectral radius).
    For Monte Carlo, stderr is the standard error across trajectory
    means.
    """

    value: float
    method: str
    sigma_w: float
    stderr: float | None = None
    diverged: bool = False
    iterations: int | None = None
    gap: float | None = None
    proof: str | None = None


def _witness_certifies(op: MomentOperator, V: np.ndarray) -> bool:
    """True when W = (V + V')/2 proves op mean-square stable, rounding
    included: every W_i > 0 and every W_i - L*(W)_i > 0.

    L* maps positive semidefinite stacks to positive semidefinite ones,
    since MomentOperator holds T >= 0, so such a W gives L*(W) <= c W with c < 1 and rho < 1.
    The products of fl(L*(W)) = fl(fl(A' fl(T W)) A) sum s, n and n
    terms, so |fl(L*(W)) - L*(W)| <= gamma_{s+2n} F entrywise, where
    F_i = |A_i|' (sum_j T_ij |W_j|) |A_i| and gamma_k = k u / (1 - k u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    ch. 3), plus at most (s + 2n) (1 + a_i)^2 eta / 2 per entry for
    underflow, with a_i the largest column sum of |A_i| and eta the
    smallest subnormal.  A block's 2-norm is at most its Frobenius
    norm, and four more units of u absorb the rounding of F itself and
    of the bound.  So each D_i = fl(W_i - fl(L*(W)_i)) is off the exact
    residual by at most

        (s + 2n + 4) (u ||F_i||_F + n (1 + a_i)^2 eta) + 2 u ||D_i||_F,

    the last term for the subtraction and for eigvalsh reading only
    the lower triangle of D_i.  A computed eigenvalue of a symmetric X
    is off by at most 8 n^2 u ||X||_F.  The witness holds when
    lambda_min(W_i) and lambda_min(D_i) clear these bounds in every
    block.
    """
    s, n = op.s, op.n
    u, eta = np.finfo(float).eps / 2, np.finfo(float).smallest_subnormal
    W = 0.5 * (V + V.transpose(0, 2, 1))
    D = W - op.adjoint(W)
    absA = np.abs(op.A)
    F = MomentOperator(absA, op.T).adjoint(np.abs(W))
    underflow = n * (1.0 + absA.sum(axis=1).max(axis=1)) ** 2 * eta
    norm_W, norm_D = np.linalg.norm(W, axis=(1, 2)), np.linalg.norm(D, axis=(1, 2))
    off = (s + 2 * n + 4) * (u * np.linalg.norm(F, axis=(1, 2)) + underflow) + 2 * u * norm_D
    eig = 8 * n * n * u
    return bool(
        np.all(np.linalg.eigvalsh(W)[:, 0] > eig * norm_W)
        and np.all(np.linalg.eigvalsh(D)[:, 0] > off + eig * norm_D)
    )


def _rho_proof(op: MomentOperator) -> str:
    """'rho' when the spectral radius of op is below 1; NotMss otherwise."""
    rho = op.rho()
    if rho >= 1.0:
        raise NotMss(f"closed loop has augmented spectral radius {rho:.6f}")
    return "rho"


def _closed_loop_values(model: MjsModel, K, Q, R) -> tuple[np.ndarray, int, float, str]:
    """Value matrices of u = K x: the solution of V = stage + L*(V).

    Iterates V <- stage + L*(V) from V = stage until a step moves no
    entry by more than 1e-14 times the largest entry of V, and the tail
    left unsummed is as small.  The recursion is a power iteration of
    L*, so with r the ratio of the last two gaps the tail is about
    gap r / (1 - r); without a ratio r < 1 the gap must be at most
    1e-15 max|V|.  Returns (V, steps, gap of the last step, proof).
    The converged V is its own stability witness (proof "witness", see
    _witness_certifies).  The spectral radius is computed only when the
    witness fails, or once the recursion passes WITNESS_STEPS steps or
    WITNESS_GROWTH times the largest stage entry unconverged (proof
    "rho").  Raises NotMss for a closed loop that is not mean-square
    stable, NotConverged after FIXED_POINT_STEPS steps.
    """
    A_cl, stage = _closed_loop(model, K, Q, R)
    op = MomentOperator(A_cl, model.T)
    cap = WITNESS_GROWTH * float(np.abs(stage).max())
    proof = None
    V = stage
    gap = float("nan")
    for k in range(1, FIXED_POINT_STEPS + 1):
        new = stage + op.adjoint(V)
        last, gap = gap, float(np.abs(new - V).max())
        V = new
        top = float(np.abs(V).max())
        r = gap / last if last > 0.0 else 1.0
        tail_ok = r < 1.0 and gap * r / (1.0 - r) <= 1e-14 * top
        if gap <= 1e-14 * top and (tail_ok or gap <= 1e-15 * top):
            if proof is None:
                proof = "witness" if _witness_certifies(op, V) else _rho_proof(op)
            return V, k, gap, proof
        if proof is None and (k >= WITNESS_STEPS or top > cap):
            proof = _rho_proof(op)
    raise NotConverged(
        f"closed-loop values on (s, n, p) = ({model.s}, {model.n}, {model.p}) did not "
        f"settle in {FIXED_POINT_STEPS} steps (last change {gap:.3e})"
    )


def _noise_variance(sigma_w) -> float:
    """sigma_w^2; InputError unless sigma_w is finite and nonnegative
    and its square is finite."""
    _check_sigma_w(sigma_w)
    try:
        return float(sigma_w) ** 2
    except OverflowError:
        raise InputError(f"sigma_w = {sigma_w} has a square beyond the float range") from None


def closed_loop_average_cost(
    model: MjsModel, K, Q, R, sigma_w: float
) -> CostReport:
    """Stationary per-step cost of u = K x under iid state noise.

    sigma_w^2 sum_i pi_i tr V_i over the closed-loop value matrices V.
    Mean-square stability is proved by V itself as a Lyapunov witness,
    and by the spectral radius only where that fails (proof names
    which; see _closed_loop_values).  Raises InputError for a T entry
    that is not >= 0 and for a NaN, infinite or negative sigma_w or one
    whose square overflows, NotMss for a closed loop that is not
    mean-square stable, NotConverged after FIXED_POINT_STEPS steps of
    the value recursion.
    """
    variance = _noise_variance(sigma_w)
    V, iterations, gap, proof = _closed_loop_values(model, K, Q, R)
    value = variance * float(np.einsum("i,ijj->", model.pi, V))
    return CostReport(
        value=value,
        method="closed_form",
        sigma_w=sigma_w,
        iterations=iterations,
        gap=gap,
        proof=proof,
    )


def monte_carlo_cost(
    model: MjsModel,
    K,
    Q,
    R,
    sigma_w: float,
    horizon: int,
    n_traj: int,
    burn_in: int = 0,
    seed=None,
    x0=None,
) -> CostReport:
    """Empirical average stage cost of u = K x, batched over n_traj runs.

    Averages x' (Q + K' R K) x over steps burn_in..horizon-1 and over
    trajectories; the reported stderr is across trajectory means.  A
    state entry passing MC_BLOWUP marks the estimate diverged (inf).
    Raises DimensionMismatch unless burn_in and horizon are integers
    >= 0, n_traj one >= 1 and an integer seed is not negative, and
    InputError unless burn_in < horizon.
    """
    _check_count("horizon", horizon, 0)
    _check_count("n_traj", n_traj, 1)
    _check_count("burn_in", burn_in, 0)
    _check_seed(seed)
    if not burn_in < horizon:
        raise InputError(
            f"burn_in must lie in [0, horizon), got {burn_in} for horizon {horizon}"
        )
    A_cl, stage = _closed_loop(model, K, Q, R)
    rng = np.random.default_rng(seed)
    modes = _batch_modes(rng, model, n_traj, horizon)
    x0 = np.zeros(model.n) if x0 is None else x0
    totals = np.zeros(n_traj)
    for t, X in enumerate(_rollout(A_cl, modes[None], x0, sigma_w, rng)):
        # One reduction; NaN and inf fail the comparison too.
        if t and not np.abs(X).max() <= MC_BLOWUP:
            return CostReport(
                value=float("inf"),
                method="monte_carlo",
                sigma_w=sigma_w,
                diverged=True,
            )
        if burn_in <= t < horizon:
            x = X[0]
            Sx = np.einsum("bjk,bk->bj", np.take(stage, modes[:, t], axis=0), x)
            totals += np.einsum("bj,bj->b", x, Sx)
    per_traj = totals / (horizon - burn_in)
    return CostReport(
        value=float(per_traj.mean()),
        method="monte_carlo",
        sigma_w=sigma_w,
        stderr=float(per_traj.std(ddof=1) / np.sqrt(n_traj)) if n_traj > 1 else None,
    )


@dataclass
class SuboptimalityResult:
    J_star: float
    J_hat: float
    gap: float
    iters_full: int
    iters_reduced: int
    time_full_ms: float
    time_reduced_ms: float
    reduction: ReductionResult

    def to_dict(self) -> dict:
        return {
            "J_star": self.J_star,
            "J_hat": self.J_hat,
            "gap": self.gap,
            "iters_full": self.iters_full,
            "iters_reduced": self.iters_reduced,
            "time_full_ms": self.time_full_ms,
            "time_reduced_ms": self.time_reduced_ms,
        }


def reduced_lqr_suboptimality(
    model: MjsModel,
    r: int,
    Q,
    R,
    sigma_w: float,
    branch: str | None = None,
    seed=None,
    reduction: ReductionResult | None = None,
) -> SuboptimalityResult:
    """Cost of controlling the full system with cluster-level gains.

    Solves the Riccati fixed point for the full system (J_star via the
    stationary closed-form cost) and for the reduced system, lifts the
    reduced gains over the partition, and evaluates their cost J_hat on
    the full system.  Timing covers the Riccati iterations only.
    Raises NotConverged, naming that model's size, when either Riccati
    iteration does not converge, and InputError up front for a sigma_w
    that closed_loop_average_cost refuses.
    """
    _noise_variance(sigma_w)
    if reduction is None:
        reduction = reduce_model(model, r, branch=branch, seed=seed)
    sol_hat = riccati_solve(reduction.reduced, Q, R)
    sol_full = riccati_solve(model, Q, R)
    K_lift = lift_gains(sol_hat.K, reduction.partition)
    J_star = closed_loop_average_cost(model, sol_full.K, Q, R, sigma_w).value
    J_hat = closed_loop_average_cost(model, K_lift, Q, R, sigma_w).value
    return SuboptimalityResult(
        J_star=J_star,
        J_hat=J_hat,
        gap=J_hat - J_star,
        iters_full=sol_full.iterations,
        iters_reduced=sol_hat.iterations,
        time_full_ms=sol_full.elapsed_ms,
        time_reduced_ms=sol_hat.elapsed_ms,
        reduction=reduction,
    )
