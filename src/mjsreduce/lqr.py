"""Coupled Riccati synthesis and closed-loop cost evaluation.

The infinite-horizon jump LQR solution is the fixed point of the
coupled Riccati map.  With phi_i(X) = sum_j T(i, j) X_j:

    gain_i(X) = -(R + B_i' phi_i(X) B_i)^{-1} B_i' phi_i(X) A_i
    ricc_i(X) = Q + A_i' phi_i(X) A_i
                - A_i' phi_i(X)' B_i (R + B_i' phi_i(X) B_i)^{-1}
                  B_i' phi_i(X) A_i

iterated from X = (Q, ..., Q) until the gains settle.  riccati_solve
either returns a converged LqrSolution, timed over its iteration, or
raises: NotConverged when RICCATI_STEPS steps do not settle it,
Diverged when a value matrix passes RICCATI_CAP, SingularInnerMatrix
when some R + B' phi B cannot be inverted.  Callers never check
convergence themselves.

A fixed gain u = K x is priced through its closed-loop value matrices,
the solution of V = stage + L*(V) with stage_i = Q + K_i' R K_i and L*
the adjoint of the closed loop's second-moment operator
(stability.MomentOperator).  Both costs are pairings with V: the
stationary cost under iid noise is sigma_w^2 sum_i pi_i tr V_i, the
noise-free total from x0 is sum_i P(w_0 = i) x0' V_i x0 (Costa,
Fragoso & Marques, Discrete-Time Markov Jump Linear Systems, 2005,
ch. 3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    Diverged,
    InputError,
    NotConverged,
    NotMss,
    SingularInnerMatrix,
)
from .model import (
    MjsModel,
    Partition,
    _batch_modes,
    _check_noise_std,
    _check_x0,
    _resolve_init_dist,
    _rollout,
)
from .clustering import ReductionResult, reduce_model
from .stability import MomentOperator

__all__ = [
    "LqrSolution",
    "CostReport",
    "SuboptimalityResult",
    "riccati_operators",
    "riccati_solve",
    "lift_gains",
    "closed_loop_average_cost",
    "monte_carlo_cost",
    "cumulative_cost_noisefree",
    "reduced_lqr_suboptimality",
]

# Step budget of the closed-loop value recursion.
FIXED_POINT_STEPS = 1_000_000
# Step budget, stop tolerance and divergence cap of the Riccati iteration.
RICCATI_STEPS = 100_000
RICCATI_TOL = 1e-12
RICCATI_CAP = 1e12
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


def riccati_operators(
    model: MjsModel, Q, R, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One evaluation of the coupling, gain, and Riccati maps at X.

    X has shape (s, n, n).  Returns (phi, K, ricc) with shapes
    (s, n, n), (s, p, n), (s, n, n).  Raises SingularInnerMatrix when
    some R + B' phi B cannot be inverted.
    """
    Q, R = _check_qr(model, Q, R)
    X = np.asarray(X, dtype=float)
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
    ricc = Q + At @ phi @ A - At @ phi.transpose(0, 2, 1) @ B @ sol
    return phi, -sol, ricc


@dataclass
class LqrSolution:
    """A converged Riccati fixed point; elapsed_ms times its iteration."""

    P: np.ndarray
    K: np.ndarray
    iterations: int
    final_gain_delta: float
    elapsed_ms: float
    p_deltas: list[float] = field(default_factory=list, repr=False)


def riccati_solve(model: MjsModel, Q, R) -> LqrSolution:
    """Fixed point of the coupled Riccati map, started from X = Q.

    Stops when the largest gain change between consecutive iterations
    drops below RICCATI_TOL.  Raises Diverged when any value matrix
    norm passes RICCATI_CAP (e.g. unstabilizable dynamics), and
    NotConverged, naming the model size, after RICCATI_STEPS steps.
    """
    Q, R = _check_qr(model, Q, R)
    t0 = time.perf_counter()
    P = np.tile(Q, (model.s, 1, 1))
    K_prev = None
    # Identically zero inputs leave nothing for the gain test to see;
    # fall back to the value-delta stop so divergence is still caught.
    track_gains = bool(model.p) and bool(np.any(model.B != 0.0))
    p_deltas: list[float] = []
    change = float("nan")  # last change of the tracked gains or values
    for h in range(1, RICCATI_STEPS + 1):
        _, K, P_new = riccati_operators(model, Q, R, P)
        P_new = 0.5 * (P_new + P_new.transpose(0, 2, 1))
        p_deltas.append(float(np.linalg.norm(P_new - P, axis=(1, 2)).max()))
        P = P_new
        if float(np.linalg.norm(P, axis=(1, 2)).max()) > RICCATI_CAP:
            raise Diverged(f"value iteration passed {RICCATI_CAP:.0e} at step {h}")
        if track_gains:
            if K_prev is not None:
                change = float(np.linalg.norm(K - K_prev, 2, axis=(1, 2)).max())
            K_prev = K
        else:
            # No gains to track; settle on the value matrices instead.
            change = p_deltas[-1]
        if change < RICCATI_TOL:
            return LqrSolution(
                P=P,
                K=K,
                iterations=len(p_deltas),
                final_gain_delta=change if track_gains else 0.0,
                elapsed_ms=(time.perf_counter() - t0) * 1e3,
                p_deltas=p_deltas,
            )
    raise NotConverged(
        f"Riccati iteration on (s, n, p) = ({model.s}, {model.n}, {model.p}) "
        f"did not converge in {RICCATI_STEPS} steps "
        f"(last {'gain' if track_gains else 'value'} change {change:.3e})"
    )


def lift_gains(K_reduced: np.ndarray, partition: Partition) -> np.ndarray:
    """Copy each cluster's gain to all of its modes: u_t = K_k x_t
    whenever the active mode lies in cluster k."""
    return np.asarray(K_reduced)[partition.labels]


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
    step.  For Monte Carlo, stderr is the standard error across
    trajectory means.
    """

    value: float
    method: str
    sigma_w: float
    stderr: float | None = None
    diverged: bool = False
    iterations: int | None = None
    gap: float | None = None


def _closed_loop_values(model: MjsModel, K, Q, R) -> tuple[np.ndarray, int, float]:
    """Value matrices of u = K x: the solution of V = stage + L*(V).

    Iterates V <- stage + L*(V) from V = stage until a step moves no
    entry by more than 1e-14 times the largest entry of V.  Returns
    (V, steps, gap of the last step).  Raises NotMss for a closed loop
    that is not mean-square stable, NotConverged after
    FIXED_POINT_STEPS steps.
    """
    A_cl, stage = _closed_loop(model, K, Q, R)
    op = MomentOperator(A_cl, model.T)
    rho = op.rho()
    if rho >= 1.0:
        raise NotMss(f"closed loop has augmented spectral radius {rho:.6f}")
    V = stage
    for k in range(1, FIXED_POINT_STEPS + 1):
        new = stage + op.adjoint(V)
        gap = float(np.abs(new - V).max())
        V = new
        if gap <= 1e-14 * float(np.abs(V).max()):
            return V, k, gap
    raise NotConverged(
        f"closed-loop values did not settle in {FIXED_POINT_STEPS} steps "
        f"(last change {gap:.3e})"
    )


def closed_loop_average_cost(
    model: MjsModel, K, Q, R, sigma_w: float
) -> CostReport:
    """Stationary per-step cost of u = K x under iid state noise.

    sigma_w^2 sum_i pi_i tr V_i over the closed-loop value matrices V.
    Raises InputError for a NaN, infinite or negative sigma_w, NotMss
    for a closed loop that is not mean-square stable, NotConverged
    after FIXED_POINT_STEPS steps of the value recursion.
    """
    _check_noise_std(sigma_w, "sigma_w")
    V, iterations, gap = _closed_loop_values(model, K, Q, R)
    value = sigma_w**2 * float(np.einsum("i,ijj->", model.pi, V))
    return CostReport(
        value=value,
        method="closed_form",
        sigma_w=sigma_w,
        iterations=iterations,
        gap=gap,
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
    Raises InputError unless n_traj >= 1 and 0 <= burn_in < horizon.
    """
    if n_traj < 1:
        raise InputError(f"n_traj must be at least 1, got {n_traj}")
    if not 0 <= burn_in < horizon:
        raise InputError(
            f"burn_in must lie in [0, horizon), got {burn_in} for horizon {horizon}"
        )
    A_cl, stage = _closed_loop(model, K, Q, R)
    rng = np.random.default_rng(seed)
    modes = _batch_modes(rng, model, n_traj, horizon, None)
    x0 = np.zeros(model.n) if x0 is None else x0
    totals = np.zeros(n_traj)
    for t, X in enumerate(_rollout(A_cl, modes[None], x0, sigma_w, rng)):
        if t and (not np.all(np.isfinite(X)) or np.abs(X).max() > MC_BLOWUP):
            return CostReport(
                value=float("inf"),
                method="monte_carlo",
                sigma_w=sigma_w,
                diverged=True,
            )
        if burn_in <= t < horizon:
            totals += np.einsum("bj,bjk,bk->b", X[0], stage[modes[:, t]], X[0])
    per_traj = totals / (horizon - burn_in)
    return CostReport(
        value=float(per_traj.mean()),
        method="monte_carlo",
        sigma_w=sigma_w,
        stderr=float(per_traj.std(ddof=1) / np.sqrt(n_traj)) if n_traj > 1 else None,
    )


def cumulative_cost_noisefree(
    model: MjsModel, K, Q, R, x0, init_dist=None
) -> float:
    """Expected total cost sum_t x' (Q + K' R K) x without noise.

    sum_i P(w_0 = i) x0' V_i x0 over the closed-loop value matrices V.
    Raises DimensionMismatch for an x0 that is not of length n, NotMss
    for a closed loop that is not mean-square stable, NotConverged
    after FIXED_POINT_STEPS steps of the value recursion.
    """
    x0 = _check_x0(x0, model.n)
    init, _ = _resolve_init_dist(model, init_dist)
    V, _, _ = _closed_loop_values(model, K, Q, R)
    return float(np.einsum("i,j,ijk,k->", init, x0, V, x0))


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
    restarts: int = 50,
    weights=None,
    reduction: ReductionResult | None = None,
) -> SuboptimalityResult:
    """Cost of controlling the full system with cluster-level gains.

    Solves the Riccati fixed point for the full system (J_star via the
    stationary closed-form cost) and for the reduced system, lifts the
    reduced gains over the partition, and evaluates their cost J_hat on
    the full system.  Timing covers the Riccati iterations only.
    Raises NotConverged, naming that model's size, when either Riccati
    iteration does not converge.
    """
    if reduction is None:
        reduction = reduce_model(
            model, r, branch=branch, seed=seed, restarts=restarts, weights=weights
        )
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
