"""The benchmark's workloads: inputs drawn from a workload seed, the ops
that call the package's public API, and the check of every op output.

Each workload has two steps.  `inputs(seed)` is the set-up a user pays
once (input generation and, for certify, the reductions being
certified); it is timed as part of setup_s.  `ops(inputs, refs)` builds
the oracles the checks compare against, outside every timed phase, and
returns the ops in the order one round runs them.

Ops look package functions up on `mjsreduce` at call time, so the
tracer's wrappers are used whenever they are installed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import mjsreduce as mj
from mjsreduce.stability import default_level

import checks


@dataclass
class Op:
    key: str  # stable name, used in references.json
    kind: str  # group for per-kind latency statistics
    run: Callable[[], object]
    check: Callable[[object], None]
    reference: Callable[[object], object]  # output -> committed value


def child_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence([int(seed)] + [int(k) for k in key])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# -- sweep: many small reductions in the fig2 pattern ------------------

SWEEP_S = (8, 16, 32, 64)
SWEEP_EPS = (0.0, 0.25, 1.0, 2.5)
SWEEP_BRANCHES = ("aggregatable", "lumpable")
SWEEP_R, SWEEP_N, SWEEP_P = 4, 5, 3
RESTARTS = 50


def demoted_weights(model, t_factor: float = 0.01):
    """fig2's feature weights: defaults with the transition share scaled
    down."""
    wa, wb, wt = mj.default_weights(model)
    wt *= t_factor
    total = wa + wb + wt
    return (wa / total, wb / total, wt / total)


def sweep_inputs(seed: int) -> list:
    out = []
    for si, s in enumerate(SWEEP_S):
        for ei, eps in enumerate(SWEEP_EPS):
            for bi, branch in enumerate(SWEEP_BRANCHES):
                target = eps * s * s
                model, truth, _ = mj.generate(
                    mj.SynthConfig(
                        s, SWEEP_R, SWEEP_N, SWEEP_P,
                        eps_A=target, eps_B=target, eps_T=0.0,
                        branch=branch, seed=child_seed(seed, 1, si, ei, bi),
                    )
                )
                out.append(
                    {
                        "label": f"s{s}-e{eps:g}-{branch[:4]}",
                        "s": s,
                        "model": model,
                        "truth": truth,
                        "branch": branch,
                        "weights": demoted_weights(model),
                        "seed": child_seed(seed, 10, si, ei, bi),
                    }
                )
    return out


def _sweep_op(item: dict, explicit: bool, refs: dict) -> Op:
    model, truth = item["model"], item["truth"]
    branch = item["branch"] if explicit else None
    weights = item["weights"] if explicit else None
    mode = "branch" if explicit else "auto"
    key = f"{item['label']}-{mode}"
    ref = refs.get(key)

    def run():
        res = mj.reduce_model(
            model, SWEEP_R, branch=branch, weights=weights,
            restarts=RESTARTS, seed=item["seed"],
        )
        mr = mj.misclustering_rate(res.partition, truth)
        report = mj.mr_bound(model, res.partition, res.branch)
        return res.partition, mr, report

    def check(out):
        partition, mr, report = out
        checks.mr_in_range(mr, SWEEP_R)
        checks.require(
            not math.isnan(report.bound_value) and report.bound_value >= 0.0,
            f"MR bound {report.bound_value} is not a nonnegative number",
        )
        if ref is not None:
            got = checks.partition_digest(partition.labels, mr)
            checks.require(got == ref, f"partition/MR digest {got} != reference {ref}")

    return Op(
        key=key,
        kind=f"s{item['s']}-{mode}",
        run=run,
        check=check,
        reference=lambda out: checks.partition_digest(out[0].labels, out[1]),
    )


def sweep_ops(inputs: list, refs: dict | None) -> list[Op]:
    return [
        _sweep_op(item, explicit, refs or {})
        for item in inputs
        for explicit in (True, False)
    ]


# -- certify: certificates of precomputed reductions --------------------

CERTIFY_SIZES = ((8, 3), (16, 4), (36, 4))
CERTIFY_R = 4
CERTIFY_EPS = 0.05
# Product budget of the JSR and kappa enumerations.  A tenth of the
# package default keeps an op within seconds while the enumeration
# still stops on the budget at every synthetic size.
CERTIFY_BUDGET = 10_000
HORIZON = 25
N_TRAJ = 500
KERNEL_T = (1, 2, 3, 4, 5, 6)
FIG4_X0 = ((1.0, 1.0), (1.0, -1.0), (1.0, 0.0), (0.0, 1.0))


def certify_inputs(seed: int) -> list:
    out = []
    for k, (s, n) in enumerate(CERTIFY_SIZES):
        model, _, _ = mj.generate(
            mj.SynthConfig(
                s, CERTIFY_R, n, 0,
                eps_A=CERTIFY_EPS, eps_T=CERTIFY_EPS, seed=child_seed(seed, 2, k),
            )
        )
        out.append(
            {
                "label": f"s{s}n{n}",
                "model": model,
                "reduction": mj.reduce_model(model, CERTIFY_R, seed=child_seed(seed, 20, k)),
                "x0": np.ones(n),
                "seed": child_seed(seed, 21, k),
                "kernels": False,
            }
        )
    # The fixed fig4 model from four initial states, sharing one
    # reduction.  Four of the seven ops make the median op a fig4 op on
    # every seed, whatever the synthetic instances cost.
    model, _ = mj.fig4_model()
    reduction = mj.reduce_model(model, 3, seed=child_seed(seed, 20, len(out)))
    for i, x0 in enumerate(FIG4_X0):
        out.append(
            {
                "label": f"fig4-x{i}",
                "model": model,
                "reduction": reduction,
                "x0": np.array(x0),
                "seed": child_seed(seed, 21, len(out)),
                "kernels": True,
            }
        )
    return out


def _certify_op(item: dict, ref) -> Op:
    model, red, x0 = item["model"], item["reduction"], item["x0"]
    # Oracles, built here with numpy alone.
    rho_full = checks.dense_rho(model.A, model.T)
    rho_red = checks.dense_rho(red.reduced.A, red.reduced.T)
    ext_full = checks.mode_extremes(model.A)
    ext_red = checks.mode_extremes(red.reduced.A)

    def run():
        b = mj.BoundInputs.from_model(
            model, red.partition, red.branch, x0, budget=CERTIFY_BUDGET
        )
        rep = mj.stability_report(red.reduced, budget=CERTIFY_BUDGET)
        curve = np.array(
            [[mj.mss_traj_bound(b, t), mj.us_traj_bound(b, t)] for t in range(HORIZON + 1)]
        )
        diff = mj.empirical_traj_diff(
            model, red.reduced, red.partition, x0, HORIZON, N_TRAJ, seed=item["seed"]
        )
        kernels = []
        if item["kernels"]:
            for t in KERNEL_T:
                kp = mj.transition_kernel_enum(model, x0, t)
                kq = mj.transition_kernel_enum(red.reduced, x0, t)
                kernels.append((kp, kq, mj.wasserstein_exact(kp, kq, ell=2)))
        return b, rep, curve, diff, kernels

    def check(out):
        b, rep, curve, diff, kernels = out
        checks.rel_close(b.rho, default_level(rho_full), 1e-9, "BoundInputs.rho")
        checks.rel_close(rep.rho_aug, rho_red, 1e-9, "reduced rho_aug")
        checks.jsr_bracket(rep.jsr.lower, rep.jsr.upper, ext_red, ref)
        # The full model's bracket is visible only through xi, its lift.
        slack = 1e-9 * max(1.0, ext_full[1])
        checks.require(
            ext_full[0] - slack <= b.xi <= default_level(ext_full[1]) + slack,
            f"xi = {b.xi} outside [max rho(A_i), lift of max ||A_i||] = {ext_full}",
        )
        for what, value in (
            ("tau", b.tau), ("kappa", b.kappa),
            ("reduced tau", rep.tau.value), ("reduced kappa", rep.kappa.value),
        ):
            checks.at_least_one(value, what)
        checks.require(
            bool(np.all(np.isfinite(curve)) and np.all(curve >= 0.0)),
            "trajectory bound curve is not finite and nonnegative",
        )
        premises_hold, _ = mj.mss_premises(b)
        if premises_hold:
            checks.below_bound(diff.mean_diff, curve[:, 0], "E||x_t - xhat_t||")
        for kp, kq, w2 in kernels:
            for k in (kp, kq):
                checks.require(abs(k.mass.sum() - 1.0) <= 1e-9, f"kernel mass {k.mass.sum()}")
            lower = mj.w2_moment_lower_bound(kp, kq)
            checks.require(
                w2 >= lower - 1e-9 * max(1.0, lower),
                f"W2 = {w2} below its moment lower bound {lower}",
            )

    return Op(
        key=item["label"],
        kind=item["label"].split("-")[0],
        run=run,
        check=check,
        reference=lambda out: [out[1].jsr.lower, out[1].jsr.upper],
    )


def certify_ops(inputs: list, refs: dict | None) -> list[Op]:
    refs = refs or {}
    return [_certify_op(item, refs.get(item["label"])) for item in inputs]


# -- regulate: reduced-order LQR design and validation ------------------

# (s, n, p, planted clusters, designed cluster counts).  The table2
# cell (s = 36) is drawn twice, so that the median op is the median of
# six mid-size designs on two models rather than of three on one.
REGULATE_CELLS = (
    (16, 4, 2, 4, (4,)),
    (36, 4, 2, 12, (6, 12, 24)),
    (64, 4, 2, 8, (8,)),
    (60, 6, 3, 10, (10,)),
    (36, 4, 2, 12, (6, 12, 24)),
)
SIGMA_W = math.sqrt(0.1)
# Only the smallest design is also priced by Monte Carlo: at s = 36 it
# tripled the op's time with per-step Python loops.
MC_MAX_S = 16
MC_HORIZON, MC_TRAJ, MC_BURN_IN = 300, 400, 50
MC_RTOL = 0.02


def regulate_inputs(seed: int) -> list:
    out = []
    drawn = set()
    for ci, (s, n, p, planted, designs) in enumerate(REGULATE_CELLS):
        tag = f"-m{ci}" if (s, n, p) in drawn else ""
        drawn.add((s, n, p))
        model, _, _ = mj.generate(
            mj.SynthConfig(
                s, planted, n, p,
                eps_A=0.05 * s * s, eps_B=0.05 * s * s, eps_T=0.1 * s * s,
                seed=child_seed(seed, 3, ci),
            )
        )
        for hi, r in enumerate(designs):
            out.append(
                {
                    "label": f"s{s}n{n}p{p}-r{r}{tag}",
                    "model": model,
                    "r": r,
                    "seed": child_seed(seed, 30, ci, hi),
                    "mc_seed": child_seed(seed, 31, ci, hi),
                }
            )
    return out


def _regulate_op(item: dict, ref) -> Op:
    model, r = item["model"], item["r"]
    Q, R = np.eye(model.n), np.eye(model.p)
    with_mc = model.s <= MC_MAX_S

    def run():
        res = mj.reduced_lqr_suboptimality(
            model, r, Q, R, sigma_w=SIGMA_W, branch="aggregatable", seed=item["seed"]
        )
        mc = None
        if with_mc:
            sol = mj.riccati_solve(res.reduction.reduced, Q, R)
            K = mj.lift_gains(sol.K, res.reduction.partition)
            mc = mj.monte_carlo_cost(
                model, K, Q, R, SIGMA_W,
                horizon=MC_HORIZON, n_traj=MC_TRAJ, burn_in=MC_BURN_IN, seed=item["mc_seed"],
            )
        return res.J_star, res.J_hat, mc

    def check(out):
        J_star, J_hat, mc = out
        checks.require(
            J_hat >= J_star * (1.0 - 1e-9),
            f"lifted design cost {J_hat} below the optimum {J_star}",
        )
        if ref is not None:
            checks.rel_close(J_star, ref[0], 1e-9, "J_star")
            checks.rel_close(J_hat, ref[1], 1e-9, "J_hat")
        if mc is not None:
            checks.costs_agree(J_hat, mc.value, MC_RTOL)

    return Op(
        key=item["label"],
        kind=item["label"],
        run=run,
        check=check,
        reference=lambda out: [out[0], out[1]],
    )


def regulate_ops(inputs: list, refs: dict | None) -> list[Op]:
    refs = refs or {}
    return [_regulate_op(item, refs.get(item["label"])) for item in inputs]


WORKLOADS = {
    "sweep": (sweep_inputs, sweep_ops),
    "certify": (certify_inputs, certify_ops),
    "regulate": (regulate_inputs, regulate_ops),
}
