"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line through _report so a failing run
shows exactly which guarantee broke.  Tolerances are part of the
package contract; loosening them is a behavior change.
"""

import csv
import dataclasses
import itertools
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import closed_loop
from test_bounds import dist, vertex_oracle
from mjsreduce.bounds import (
    BoundInputs,
    mss_traj_bound,
    transition_kernel_enum,
    us_premises,
    us_traj_bound,
    wasserstein_exact,
    wasserstein_kernel_bound,
)
from mjsreduce.clustering import average_model, misclustering_rate, reduce_model
from mjsreduce.experiments import ExperimentSpec, demoted_weights, run_experiment
from mjsreduce.lqr import (
    closed_loop_average_cost,
    lift_gains,
    monte_carlo_cost,
    reduced_lqr_suboptimality,
    riccati_solve,
)
from mjsreduce.model import (
    MjsModel,
    expand_reduced,
    simulate_coupled_batch,
)
from mjsreduce.perturbation import construct_T0, mr_bound
from mjsreduce.stability import augmented_matrix, spectral_radius, stability_report
from mjsreduce.synth import SynthConfig, fig4_model, generate


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _truth_relabel(partition, truth):
    """Map estimated cluster index -> planted cluster index (exact
    recovery assumed)."""
    return [int(truth.labels[c[0]]) for c in partition.clusters]


def test_criterion_1_exact_reducibility_round_trip():
    t0 = time.perf_counter()
    sizes = (8, 12, 16, 24, 32)
    failures = []
    for branch in ("aggregatable", "lumpable"):
        for i in range(50):
            s = sizes[i % 5]
            r = 2 if i % 2 == 0 else 4
            cfg = SynthConfig(s, r, 5, 3, branch=branch, seed=1000 + i)
            model, truth, base = generate(cfg)
            res = reduce_model(
                model, r, branch=branch,
                weights=demoted_weights(model), seed=i,
            )
            mr = misclustering_rate(res.partition, truth)
            if mr != 0.0:
                failures.append((branch, i, "mr", mr))
                continue
            perm = _truth_relabel(res.partition, truth)
            dev = max(
                max(
                    np.abs(res.reduced.A[k] - base.A[perm[k]]).max()
                    for k in range(r)
                ),
                max(
                    np.abs(res.reduced.B[k] - base.B[perm[k]]).max()
                    for k in range(r)
                ),
                max(
                    abs(res.reduced.T[k, l] - base.T[perm[k], perm[l]])
                    for k in range(r)
                    for l in range(r)
                ),
            )
            if dev > 1e-10:
                failures.append((branch, i, "base", dev))
            # The reduced regulator, lifted to the full modes, keeps
            # B under test: the two closed loops must coincide.
            K = riccati_solve(res.reduced, np.eye(5), np.eye(3)).K
            x0 = np.ones(5)
            states, red_states, _ = simulate_coupled_batch(
                closed_loop(model, lift_gains(K, res.partition)),
                closed_loop(res.reduced, K),
                res.partition, x0, 50, 1, seed=i,
            )
            gap = np.linalg.norm(states - red_states, axis=2).max()
            if gap > 1e-10 * np.linalg.norm(x0):
                failures.append((branch, i, "coupled", gap))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(1, ok, f"100 round trips, failures={failures[:3]}, {elapsed:.1f}s")


def test_criterion_2_zero_mr_regime():
    sizes = (8, 12, 16)
    bad_regime, bad_mr, bad_formula = [], [], []
    for i in range(100):
        s = sizes[i % 3]
        r = 2 if i % 2 == 0 else 4
        branch = "aggregatable" if i % 4 < 2 else "lumpable"
        # The transition term carries a large chain-dependent
        # amplification on the lumpable branch, so staying below the
        # zero-MR threshold there requires a clean transition matrix.
        eps_t = 0.01 if branch == "aggregatable" else 0.0
        cfg = SynthConfig(
            s, r, 3, 2, eps_A=0.01, eps_B=0.01, eps_T=eps_t,
            branch=branch, seed=2000 + i,
        )
        model, truth, _ = generate(cfg)
        w = demoted_weights(model)
        rep = mr_bound(model, truth, branch, weights=w)
        if not rep.predicted_mr_zero:
            bad_regime.append(i)
            continue
        res = reduce_model(model, r, branch=branch, weights=w, seed=i)
        if misclustering_rate(res.partition, truth) != 0.0:
            bad_mr.append(i)
        wa, wb, wt = rep.weights
        g = rep.gamma3 if branch == "lumpable" else 1.0
        combined = np.sqrt(
            (wa * rep.eps.eps_A) ** 2
            + (wb * rep.eps.eps_B) ** 2
            + (wt * g * rep.eps.eps_T) ** 2
        )
        bound = 64.0 * 3.0 * combined**2 / rep.sigma_r_phibar**2
        thr = rep.sigma_r_phibar / (8.0 * np.sqrt(3.0 * truth.size_largest))
        if not (
            np.isclose(combined, rep.eps_combined, rtol=1e-12, atol=0.0)
            and np.isclose(bound, rep.bound_value, rtol=1e-12, atol=0.0)
            and np.isclose(thr, rep.threshold_zero, rtol=1e-12, atol=0.0)
        ):
            bad_formula.append(i)
    ok = not bad_regime and not bad_mr and not bad_formula
    _report(
        2, ok,
        f"100 seeds in the zero-MR regime: out_of_regime={bad_regime[:3]} "
        f"nonzero_mr={bad_mr[:3]} formula={bad_formula[:3]}",
    )


def test_criterion_3_reduction_preserves_moment_radius():
    combos = [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (12, 2), (12, 3), (12, 4)]
    worst = 0.0
    for i in range(50):
        s, r = combos[i % 8]
        n = 2 + (i // 8) % 2
        branch = "aggregatable" if i % 2 == 0 else "lumpable"
        model, truth, _ = generate(
            SynthConfig(s, r, n, 0, branch=branch, seed=3000 + i)
        )
        reduced = average_model(model, truth)
        T0 = construct_T0(model.T, truth, branch=branch)
        expanded = expand_reduced(reduced, truth, T0)
        gap = abs(
            spectral_radius(augmented_matrix(expanded))
            - spectral_radius(augmented_matrix(reduced))
        )
        worst = max(worst, gap)
    _report(3, worst <= 1e-8, f"50 instances, worst radius gap {worst:.3e}")


def test_criterion_4_reduced_lqr_consistency():
    p_dev = 0.0
    gap_rel = -np.inf
    for seed in range(5):
        model, truth, _ = generate(
            SynthConfig(8, 2, 2, 2, branch="aggregatable", seed=4000 + seed)
        )
        sol = riccati_solve(model, np.eye(2), np.eye(2))
        scale = max(np.linalg.norm(sol.P[i]) for i in range(model.s))
        for cluster in truth.clusters:
            for i in cluster:
                p_dev = max(
                    p_dev,
                    np.linalg.norm(sol.P[i] - sol.P[cluster[0]]) / scale,
                )
        res = reduced_lqr_suboptimality(
            model, 2, np.eye(2), np.eye(2), sigma_w=0.1,
            branch="aggregatable", seed=seed,
        )
        gap_rel = max(gap_rel, res.gap / res.J_star)
    scalar = MjsModel(
        np.array([[[0.5]]]), np.array([[[1.0]]]), np.array([[1.0]])
    )
    p = 1.0
    for _ in range(200):
        p = 1.0 + 0.25 * p - 0.25 * p * p / (1.0 + p)
    solver_p = riccati_solve(scalar, np.eye(1), np.eye(1)).P[0, 0, 0]
    scalar_ok = abs(solver_p - p) <= 1e-10
    ok = p_dev <= 1e-8 and gap_rel <= 1e-9 and scalar_ok
    _report(
        4, ok,
        f"cluster P deviation {p_dev:.3e}, max rel gap {gap_rel:.3e}, "
        f"scalar |solver-oracle| {abs(solver_p - p):.3e}",
    )


def test_criterion_5_fixed_benchmark_bound():
    t0 = time.perf_counter()
    model, _ = fig4_model()
    x0 = np.ones(2)
    res = reduce_model(model, 3, seed=0)
    b = BoundInputs.from_model(model, res.partition, "aggregatable", x0=x0)
    states, red_states, _ = simulate_coupled_batch(
        model, res.reduced, res.partition, x0, 25, 500, seed=7
    )
    mean_diff = np.linalg.norm(states - red_states, axis=2).mean(axis=0)
    bounds = np.array([mss_traj_bound(b, t) for t in range(26)])
    covered = bool(np.all(mean_diff <= bounds + 1e-15))
    rho = spectral_radius(augmented_matrix(model))
    from mjsreduce.stability import jsr_bounds

    jsr = jsr_bounds(list(model.A), k_max=8)
    elapsed = time.perf_counter() - t0
    ok = covered and jsr.lower > 1.0 and rho < 1.0 and elapsed < 120.0
    _report(
        5, ok,
        f"bound covers all 26 steps={covered}, jsr lower {jsr.lower:.3f} > 1, "
        f"rho_aug {rho:.4f} < 1, {elapsed:.1f}s",
    )


def test_criterion_6_uniform_stability_dominance():
    sizes = (4, 6, 8)
    checked = 0
    violations = []
    worst_ratio = 0.0
    for i in range(100):
        s = sizes[i % 3]
        model, truth, _ = generate(
            SynthConfig(
                s, 2, 3, 0, eps_A=0.1, branch="aggregatable",
                base_A_norm=0.4, seed=6000 + i,
            )
        )
        xi = max(np.linalg.norm(model.A[j], 2) for j in range(s)) + 1e-9
        kappa = stability_report(model, xi=xi, budget=10_000).kappa
        b = dataclasses.replace(
            BoundInputs.from_model(model, truth, "aggregatable", x0=np.ones(3), budget=10_000),
            xi=kappa.level,
            kappa=kappa.value,
        )
        ok_premise, reasons = us_premises(b)
        if not ok_premise:
            violations.append((i, "premise", reasons))
            continue
        reduced = average_model(model, truth)
        states, red_states, _ = simulate_coupled_batch(
            model, reduced, truth, np.ones(3), 30, 5, seed=i
        )
        diff = np.linalg.norm(states - red_states, axis=2)
        for t in range(31):
            bound = us_traj_bound(b, t)
            peak = diff[:, t].max()
            if peak > bound + 1e-12:
                violations.append((i, t, peak, bound))
            elif bound > 0:
                worst_ratio = max(worst_ratio, peak / bound)
        checked += 1
    ok = checked == 100 and not violations
    _report(
        6, ok,
        f"{checked}/100 premise-satisfying instances, zero violations "
        f"(worst peak/bound {worst_ratio:.3f}), bad={violations[:2]}",
    )


def test_criterion_7_wasserstein_exactness_and_bound():
    rng = np.random.default_rng(77)
    mismatches = []
    for case in range(30):
        m = 2 + case % 5
        ell = 1 + case % 2
        X, Y = rng.standard_normal((2, m, 2))
        cost = np.linalg.norm(X[:, None] - Y[None, :], axis=2) ** ell
        best = min(
            sum(cost[i, sig[i]] for i in range(m))
            for sig in itertools.permutations(range(m))
        )
        expect = (best / m) ** (1.0 / ell)
        got = wasserstein_exact(
            dist(X, np.full(m, 1.0 / m)), dist(Y, np.full(m, 1.0 / m)), ell=ell
        )
        if abs(got - expect) > 1e-9:
            mismatches.append(("perm", case, got, expect))
    for case in range(20):
        p = dist(rng.standard_normal((2 + case % 2, 2)),
                 rng.dirichlet(np.ones(2 + case % 2)))
        q = dist(rng.standard_normal((2 + (case // 2) % 2, 2)),
                 rng.dirichlet(np.ones(2 + (case // 2) % 2)))
        ell = 1 + case % 2
        expect = vertex_oracle(p, q, ell)
        got = wasserstein_exact(p, q, ell=ell)
        if abs(got - expect) > 1e-9:
            mismatches.append(("vertex", case, got, expect))

    # Perturbed instances: the exact distance must sit below the kernel
    # bound for t <= 3.
    uncovered = []
    for seed in range(3):
        model, truth, _ = generate(
            SynthConfig(
                4, 2, 2, 0, eps_A=0.1, eps_T=0.1,
                branch="aggregatable", base_A_norm=0.4, seed=7000 + seed,
            )
        )
        red = average_model(model, truth)
        b = BoundInputs.from_model(
            model, truth, "aggregatable", x0=np.ones(2), budget=10_000
        )
        for t in (1, 2, 3):
            k_full = transition_kernel_enum(model, np.ones(2), t)
            k_red = transition_kernel_enum(red, np.ones(2), t)
            w1 = wasserstein_exact(k_full, k_red, ell=1)
            bound = wasserstein_kernel_bound(b, t, ell=1)
            if w1 > bound:
                uncovered.append((seed, t, w1, bound))

    stale = []
    for seed in range(3):
        for branch in ("aggregatable", "lumpable"):
            model, truth, _ = generate(
                SynthConfig(4, 2, 2, 0, branch=branch, seed=7100 + seed)
            )
            red = average_model(model, truth)
            for t in (1, 2, 3):
                w1 = wasserstein_exact(
                    transition_kernel_enum(model, np.ones(2), t),
                    transition_kernel_enum(red, np.ones(2), t),
                    ell=1,
                )
                if w1 > 1e-9:
                    stale.append((branch, seed, t, w1))
    ok = not mismatches and not uncovered and not stale
    _report(
        7, ok,
        f"50 oracle cases ok={not mismatches}, bound covers t<=3={not uncovered}, "
        f"zero-perturbation W1<=1e-9={not stale}",
    )


def test_criterion_8_cost_cross_validation():
    sizes = (4, 6, 8)
    worst = 0.0
    diverged = []
    for i in range(20):
        s = sizes[i % 3]
        n = 2 if i % 2 == 0 else 3
        model, _, _ = generate(
            SynthConfig(
                s, 2, n, 2, eps_A=0.3, eps_B=0.3, eps_T=0.3,
                branch="aggregatable", seed=8000 + i,
            )
        )
        Q, R = np.eye(n), np.eye(2)
        sol = riccati_solve(model, Q, R)
        exact = closed_loop_average_cost(model, sol.K, Q, R, 0.2).value
        mc = monte_carlo_cost(
            model, sol.K, Q, R, 0.2,
            horizon=5000, n_traj=10, burn_in=200, seed=i,
        )
        if mc.diverged:
            diverged.append(i)
            continue
        worst = max(worst, abs(mc.value - exact) / exact)
    ok = not diverged and worst <= 0.02
    _report(8, ok, f"20 closed loops, worst closed-form vs MC gap {worst:.4f}")


def test_criterion_9_trend_replication(tmp_path):
    fig2_path = run_experiment(
        ExperimentSpec("fig2", out_dir=str(tmp_path))
    )
    with open(fig2_path) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    trend_ok, zero_ok = True, True
    for s in ("8", "16", "32"):
        for branch in ("aggregatable", "lumpable"):
            meds = [
                (float(r["eps_norm"]), float(r["mr_median"]))
                for r in rows
                if r["s"] == s and r["branch"] == branch
            ]
            meds.sort()
            if meds[0][0] == 0.0 and meds[0][1] != 0.0:
                zero_ok = False
            if any(b[1] < a[1] - 1e-12 for a, b in zip(meds, meds[1:])):
                trend_ok = False

    table2_path = run_experiment(
        ExperimentSpec("table2", out_dir=str(tmp_path))
    )
    with open(table2_path) as fh:
        trows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    sub = {int(r["r_hat"]): float(r["rel_subopt"]) for r in trows}
    table_ok = (
        sub[12] <= min(sub.values()) + 1e-12 and abs(sub[36]) <= 1e-12
    )

    fig3b_path = run_experiment(
        ExperimentSpec("fig3b", out_dir=str(tmp_path))
    )
    with open(fig3b_path) as fh:
        brows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    largest = max(brows, key=lambda r: int(r["s"]))
    speed_ok = (
        int(largest["s"]) == 60
        and float(largest["time_reduced_ms"]) < float(largest["time_full_ms"])
    )
    ok = trend_ok and zero_ok and table_ok and speed_ok
    _report(
        9, ok,
        f"fig2 monotone={trend_ok} zero-at-0={zero_ok}; table2 min at 12 and "
        f"~0 at 36={table_ok} ({ {k: f'{v:.2e}' for k, v in sub.items()} }); "
        f"fig3b reduced faster at s=60={speed_ok}",
    )


def test_criterion_10_invariant_suite_duration(tmp_path):
    # The subprocess keeps its own hypothesis database: a draw that fails
    # in it is not saved for this session to replay as a second failure.
    t0 = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-m", "invariant",
            "-p", "no:cacheprovider", "-q", "--no-header",
        ],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=dict(os.environ, HYPOTHESIS_STORAGE_DIRECTORY=str(tmp_path)),
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    bound = 600.0
    ok = proc.returncode == 0 and elapsed < bound
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    _report(
        10, ok,
        f"invariant suite rc={proc.returncode} in {elapsed:.0f}s of {bound:.0f}s ({tail})",
    )
