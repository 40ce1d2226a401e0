"""Canned experiment drivers emitting deterministic CSV artifacts.

Five protocols are available, named after the artifact they produce:

``fig2``
    Misclustering rate (median and quartiles) against a normalized
    dynamics-perturbation sweep, per mode count and branch.  The sweep
    perturbs A and B only; the transition-feature weight is demoted to
    one percent of its usual share so the swept features dominate.
``fig3a``
    Median relative LQR suboptimality over a grid of dynamics and
    transition perturbations.
``fig3b``
    Wall-clock time of the Riccati loop for the full and the reduced
    system across mode counts.  Only the fixed-point iteration is
    timed; generation and clustering are excluded.  A solve that does
    not converge raises NotConverged rather than being timed.
``fig4``
    Mean coupled trajectory difference on the fixed six-mode planar
    benchmark together with the mean-square trajectory bound.
``table2``
    Relative suboptimality and reduced Riccati time across candidate
    cluster counts on an exactly reducible instance.

Perturbation columns hold normalized values: the generator targets are
``eps_norm * s**2``, matching the convention that per-mode deviations
stay comparable across mode counts.

Every CSV starts with a provenance comment carrying a hash of the
resolved configuration, then a header row.  Equal specs reproduce the
statistical columns byte for byte; only timing columns vary between
runs.  Seeds are derived per trial index.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .bounds import BoundInputs, empirical_traj_diff, mss_traj_bound
from .clustering import BRANCHES, default_weights, misclustering_rate, reduce_model
from .errors import InputError
from .lqr import reduced_lqr_suboptimality, riccati_solve
from .model import _check_count
from .synth import SynthConfig, fig4_model, generate

EXPERIMENT_NAMES = ("fig2", "fig3a", "fig3b", "fig4", "table2")


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved-later description of one experiment run.

    grid overrides the primary sweep of the protocol (eps_norm values
    for fig2, eps_AB values for fig3a, mode counts for fig3b, candidate
    cluster counts for table2).  fig4 has no sweep, so a grid for it
    is refused (InputError).  Counts must be whole numbers;
    integer-valued floats such as 10.0 are accepted.
    trials overrides the per-cell trial count (the trajectory count
    for fig4); seed >= 0 and trials >= 1 are integers (DimensionMismatch).
    """

    name: str
    seed: int = 0
    trials: int | None = None
    grid: tuple | None = None
    out_dir: str = "."
    full: bool = False

    def __post_init__(self) -> None:
        if self.name not in EXPERIMENT_NAMES:
            raise InputError(
                f"unknown experiment {self.name!r}; choose from {EXPERIMENT_NAMES}"
            )
        if self.grid is not None:
            if self.name == "fig4":
                raise InputError("fig4 has no sweep, so it takes no grid")
            if len(self.grid) == 0:
                raise InputError("empty sweep grid")
            object.__setattr__(self, "grid", tuple(self.grid))
            if self.name in ("fig3b", "table2"):
                fractional = [v for v in self.grid if not float(v).is_integer()]
                if fractional:
                    raise InputError(
                        f"{self.name} sweeps counts; got fractional grid values {fractional}"
                    )
        _check_count("seed", self.seed, 0)
        if self.trials is not None:
            _check_count("trials", self.trials, 1)


def _child_seed(root: int, *key: int) -> int:
    """Stable per-trial seed, derived from the trial's index."""
    ss = np.random.SeedSequence([int(root)] + [int(k) for k in key])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def demoted_weights(model) -> tuple[float, float, float]:
    """Default weights with the transition share scaled down 100-fold, for
    sweeps where the transition features should not steer the clustering."""
    wa, wb, wt = default_weights(model)
    wt *= 0.01
    total = wa + wb + wt
    return (wa / total, wb / total, wt / total)


def resolved_config(spec: ExperimentSpec) -> dict:
    """Fill in per-protocol defaults, honoring overrides and --full."""
    name, full = spec.name, spec.full
    if name == "fig2":
        return {
            "s_values": (8, 16, 32, 64) if full else (8, 16, 32),
            "eps_norms": spec.grid or (0.0, 0.25, 1.0, 2.5),
            "branches": BRANCHES,
            "trials": spec.trials or (100 if full else 25),
            "r": 4,
            "n": 5,
            "p": 3,
        }
    if name == "fig3a":
        cfg = {
            "s": 100 if full else 16,
            "r": 4,
            "n": 10 if full else 4,
            "p": 5 if full else 2,
            "eps_ab_norms": spec.grid or (0.0, 0.05, 0.1),
            "eps_t_norms": (0.0, 0.1, 0.25),
            "trials": spec.trials or (10 if full else 5),
            "sigma_w": math.sqrt(0.1),
        }
        return cfg
    if name == "fig3b":
        return {
            "s_values": spec.grid or ((20, 40, 60, 80, 100) if full else (10, 20, 40, 60)),
            "r": 10 if full else 5,
            "n": 6,
            "p": 3,
            "trials": spec.trials or 3,
        }
    if name == "fig4":
        return {
            "horizon": 25,
            "n_traj": spec.trials or 500,
        }
    return {
        "s": 90 if full else 36,
        "r": 30 if full else 12,
        "n": 4,
        "p": 2,
        "r_hats": spec.grid or ((10, 30, 60, 90) if full else (6, 12, 24, 36)),
        "trials": spec.trials or 3,
        "sigma_w": math.sqrt(0.1),
    }


def config_digest(spec: ExperimentSpec, cfg: dict) -> str:
    payload = {"name": spec.name, "seed": spec.seed, "full": spec.full}
    for k, v in cfg.items():
        payload[k] = list(v) if isinstance(v, tuple) else v
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _run_fig2(spec: ExperimentSpec, cfg: dict):
    header = ["s", "eps_norm", "branch", "mr_median", "mr_q1", "mr_q3"]
    rows = []
    for si, s in enumerate(cfg["s_values"]):
        for ei, eps_norm in enumerate(cfg["eps_norms"]):
            for bi, branch in enumerate(cfg["branches"]):
                mrs = []
                for trial in range(cfg["trials"]):
                    seed = _child_seed(spec.seed, 2, si, ei, bi, trial)
                    target = float(eps_norm) * s * s
                    model, truth, _ = generate(
                        SynthConfig(
                            s,
                            cfg["r"],
                            cfg["n"],
                            cfg["p"],
                            eps_A=target,
                            eps_B=target,
                            eps_T=0.0,
                            branch=branch,
                            seed=seed,
                        )
                    )
                    res = reduce_model(
                        model,
                        cfg["r"],
                        branch=branch,
                        weights=demoted_weights(model),
                        seed=_child_seed(spec.seed, 20, si, ei, bi, trial),
                    )
                    mrs.append(misclustering_rate(res.partition, truth))
                q1, med, q3 = np.percentile(mrs, (25.0, 50.0, 75.0))
                rows.append([s, eps_norm, branch, med, q1, q3])
    return header, rows


def _run_fig3a(spec: ExperimentSpec, cfg: dict):
    header = ["eps_AB", "eps_T", "subopt_median"]
    rows = []
    s, r, n, p = cfg["s"], cfg["r"], cfg["n"], cfg["p"]
    Q, R = np.eye(n), np.eye(p)
    for ai, eps_ab in enumerate(cfg["eps_ab_norms"]):
        for ti, eps_t in enumerate(cfg["eps_t_norms"]):
            vals = []
            for trial in range(cfg["trials"]):
                seed = _child_seed(spec.seed, 3, ai, ti, trial)
                target_ab = float(eps_ab) * s * s
                target_t = float(eps_t) * s * s
                model, _, _ = generate(
                    SynthConfig(
                        s,
                        r,
                        n,
                        p,
                        eps_A=target_ab,
                        eps_B=target_ab,
                        eps_T=target_t,
                        branch="aggregatable",
                        seed=seed,
                    )
                )
                res = reduced_lqr_suboptimality(
                    model,
                    r,
                    Q,
                    R,
                    sigma_w=cfg["sigma_w"],
                    branch="aggregatable",
                    seed=_child_seed(spec.seed, 30, ai, ti, trial),
                )
                vals.append(res.gap / res.J_star)
            rows.append([eps_ab, eps_t, float(np.median(vals))])
    return header, rows


def _run_fig3b(spec: ExperimentSpec, cfg: dict):
    header = ["s", "r", "time_full_ms", "time_reduced_ms"]
    rows = []
    r, n, p = cfg["r"], cfg["n"], cfg["p"]
    Q, R = np.eye(n), np.eye(p)
    for si, s in enumerate(cfg["s_values"]):
        pairs = []
        for trial in range(cfg["trials"]):
            seed = _child_seed(spec.seed, 4, si, trial)
            model, _, _ = generate(
                SynthConfig(int(s), r, n, p, seed=seed)
            )
            red = reduce_model(
                model, r, branch="aggregatable", seed=_child_seed(spec.seed, 40, si, trial)
            )
            full = riccati_solve(model, Q, R)
            pairs.append((full.elapsed_ms, riccati_solve(red.reduced, Q, R).elapsed_ms))
        rows.append(
            [
                s,
                r,
                float(np.median([a for a, _ in pairs])),
                float(np.median([b for _, b in pairs])),
            ]
        )
    return header, rows


def _run_fig4(spec: ExperimentSpec, cfg: dict):
    header = ["t", "mean_diff", "bound"]
    model, _ = fig4_model()
    x0 = np.ones(2)
    res = reduce_model(model, 3, seed=_child_seed(spec.seed, 5, 0))
    b = BoundInputs.from_model(model, res.partition, "aggregatable", x0=x0)
    diff = empirical_traj_diff(
        model,
        res.reduced,
        res.partition,
        x0,
        cfg["horizon"],
        cfg["n_traj"],
        seed=_child_seed(spec.seed, 5, 1),
    )
    return header, [
        [t, float(mean), mss_traj_bound(b, t)] for t, mean in enumerate(diff.mean_diff)
    ]


def _run_table2(spec: ExperimentSpec, cfg: dict):
    header = ["r_hat", "rel_subopt", "time_sec"]
    s, r, n, p = cfg["s"], cfg["r"], cfg["n"], cfg["p"]
    Q, R = np.eye(n), np.eye(p)
    per_rhat: dict[int, list[tuple[float, float]]] = {rh: [] for rh in cfg["r_hats"]}
    for trial in range(cfg["trials"]):
        model, _, _ = generate(
            SynthConfig(s, r, n, p, seed=_child_seed(spec.seed, 6, trial))
        )
        for hi, rh in enumerate(cfg["r_hats"]):
            res = reduced_lqr_suboptimality(
                model,
                int(rh),
                Q,
                R,
                sigma_w=cfg["sigma_w"],
                branch="aggregatable",
                seed=_child_seed(spec.seed, 60, trial, hi),
            )
            per_rhat[rh].append((res.gap / res.J_star, res.time_reduced_ms / 1e3))
    rows = []
    for rh in cfg["r_hats"]:
        vals = per_rhat[rh]
        rows.append(
            [
                rh,
                float(np.median([v for v, _ in vals])),
                float(np.median([t for _, t in vals])),
            ]
        )
    return header, rows


_RUNNERS = {
    "fig2": _run_fig2,
    "fig3a": _run_fig3a,
    "fig3b": _run_fig3b,
    "fig4": _run_fig4,
    "table2": _run_table2,
}


def run_experiment(spec: ExperimentSpec) -> str:
    """Run one protocol and write <name>.csv under spec.out_dir.

    The file appears only after all rows are computed; a failed write
    removes the partial file before re-raising.
    """
    cfg = resolved_config(spec)
    header, rows = _RUNNERS[spec.name](spec, cfg)
    digest = config_digest(spec, cfg)
    os.makedirs(spec.out_dir, exist_ok=True)
    path = os.path.join(spec.out_dir, f"{spec.name}.csv")
    comment = (
        f"# experiment={spec.name} config_sha256={digest} "
        f"seed={spec.seed} full={1 if spec.full else 0}"
    )
    try:
        with open(path, "w", newline="") as fh:
            fh.write(comment + "\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
    except BaseException:
        if os.path.exists(path):
            os.unlink(path)
        raise
    return path
