"""Command-line front end.

Subcommands: generate | reduce | evaluate | stability | lqr | experiment.
Every subcommand takes --out, every one but stability --seed, and
experiment alone --full.
Exit codes: 0 success, 2 input problem (unreadable or malformed files,
bad flag values), 3 computation failure; the stability subcommand
additionally returns 1 when the model is not mean-square stable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .clustering import BRANCHES, misclustering_rate, reduce_model
from .errors import InputError, MjsError
from .experiments import EXPERIMENT_NAMES, ExperimentSpec, run_experiment
from .lqr import reduced_lqr_suboptimality
from .model import Partition, _read_json, load_model, save_model
from .perturbation import mr_bound
from .stability import stability_report
from .synth import SynthConfig, generate


def _plain(o):
    """o with numpy values turned into Python ones and each non-finite
    float into the string "inf", "-inf" or "nan", so strict JSON holds it."""
    if isinstance(o, (np.ndarray, np.generic)):
        o = o.tolist()
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_plain(v) for v in o]
    if isinstance(o, float) and not math.isfinite(o):
        return str(o)
    return o


def _dump(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(_plain(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _print(payload: dict) -> None:
    print(json.dumps(_plain(payload), indent=2, allow_nan=False))


def _truth_sidecar(model_path: str) -> str:
    stem, _ = os.path.splitext(model_path)
    return stem + ".truth.json"


def _load_partition(path: str, s: int) -> Partition:
    payload = _read_json(path, "partition")
    if isinstance(payload, dict):
        payload = payload.get("partition")
    if not isinstance(payload, list):
        raise InputError(f"{path}: expected a list of 1-based clusters")
    try:
        return Partition.from_lists_1based(payload, s=s)
    except TypeError as e:  # a cluster that is not a list
        raise InputError(f"{path}: clusters must be lists of mode numbers: {e}") from e


def cmd_generate(args) -> int:
    config = SynthConfig(
        s=args.s,
        r=args.r,
        n=args.n,
        p=args.p,
        eps_A=args.eps_a,
        eps_B=args.eps_b,
        eps_T=args.eps_t,
        branch=args.branch,
        seed=args.seed,
    )
    model, truth, _ = generate(config)
    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, "model.json")
    truth_path = os.path.join(args.out, "model.truth.json")
    save_model(model, model_path)
    _dump({"partition": truth.to_lists_1based()}, truth_path)
    _print({"model": model_path, "truth": truth_path, "s": args.s, "r": args.r})
    return 0


def cmd_reduce(args) -> int:
    model = load_model(args.model)
    weights = tuple(args.weights) if args.weights else None
    result = reduce_model(
        model,
        args.r,
        branch=args.branch,
        weights=weights,
        restarts=args.restarts,
        seed=args.seed,
        pi_weighted=args.pi_weighted,
    )
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "reduction.json")
    _dump(result.to_dict(), out_path)
    sidecar = _truth_sidecar(args.model)
    if os.path.exists(sidecar):
        truth = _load_partition(sidecar, model.s)
        if result.partition.r > truth.r:
            # The rate matches each estimated cluster to a true one.
            print(
                f"MR skipped: the estimate has {result.partition.r} clusters, "
                f"more than the {truth.r} of {sidecar}",
                file=sys.stderr,
            )
        else:
            print(f"MR: {misclustering_rate(result.partition, truth):.12g}")
    print(out_path)
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    weights = tuple(args.weights) if args.weights else None
    if (args.partition is None) == (args.r is None):
        raise InputError("evaluate needs exactly one of --partition and --r")
    if args.partition is None:
        partition = reduce_model(
            model, args.r, branch=args.branch, weights=weights, seed=args.seed
        ).partition
    else:
        partition = _load_partition(args.partition, model.s)
    report = mr_bound(
        model,
        partition,
        args.branch,
        kmeans_eps=args.kmeans_eps,
        weights=weights,
    )
    os.makedirs(args.out, exist_ok=True)
    _dump(report.to_dict(), os.path.join(args.out, "evaluate.json"))
    _print(report.to_dict())
    return 0


def cmd_stability(args) -> int:
    model = load_model(args.model)
    report = stability_report(model, rho=args.rho, xi=args.xi)
    os.makedirs(args.out, exist_ok=True)
    _dump(report.to_dict(), os.path.join(args.out, "stability.json"))
    _print(report.to_dict())
    return 0 if report.is_mss else 1


def cmd_lqr(args) -> int:
    model = load_model(args.model)
    result = reduced_lqr_suboptimality(
        model,
        args.r,
        np.eye(model.n),
        np.eye(model.p),
        sigma_w=args.sigma_w,
        branch=args.branch,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    _dump(result.to_dict(), os.path.join(args.out, "lqr.json"))
    _print(result.to_dict())
    return 0


def cmd_experiment(args) -> int:
    spec = ExperimentSpec(
        name=args.name,
        seed=args.seed,
        trials=args.trials,
        grid=tuple(args.grid) if args.grid else None,
        out_dir=args.out,
        full=args.full,
    )
    print(run_experiment(spec))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="root RNG seed")

    parser = argparse.ArgumentParser(
        prog="mjsreduce",
        description="Mode reduction, analysis, and control of Markov jump linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", parents=[seeded], help="draw a clustered instance")
    g.add_argument("--s", type=int, required=True, help="number of modes")
    g.add_argument("--r", type=int, required=True, help="number of clusters (must divide s)")
    g.add_argument("--n", type=int, default=5, help="state dimension")
    g.add_argument("--p", type=int, default=3, help="input dimension (0 = autonomous)")
    g.add_argument("--eps-a", type=float, default=0.0)
    g.add_argument("--eps-b", type=float, default=0.0)
    g.add_argument("--eps-t", type=float, default=0.0)
    g.add_argument("--branch", choices=BRANCHES, default="aggregatable")
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("reduce", parents=[seeded], help="cluster modes and average")
    r.add_argument("model", help="model JSON file")
    r.add_argument("--r", type=int, required=True, help="target number of clusters")
    r.add_argument("--branch", choices=BRANCHES, default=None)
    r.add_argument("--weights", type=float, nargs=3, metavar=("WA", "WB", "WT"))
    r.add_argument("--restarts", type=int, default=50)
    r.add_argument("--pi-weighted", action="store_true", help="stationary-weighted averaging")
    r.set_defaults(func=cmd_reduce)

    e = sub.add_parser("evaluate", parents=[seeded], help="perturbations and clustering bound")
    e.add_argument("model", help="model JSON file")
    e.add_argument("--partition", help="partition JSON file (1-based clusters)")
    e.add_argument("--r", type=int, help="cluster first instead of reading a partition")
    e.add_argument("--branch", choices=BRANCHES, default="aggregatable")
    e.add_argument("--kmeans-eps", type=float, default=1.0)
    e.add_argument("--weights", type=float, nargs=3, metavar=("WA", "WB", "WT"))
    e.set_defaults(func=cmd_evaluate)

    st = sub.add_parser("stability", parents=[common], help="stability certificates")
    st.add_argument("model", help="model JSON file")
    st.add_argument("--rho", type=float, default=None, help="mean-square decay level")
    st.add_argument("--xi", type=float, default=None, help="uniform decay level")
    st.set_defaults(func=cmd_stability)

    lq = sub.add_parser("lqr", parents=[seeded], help="reduced-order regulator suboptimality")
    lq.add_argument("model", help="model JSON file")
    lq.add_argument("--r", type=int, required=True)
    lq.add_argument("--sigma-w", type=float, default=0.1)
    lq.add_argument("--branch", choices=BRANCHES, default=None)
    lq.set_defaults(func=cmd_lqr)

    ex = sub.add_parser("experiment", parents=[seeded], help="run a canned protocol")
    ex.add_argument("name", choices=EXPERIMENT_NAMES)
    ex.add_argument("--trials", type=int, default=None)
    ex.add_argument("--grid", type=float, nargs="+", default=None)
    ex.add_argument("--full", action="store_true", help="run at the large-scale settings")
    ex.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except InputError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except MjsError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
