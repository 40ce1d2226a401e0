"""Benchmark of mjsreduce: one workload per run, every output checked.

    python3 bench/run.py --workload {sweep,certify,regulate} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its
`src/` directory.  A run is a closed loop with one client: the ops of
the workload run back to back on one thread, with BLAS pinned to one
thread, in whole rounds (at least three) until the ops have taken
--seconds.  Only the ops are timed; each output is checked between ops.
A fixed calibration loop (bench/measure.py) runs between ops, and each
op time is scaled by a power of the loop's reference time over its mean
time near the op, so that most of the load from other tenants of the
host cancels; an op's latency is the median of its scaled runs.  setup_s is
scaled the same way, by calibration runs that follow each set-up.
Unscaled times are kept in the details file.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half of
--seconds untraced and half with every traced package function wrapped
in a span, and reports the per-layer metrics, the tracing overhead
(traced over untraced round time, minus one) and a layer report.  The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Details (environment, per-kind latencies, errors, spans) go to
`.bench_out/` in the checkout.  `--write-references 0-31` recomputes the
references in bench/references/ for those seeds from the current
sources; a run on a seed with references checks outputs against them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFS_DIR = HERE / "references"
BLAS_THREADS = "1"
# Set-up also runs in this many fresh processes besides the run's own;
# the reported setup_s is the median.
SETUP_CHILDREN = 2
# Calibration time after each set-up, which scales it.
SETUP_CAL_S = 0.3
# Rounds per timed phase at least, so each op is timed three times.
MIN_ROUNDS = 3
# No new op starts after this much wall time in the timed phases, so a
# much slower program still ends the run well inside three minutes.
HARD_STOP_S = 100.0


@dataclass
class Phase:
    elapsed: float = 0.0  # summed op latencies, seconds
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: dict = field(default_factory=dict)  # op key -> [scaled seconds], passed runs
    raw: dict = field(default_factory=dict)  # op key -> [seconds], passed runs
    starts: dict = field(default_factory=dict)  # op key -> [perf_counter], passed runs
    kinds: dict = field(default_factory=dict)  # op key -> kind
    errors: Counter = field(default_factory=Counter)
    first_error: str | None = None
    stopped_early: bool = False

    def typical(self) -> dict[str, float]:
        """Each op's median scaled run."""
        return {k: statistics.median(v) for k, v in self.latencies.items()}


def timed_phase(
    ops, seconds: float, min_rounds: int, deadline: float, tracer=None, cal=None
) -> Phase:
    """Run whole rounds of ops until `seconds` of op time and `min_rounds`
    rounds have passed, with calibration runs before every op and after
    the last; then scale each passed run by the calibration near it."""
    import measure

    ph = Phase()
    cal = cal or measure.Calibration()
    cal.probe()

    def fail(op, e: Exception) -> None:
        ph.failed += 1
        ph.errors[type(e).__name__] += 1
        ph.first_error = ph.first_error or f"{op.key}: {type(e).__name__}: {e}"

    while not ph.stopped_early and (ph.elapsed < seconds or ph.rounds < min_rounds):
        for op in ops:
            if time.perf_counter() > deadline:
                ph.stopped_early = True
                break
            ph.attempted += 1
            if tracer is not None:
                tracer.op = ph.attempted
            error = None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as e:  # an op's failure is a result, not a crash
                error = e
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.op = None
            ph.elapsed += dt
            cal.probe(measure.CAL_SHARE * dt)
            if error is None:
                try:
                    op.check(out)
                except Exception as e:
                    error = e
            if error is None:
                ph.raw.setdefault(op.key, []).append(dt)
                ph.starts.setdefault(op.key, []).append(t0)
                ph.kinds[op.key] = op.kind
            else:
                fail(op, error)
        if not ph.stopped_early:
            ph.rounds += 1
    for key, runs in ph.raw.items():
        ph.latencies[key] = [
            dt * cal.scale_near(t0, t0 + dt) for t0, dt in zip(ph.starts[key], runs)
        ]
    return ph


def warm_up() -> None:
    """First calls into LAPACK, HiGHS and the assignment solver."""
    import numpy as np
    import scipy.optimize

    rng = np.random.default_rng(0)
    M = rng.standard_normal((256, 256))
    np.linalg.eigvals(M)
    np.linalg.svd(M)
    np.linalg.norm(M, 2)
    np.linalg.solve(M, M[:, :3])
    np.linalg.eigh(M + M.T)
    M @ M
    scipy.optimize.linprog(
        c=[1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], bounds=(0, None), method="highs"
    )
    scipy.optimize.linear_sum_assignment(M[:8, :8])


def import_package():
    """Import mjsreduce from this checkout's sources, nowhere else."""
    if not (SRC / "mjsreduce" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources at {SRC / 'mjsreduce'}")
    sys.path.insert(0, str(SRC))
    import mjsreduce

    found = Path(mjsreduce.__file__).resolve().parent
    if found != (SRC / "mjsreduce").resolve():
        raise SystemExit(f"error: mjsreduce imported from {found}, not {SRC}")
    return mjsreduce


def load_refs(workload: str, seed: int) -> dict | None:
    path = REFS_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def latency_stats(ph: Phase) -> dict:
    """End-to-end latency and throughput from each op's median scaled run.

    Every op runs once per round.  The percentiles are taken over the
    ops, so their sample count is fixed by the workload rather than by
    its speed.
    """
    import measure

    typical = ph.typical()
    if not typical:
        # No op passed: report the mean time per attempted op.
        mean = ph.elapsed / max(ph.attempted, 1)
        return {"ops_per_s": 0.0, "p50_ms": 1e3 * mean, "tail_ms": 1e3 * mean,
                "round_s": ph.elapsed / max(ph.rounds, 1), "samples": 0}
    lat = list(typical.values())
    tail, q, beyond = measure.tail(lat)
    by_kind: dict[str, list[float]] = {}
    for key, dt in typical.items():
        by_kind.setdefault(ph.kinds[key], []).append(dt)
    passed = ph.attempted - ph.failed
    return {
        "ops_per_s": passed / ph.attempted * len(lat) / sum(lat),
        "p50_ms": 1e3 * measure.percentile(lat, 50.0),
        "tail_ms": 1e3 * tail,
        "tail_percentile": q,
        "tail_samples_beyond": beyond,
        "samples": len(lat),
        "round_s": sum(lat),
        "by_kind_median_ms": {
            k: 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())
        },
    }


def setup_in_children(args) -> list[dict]:
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def write_references(workload: str, seeds: list[int]) -> None:
    """Run one round per seed and store each op's reference value."""
    import workloads

    make_inputs, make_ops = workloads.WORKLOADS[workload]
    path = REFS_DIR / f"{workload}.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    for seed in seeds:
        entry = {}
        for op in make_ops(make_inputs(seed), None):
            out = op.run()
            op.check(out)
            entry[op.key] = op.reference(out)
        table[str(seed)] = entry
        print(f"{workload} seed {seed}: {len(entry)} references", flush=True)
    lines = [f"{json.dumps(k)}: {json.dumps(table[k], sort_keys=True)}" for k in sorted(table, key=int)]
    REFS_DIR.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "certify", "regulate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-references", metavar="SEEDS", help="e.g. 0-31")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS

    import_package()
    import layers
    import measure
    import workloads
    from spans import Tracer

    if args.write_references:
        warm_up()
        write_references(args.workload, parse_seeds(args.write_references))
        return 0

    tracer = Tracer(layers.TARGETS) if args.trace else None
    if tracer is not None:
        tracer.install()
    warm_up()
    make_inputs, make_ops = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    setup_raw = time.perf_counter() - t_start
    cal = measure.Calibration()
    setup_cal = statistics.fmean(cal.probe(SETUP_CAL_S))
    setup = {"setup_s": setup_raw * measure.scale(setup_cal), "raw_s": setup_raw}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    if tracer is not None:
        tracer.uninstall()

    t0 = time.perf_counter()
    ops = make_ops(inputs, load_refs(args.workload, args.seed))
    oracle_s = time.perf_counter() - t0
    deadline = time.perf_counter() + HARD_STOP_S
    env = measure.environment(ROOT, args.seed, BLAS_THREADS)
    details = {"env": env, "workload": args.workload, "oracle_s": oracle_s,
               "ops_per_round": len(ops)}

    if tracer is None:
        ph = timed_phase(ops, args.seconds, MIN_ROUNDS, deadline, cal=cal)
        peak = measure.peak_rss_mb()
        setups = [setup] + setup_in_children(args)
        phases = {"untraced": ph}
        details["setup_samples"] = setups
    else:
        base = timed_phase(ops, args.seconds / 2, 2, deadline, cal=cal)
        tracer.install()
        ph = timed_phase(ops, args.seconds / 2, 2, deadline, tracer, cal)
        tracer.uninstall()
        phases = {"untraced": base, "traced": ph}

    attempted = sum(p.attempted for p in phases.values())
    failed = sum(p.failed for p in phases.values())
    stats = latency_stats(ph)
    for name, p in phases.items():
        details[name] = {
            "rounds": p.rounds, "attempted": p.attempted, "failed": p.failed,
            "elapsed_s": p.elapsed, "errors": dict(p.errors),
            "first_error": p.first_error, "stopped_early": p.stopped_early,
        }
    details["latency"] = stats
    details["latencies_s"] = ph.latencies
    details["raw_latencies_s"] = ph.raw
    details["calibration_s"] = {"ends": cal.ends, "times": cal.times()}
    details["starts_s"] = ph.starts

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(x["setup_s"] for x in setups), "s"),
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "op_p50_ms": (stats["p50_ms"], "ms"),
            "op_tail_ms": (stats["tail_ms"], "ms"),
            "peak_rss_mb": (peak, "MB"),
        }
    else:
        overhead = stats["round_s"] / latency_stats(base)["round_s"] - 1.0
        values = layers.layer_metrics(tracer.spans, tracer.counters, ph.elapsed, overhead)
        units = {m["name"]: m["unit"] for m in layers.per_layer_spec()}
        metrics = {k: (v, units[k]) for k, v in values.items()}
        lines = layers.report(args.workload, tracer.spans, ph.elapsed, values, tracer.counters)
        print("\n".join(lines))
        details["report"] = lines
        details["spans"] = [asdict(sp) for sp in tracer.spans]

    details["metrics"] = {k: v for k, (v, _) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(details, default=str))
    print(json.dumps({"env": env}))
    for p in phases.values():
        if p.first_error:
            print(f"first failure: {p.first_error}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
