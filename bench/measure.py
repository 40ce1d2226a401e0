"""Latency statistics, host-speed calibration, memory and the environment record."""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

# The tail is the highest percentile with at least this many samples
# beyond it.
TAIL_BEYOND = 10


# The calibration loop: fixed work that calls nothing in the package, a
# pure-Python loop and a small nonsymmetric eigenvalue problem.  Other
# tenants of a shared host slow it, and the interpreted code in the ops,
# by up to 1.6x for seconds to minutes.  Dense kernels on large matrices
# (the 2160 x 2160 eig of regulate) slow only about a third as much: on
# a log scale an op's slowdown is 0.3 to 1.0 times the loop's.  Each op
# time is therefore divided by the loop's slowdown beside it raised to
# CAL_EXPONENT, which leaves every op with at most 0.4 of the host's
# slowdown, where raw times carry up to all of it.  Over five seeds of
# regulate, where both kinds of op set a metric, 0.7 gave the smallest
# spread of ops_per_s, op_p50_ms and op_tail_ms together.
CAL_LOOP = 8000
CAL_N = 64
CAL_EXPONENT = 0.7
# Reported times are scaled to a host on which one calibration run takes
# this long (about its median on a 2-vCPU cloud VM under the usual load).
CAL_REF_S = 0.002
# After each op the loop runs at least this many times, and for at least
# this share of the op's time, so a long op's neighbourhood is sampled
# as densely as a short one's.
CAL_MIN_RUNS = 2
CAL_SHARE = 0.1
# An op run is scaled by the calibration runs that end within this many
# seconds of it, which averages out the sub-second swings of the load.
CAL_WINDOW_S = 2.0


class Calibration:
    def __init__(self) -> None:
        self._m = np.random.default_rng(0).standard_normal((CAL_N, CAL_N))
        self.ends: list[float] = []  # perf_counter at the end of each run
        self._cum = [0.0]  # running sum of run times
        self.run_once()

    def run_once(self) -> float:
        t0 = time.perf_counter()
        x = 0
        for k in range(CAL_LOOP):
            x += k * k
        np.linalg.eigvals(self._m)
        return time.perf_counter() - t0

    def probe(self, min_s: float = 0.0) -> list[float]:
        """Run the loop at least CAL_MIN_RUNS times and for at least
        `min_s` seconds; record and return the run times."""
        out: list[float] = []
        while len(out) < CAL_MIN_RUNS or sum(out) < min_s:
            out.append(self.run_once())
            self.ends.append(time.perf_counter())
            self._cum.append(self._cum[-1] + out[-1])
        return out

    def times(self) -> list[float]:
        return [b - a for a, b in zip(self._cum, self._cum[1:])]

    def scale_near(self, t0: float, t1: float) -> float:
        """scale() of the mean of the recorded runs that ended within
        CAL_WINDOW_S of the interval [t0, t1]."""
        lo = bisect.bisect_left(self.ends, t0 - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.ends, t1 + CAL_WINDOW_S)
        if hi == lo:
            raise ValueError("no calibration run near the interval")
        return scale((self._cum[hi] - self._cum[lo]) / (hi - lo))


def scale(mean_cal_s: float) -> float:
    """Factor that turns a time measured where the calibration loop took
    `mean_cal_s` on average into a time at the reference host speed.
    The mean, because work that spans several swings of the load is
    slowed by their average."""
    return (CAL_REF_S / mean_cal_s) ** CAL_EXPONENT


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def tail(values) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond it) for the tail metric.

    With N samples the percentile is 100 (1 - 10/N), which leaves
    exactly ten samples above it.  Below 2 * 10 samples that percentile
    would sit under the median, so the maximum is reported instead,
    with percentile 100 and no samples beyond.
    """
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return max(values), 100.0, 0
    q = 100.0 * (1.0 - TAIL_BEYOND / n)
    return percentile(values, q), q, TAIL_BEYOND


def peak_rss_mb() -> float:
    """Peak resident set of this process (children excluded)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref[5:]:
                return sha
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, seed: int, blas_threads: str) -> dict:
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(blas_threads),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root / "src"),
        "seed": seed,
        "argv": sys.argv[1:],
    }
