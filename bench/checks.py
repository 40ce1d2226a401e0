"""Output checks.  Each raises CheckFailed with a reason; oracles are
computed here with numpy alone, independently of the package."""

from __future__ import annotations

import hashlib
import math

import numpy as np


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def rel_close(actual: float, expected: float, rtol: float, what: str) -> None:
    ok = math.isfinite(actual) and abs(actual - expected) <= rtol * max(abs(expected), 1e-300)
    require(ok, f"{what} = {actual!r}, expected {expected!r} within {rtol:g} relative")


def dense_rho(A: np.ndarray, T: np.ndarray) -> float:
    """Spectral radius of the second-moment propagator, built densely:
    block (i, j) = T[j, i] * kron(A_j, A_j)."""
    s, n, _ = A.shape
    m = n * n
    M = np.zeros((s * m, s * m))
    for j in range(s):
        K = np.kron(A[j], A[j])
        for i in range(s):
            M[i * m : (i + 1) * m, j * m : (j + 1) * m] = T[j, i] * K
    return float(np.abs(np.linalg.eigvals(M)).max())


def mode_extremes(A: np.ndarray) -> tuple[float, float]:
    """(max_i rho(A_i), max_i ||A_i||_2): the trivial JSR bracket."""
    rho = max(float(np.abs(np.linalg.eigvals(a)).max()) for a in A)
    norm = max(float(np.linalg.norm(a, 2)) for a in A)
    return rho, norm


def jsr_bracket(lower: float, upper: float, extremes, ref=None, tol: float = 1e-9) -> None:
    """lower <= upper inside the trivial bracket, overlapping the reference.

    Overlap rather than equality lets a change that tightens the
    bracket pass.
    """
    max_rho, max_norm = extremes
    slack = tol * max(1.0, max_norm)
    require(lower <= upper + slack, f"JSR lower {lower} above upper {upper}")
    require(lower >= max_rho - slack, f"JSR lower {lower} below max rho(A_i) {max_rho}")
    require(upper <= max_norm + slack, f"JSR upper {upper} above max ||A_i|| {max_norm}")
    if ref is not None:
        ref_lo, ref_up = ref
        require(
            lower <= ref_up + slack and upper >= ref_lo - slack,
            f"JSR bracket [{lower}, {upper}] misses reference [{ref_lo}, {ref_up}]",
        )


def at_least_one(value: float, what: str) -> None:
    require(value >= 1.0 - 1e-12, f"{what} = {value} is below 1")


def mr_in_range(mr: float, r: int) -> None:
    require(0.0 <= mr <= r, f"misclustering rate {mr} outside [0, {r}]")


def below_bound(observed, bound, what: str, rtol: float = 1e-9) -> None:
    """Elementwise observed <= bound, up to rounding."""
    observed = np.asarray(observed, dtype=float)
    bound = np.asarray(bound, dtype=float)
    over = observed > bound * (1.0 + rtol) + 1e-12
    require(
        not np.any(over),
        f"{what}: observed exceeds the bound at t = {np.flatnonzero(over).tolist()}",
    )


def costs_agree(closed_form: float, monte_carlo: float, rtol: float) -> None:
    require(math.isfinite(monte_carlo), "Monte Carlo cost diverged")
    gap = abs(monte_carlo - closed_form) / closed_form
    require(gap <= rtol, f"Monte Carlo {monte_carlo} vs closed form {closed_form}: gap {gap:.4f} > {rtol}")


def partition_digest(labels, mr: float) -> str:
    """Short digest of a canonical partition and its misclustering rate."""
    blob = ",".join(str(int(x)) for x in labels) + f"|{mr!r}"
    return hashlib.sha256(blob.encode()).hexdigest()[:10]
