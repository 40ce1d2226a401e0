"""Random nearly-reducible instances and the fixed rotation benchmark.

The generator plants a uniform partition of s modes into r clusters of
size sbar = s / r, draws base dynamics per cluster, and perturbs each
mode away from its cluster base by amounts tied to the requested
budgets eps_A, eps_B, eps_T.  Budgets are upper bounds: the measured
perturbations of the planted partition never exceed them (transition
rows are renormalized after mixing, which can only tighten the slack).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import check_branch
from .errors import DegenerateInput, DimensionMismatch
from .model import MjsModel, Partition, _check_count, _check_seed

__all__ = ["SynthConfig", "generate", "fig4_model"]


@dataclass
class SynthConfig:
    s: int
    r: int
    n: int
    p: int
    eps_A: float = 0.0
    eps_B: float = 0.0
    eps_T: float = 0.0
    branch: str = "aggregatable"
    base_A_norm: float = 0.5
    base_B_norm: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        for name, minimum in (("s", 1), ("r", 1), ("n", 1), ("p", 0)):
            _check_count(name, getattr(self, name), minimum)
        _check_seed(self.seed)
        if self.s % self.r != 0:
            raise DegenerateInput(
                f"cluster count must divide the mode count, got s={self.s}, r={self.r}"
            )
        if not all(0 <= e < np.inf for e in (self.eps_A, self.eps_B, self.eps_T)):
            raise DimensionMismatch("perturbation budgets must be finite and nonnegative")
        check_branch(self.branch)


def _scaled_gaussian(rng, shape, target, ord=2) -> np.ndarray:
    M = rng.standard_normal(shape)
    norm = np.linalg.norm(M, ord)
    return M * (target / norm) if norm > 0 else M * 0.0


def generate(config: SynthConfig) -> tuple[MjsModel, Partition, MjsModel]:
    """Draw (model, planted_partition, base_model).

    Base dynamics: per cluster, Gaussian matrices rescaled to spectral
    norms base_A_norm and base_B_norm; base transition rows are flat
    Dirichlet over the clusters.  Mode i in cluster k gets
    A_i = Abase_k + E_i with ||E_i||_F = eps_A / (2 r sbar^2), likewise
    for B.  Transition rows first spread each base entry Tbase(k, l)
    across the block C_l with a flat Dirichlet (shared per cluster on
    the aggregatable branch, drawn per mode on the lumpable branch),
    then mix with weight w = eps_T / (2 r sbar^2) toward an independent
    flat Dirichlet row over all modes, and renormalize.
    """
    c = config
    rng = np.random.default_rng(c.seed)
    sbar = c.s // c.r
    partition = Partition.uniform(c.s, c.r)

    A_base = np.stack(
        [_scaled_gaussian(rng, (c.n, c.n), c.base_A_norm) for _ in range(c.r)]
    )
    if c.p:
        B_base = np.stack(
            [_scaled_gaussian(rng, (c.n, c.p), c.base_B_norm) for _ in range(c.r)]
        )
    else:
        B_base = np.zeros((c.r, c.n, 0))
    T_base = rng.dirichlet(np.ones(c.r), size=c.r)

    budget = 2.0 * c.r * sbar**2
    ea = c.eps_A / budget
    eb = c.eps_B / budget
    w = min(c.eps_T / budget, 1.0)

    A = np.empty((c.s, c.n, c.n))
    B = np.empty((c.s, c.n, c.p))
    T = np.empty((c.s, c.s))
    for k, ck in enumerate(partition.clusters):
        if c.branch == "aggregatable":
            spread = [rng.dirichlet(np.ones(len(cl))) for cl in partition.clusters]
        for i in ck:
            A[i] = A_base[k] + (
                _scaled_gaussian(rng, (c.n, c.n), ea, ord="fro") if ea > 0 else 0.0
            )
            if c.p:
                B[i] = B_base[k] + (
                    _scaled_gaussian(rng, (c.n, c.p), eb, ord="fro") if eb > 0 else 0.0
                )
            if c.branch == "lumpable":
                spread = [rng.dirichlet(np.ones(len(cl))) for cl in partition.clusters]
            row = np.empty(c.s)
            for l, cl in enumerate(partition.clusters):
                row[list(cl)] = T_base[k, l] * spread[l]
            if w > 0:
                row = (1.0 - w) * row + w * rng.dirichlet(np.ones(c.s))
            T[i] = row / row.sum()

    model = MjsModel(A, B, T)
    base = MjsModel(A_base, B_base, T_base)
    return model, partition, base


def fig4_model() -> tuple[MjsModel, Partition]:
    """Six-mode planar benchmark: rotation, contraction, expansion.

    Cluster bases: a rotation by pi/16, 0.8 I, and 1.2 I; the two modes
    of cluster k are the base plus and minus 0.1 I.  Every transition
    row is (0.2, 0.2, 0.2, 0.2, 0.1, 0.1), which is exactly lumpable
    for the planted partition {0,1 | 2,3 | 4,5}.  The system is
    mean-square stable yet not uniformly stable (mode 4 alone expands).
    """
    theta = np.pi / 16.0
    bases = [
        np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]),
        0.8 * np.eye(2),
        1.2 * np.eye(2),
    ]
    A = []
    for base in bases:
        A.append(base + 0.1 * np.eye(2))
        A.append(base - 0.1 * np.eye(2))
    T = np.tile([0.2, 0.2, 0.2, 0.2, 0.1, 0.1], (6, 1))
    model = MjsModel(np.stack(A), None, T)
    return model, Partition([[0, 1], [2, 3], [4, 5]])
