import numpy as np
import pytest

from mjsreduce.errors import DegenerateInput, DimensionMismatch
from mjsreduce.perturbation import perturbations
from mjsreduce.synth import SynthConfig, fig4_model, generate


def test_config_rejects_bad_shapes():
    with pytest.raises(DegenerateInput, match="divide"):
        SynthConfig(7, 3, 2, 1)
    with pytest.raises(DimensionMismatch):
        SynthConfig(6, 3, 2, 1, eps_A=-0.1)
    with pytest.raises(DimensionMismatch):
        SynthConfig(6, 3, 2, 1, branch="diagonal")


@pytest.mark.parametrize(
    "counts",
    [(6, 2.0, 2, 0), (6, 2, 2.5, 0), (6.0, 2, 2, 0), (6, 2, 2, True), (0, 1, 2, 0), (4, 2, 0, 0)],
)
def test_config_takes_only_integer_counts(counts):
    with pytest.raises(DimensionMismatch, match="must be an integer of at least"):
        SynthConfig(*counts)


def test_generate_is_deterministic():
    cfg = SynthConfig(8, 2, 3, 2, eps_A=0.3, eps_T=0.2, seed=42)
    m1, p1, b1 = generate(cfg)
    m2, p2, b2 = generate(cfg)
    assert np.array_equal(m1.A, m2.A)
    assert np.array_equal(m1.B, m2.B)
    assert np.array_equal(m1.T, m2.T)
    assert p1 == p2
    assert np.array_equal(b1.A, b2.A)


def test_zero_budget_aggregatable_structure():
    model, partition, base = generate(
        SynthConfig(8, 2, 3, 2, branch="aggregatable", seed=5)
    )
    for k, cluster in enumerate(partition.clusters):
        lead = cluster[0]
        for i in cluster:
            assert np.array_equal(model.A[i], base.A[k])
            assert np.array_equal(model.B[i], base.B[k])
            assert np.array_equal(model.T[i], model.T[lead])


def test_zero_budget_lumpable_structure():
    model, partition, base = generate(
        SynthConfig(8, 2, 3, 0, branch="lumpable", seed=6)
    )
    for k, cluster in enumerate(partition.clusters):
        sums = np.stack(
            [
                [model.T[i, list(cl)].sum() for cl in partition.clusters]
                for i in cluster
            ]
        )
        assert np.abs(sums - sums[0]).max() <= 1e-12
        assert np.abs(sums[0] - base.T[k]).max() <= 1e-12
        for i in cluster:
            assert np.array_equal(model.A[i], base.A[k])


def test_perturbation_sizes_are_exact():
    cfg = SynthConfig(6, 2, 3, 2, eps_A=0.6, eps_B=0.12, seed=9)
    model, partition, base = generate(cfg)
    per_mode = cfg.eps_A / (2.0 * 2 * 3**2)
    per_mode_b = cfg.eps_B / (2.0 * 2 * 3**2)
    for k, cluster in enumerate(partition.clusters):
        for i in cluster:
            assert np.linalg.norm(model.A[i] - base.A[k]) == pytest.approx(
                per_mode, rel=1e-12
            )
            assert np.linalg.norm(model.B[i] - base.B[k]) == pytest.approx(
                per_mode_b, rel=1e-12
            )


def test_base_norms_match_config():
    cfg = SynthConfig(6, 3, 4, 2, base_A_norm=0.37, base_B_norm=2.5, seed=1)
    _, _, base = generate(cfg)
    for k in range(3):
        assert np.linalg.norm(base.A[k], 2) == pytest.approx(0.37, rel=1e-12)
        assert np.linalg.norm(base.B[k], 2) == pytest.approx(2.5, rel=1e-12)


@pytest.mark.invariant
@pytest.mark.parametrize("branch", ["aggregatable", "lumpable"])
def test_rows_are_stochastic(branch):
    for seed in range(5):
        cfg = SynthConfig(
            9, 3, 2, 1, eps_A=0.4, eps_B=0.2, eps_T=0.7, branch=branch, seed=seed
        )
        model, _, base = generate(cfg)
        assert model.T.min() >= 0.0
        assert np.abs(model.T.sum(axis=1) - 1.0).max() <= 1e-12
        assert base.T.min() >= 0.0
        assert np.abs(base.T.sum(axis=1) - 1.0).max() <= 1e-12


@pytest.mark.invariant
@pytest.mark.parametrize("branch", ["aggregatable", "lumpable"])
def test_planted_partition_stays_within_budgets(branch):
    for seed in range(5):
        cfg = SynthConfig(
            8, 2, 2, 1, eps_A=0.5, eps_B=0.3, eps_T=0.9, branch=branch, seed=seed
        )
        model, partition, _ = generate(cfg)
        eps = perturbations(model, partition, branch)
        assert eps.eps_A <= cfg.eps_A + 1e-12
        assert eps.eps_B <= cfg.eps_B + 1e-12
        assert eps.eps_T <= cfg.eps_T + 1e-12


def test_fig4_model_layout():
    model, partition = fig4_model()
    assert (model.s, model.n, model.p) == (6, 2, 0)
    assert partition.clusters == ((0, 1), (2, 3), (4, 5))
    assert np.array_equal(
        model.T, np.tile([0.2, 0.2, 0.2, 0.2, 0.1, 0.1], (6, 1))
    )
    for k in range(3):
        gap = model.A[2 * k] - model.A[2 * k + 1]
        assert np.allclose(gap, 0.2 * np.eye(2), atol=1e-15)
    assert np.allclose(model.A[4], 1.3 * np.eye(2), atol=1e-15)
    assert np.allclose(model.A[3], 0.7 * np.eye(2), atol=1e-15)
    theta = np.pi / 16.0
    R = np.array(
        [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
    )
    assert np.allclose(model.A[0], R + 0.1 * np.eye(2), atol=1e-15)
