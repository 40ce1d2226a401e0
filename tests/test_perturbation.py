import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mjsreduce.clustering as clustering
from conftest import (
    PARTITION_LABELS,
    REVERSIBLE_LUMPABLE_T,
    THREE_STATE_T,
    draw_instance,
    random_model,
    random_partition,
    three_state_model,
)
from mjsreduce.clustering import build_features_aggregatable, build_features_lumpable, reduce_model
from mjsreduce.errors import DimensionMismatch, InputError, PartitionMismatch
from mjsreduce.model import MjsModel, Partition
from mjsreduce.perturbation import construct_T0, mr_bound, perturbations
from mjsreduce.synth import SynthConfig, fig4_model, generate

SPLIT = Partition([[0], [1, 2]])


def test_three_state_chain_metrics():
    m = three_state_model()
    agg = perturbations(m, SPLIT, "aggregatable")
    # One within-cluster pair, l1 row distance 0.2, ordered pairs double it.
    assert agg.eps_T == pytest.approx(0.4, rel=1e-12)
    assert agg.eps_A == 0.0 and agg.eps_B == 0.0
    lump = perturbations(m, SPLIT, "lumpable")
    assert lump.eps_T <= 1e-12


def test_fig4_metrics():
    model, part = fig4_model()
    agg = perturbations(model, part, "aggregatable")
    # Three pairs at Frobenius distance ||0.2 I||_F, doubled.
    assert agg.eps_A == pytest.approx(1.2 * np.sqrt(2.0), rel=1e-12)
    assert agg.eps_T == 0.0
    assert agg.eps_B == 0.0
    lump = perturbations(model, part, "lumpable")
    assert lump.eps_T == 0.0


def test_singleton_partition_measures_zero(rng):
    m = random_model(rng, s=4, n=2, p=1)
    singles = Partition([[i] for i in range(4)])
    for branch in ("aggregatable", "lumpable"):
        eps = perturbations(m, singles, branch)
        assert (eps.eps_A, eps.eps_B, eps.eps_T) == (0.0, 0.0, 0.0)


def test_pair_sums_count_ordered_pairs(rng):
    A = np.zeros((2, 2, 2))
    A[1] = np.eye(2)
    m = MjsModel(A, None, np.full((2, 2), 0.5))
    eps = perturbations(m, Partition([[0, 1]]), "aggregatable")
    assert eps.eps_A == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)


def test_perturbations_validates_sizes(rng):
    m = random_model(rng, s=4)
    with pytest.raises(PartitionMismatch):
        perturbations(m, SPLIT, "aggregatable")
    with pytest.raises(DimensionMismatch):
        perturbations(m, Partition([[0, 1], [2, 3]]), "nonsense")


@pytest.mark.parametrize(
    "call",
    [
        lambda m, part: SynthConfig(4, 2, 2, 1, branch="diagonal"),
        lambda m, part: reduce_model(m, 2, branch="diagonal"),
        lambda m, part: perturbations(m, part, "diagonal"),
        lambda m, part: mr_bound(m, part, "diagonal"),
        lambda m, part: construct_T0(m.T, part, branch="diagonal"),
    ],
    ids=["SynthConfig", "reduce_model", "perturbations", "mr_bound", "construct_T0"],
)
def test_unknown_branch_is_one_error(rng, call):
    m = random_model(rng, s=4)
    with pytest.raises(DimensionMismatch, match="unknown branch 'diagonal'"):
        call(m, Partition([[0, 1], [2, 3]]))


@pytest.mark.invariant
def test_perturbations_permutation_equivariant(rng):
    for branch in ("aggregatable", "lumpable"):
        m = random_model(rng, s=6, n=2, p=1)
        part = random_partition(rng, 6, 3)
        perm = rng.permutation(6)
        inv = np.argsort(perm)
        mp = MjsModel(m.A[perm], m.B[perm], m.T[np.ix_(perm, perm)])
        part_p = Partition([[int(inv[i]) for i in c] for c in part.clusters])
        a = perturbations(m, part, branch)
        b = perturbations(mp, part_p, branch)
        assert b.eps_A == pytest.approx(a.eps_A, rel=1e-12, abs=1e-12)
        assert b.eps_B == pytest.approx(a.eps_B, rel=1e-12, abs=1e-12)
        assert b.eps_T == pytest.approx(a.eps_T, rel=1e-12, abs=1e-12)


@pytest.mark.invariant
@pytest.mark.parametrize("branch", ["aggregatable", "lumpable"])
def test_generated_instances_stay_within_budgets(branch):
    for seed, (ea, eb, et) in enumerate(
        [(0.0, 0.0, 0.0), (0.4, 0.2, 0.3), (2.0, 1.0, 1.5), (0.0, 0.0, 0.8)]
    ):
        model, part, _ = generate(
            SynthConfig(8, 2, 2, 1, eps_A=ea, eps_B=eb, eps_T=et, branch=branch, seed=seed)
        )
        eps = perturbations(model, part, branch)
        assert eps.eps_A <= ea + 1e-12
        assert eps.eps_B <= eb + 1e-12
        assert eps.eps_T <= et + 1e-12


def test_perturbations_sum_norms_whose_squares_overflow():
    # (2e155)^2 overflows: eps_B read inf, with numpy's overflow warning.
    model = MjsModel(
        np.array([[[0.5]], [[0.4]]]), np.array([[[1e155]], [[-1e155]]]), np.full((2, 2), 0.5)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eps = perturbations(model, Partition([[0, 1]]), "aggregatable")
    assert eps.eps_B == 4e155


def test_construct_T0_refuses_a_T_of_another_size():
    with pytest.raises(PartitionMismatch, match=r"covers 3 modes, T has shape \(2, 2\)"):
        construct_T0(np.full((2, 2), 0.5), SPLIT)


def test_construct_T0_aggregatable_shortcut():
    T0 = construct_T0(THREE_STATE_T, SPLIT, branch="aggregatable")
    # Rows of the second cluster collapse onto their average.
    assert np.allclose(T0[1], [0.7, 0.05, 0.25], atol=1e-12)
    assert np.allclose(T0[2], [0.7, 0.05, 0.25], atol=1e-12)
    assert np.array_equal(T0[0], THREE_STATE_T[0])


@pytest.mark.invariant
def test_construct_T0_lumpable_blocks_exact(rng):
    for _ in range(10):
        s = int(rng.integers(4, 9))
        r = int(rng.integers(2, 4))
        T = rng.dirichlet(np.ones(s), size=s)
        part = random_partition(rng, s, r)
        eps_T = perturbations(
            MjsModel(np.zeros((s, 1, 1)), None, T), part, "lumpable"
        ).eps_T
        T0 = construct_T0(T, part)
        # Never farther from T than the measured perturbation.
        assert np.abs(T0 - T).sum(axis=1).max() <= eps_T + 1e-9
        assert np.linalg.norm(T0 - T) <= eps_T + 1e-9
        assert np.all(T0 >= 0.0) and np.all(T0 <= 1.0)
        assert np.abs(T0.sum(axis=1) - 1.0).max() <= 1e-12
        for ck in part.clusters:
            idx = list(ck)
            for cl in part.clusters:
                sums = T0[np.ix_(idx, list(cl))].sum(axis=1)
                assert np.abs(sums - sums[0]).max() <= 1e-12


def test_construct_T0_fixes_nothing_on_lumpable_chains():
    part = Partition([[0, 1], [2, 3]])
    T0 = construct_T0(REVERSIBLE_LUMPABLE_T, part)
    assert np.abs(T0 - REVERSIBLE_LUMPABLE_T).max() <= 1e-12
    assert np.abs(T0 - REVERSIBLE_LUMPABLE_T).sum(axis=1).max() <= 1e-9
    assert np.linalg.norm(T0 - REVERSIBLE_LUMPABLE_T) <= 1e-9


def test_combine_perturbations_formula():
    # eps_combined weighs eps_A, eps_B, eps_T by the feature weights; on
    # the lumpable branch gamma3 scales the transition term only.
    model, part, _ = generate(
        SynthConfig(6, 2, 2, 1, eps_A=0.1, eps_B=0.1, eps_T=0.1, seed=5)
    )
    for branch in ("aggregatable", "lumpable"):
        rep = mr_bound(model, part, branch, weights=(0.5, 0.25, 0.25))
        g = rep.gamma3 if branch == "lumpable" else 1.0
        e = rep.eps
        assert min(e.eps_A, e.eps_B, e.eps_T) > 0.0 and np.isfinite(g)
        want = np.sqrt((0.5 * e.eps_A) ** 2 + (0.25 * e.eps_B) ** 2 + (0.25 * g * e.eps_T) ** 2)
        assert rep.eps_combined == pytest.approx(want, rel=1e-12)


def test_bound_from_constants_values():
    # 64 (2 + kmeans_eps) (eps_combined / sigma_r)^2, inf at sigma_r = 0.
    model, part = fig4_model()
    for kmeans_eps in (0.0, 1.0, 2.0):
        rep = mr_bound(model, part, "aggregatable", kmeans_eps=kmeans_eps)
        want = 64.0 * (2.0 + kmeans_eps) * rep.eps_combined**2 / rep.sigma_r_phibar**2
        assert rep.bound_value == pytest.approx(want, rel=1e-12)
    # Zero modes weighed alone: every feature row is 0.
    still = MjsModel(np.zeros((4, 2, 2)), None, np.full((4, 4), 0.25))
    rep = mr_bound(still, Partition([[0, 1], [2, 3]]), "aggregatable", weights=(1.0, 0.0, 0.0))
    assert rep.sigma_r_phibar == 0.0 and rep.bound_value == np.inf


def test_bound_squares_the_ratio_where_sigma_r_squared_underflows():
    # Within-cluster spread 1e-150 and cluster means 1e-163 apart:
    # sigma_r^2 underflows to 0, and dividing by it raised
    # ZeroDivisionError; the bound is about 6e30.
    d, e = 1e-150 * np.diag([1.0, 2.0]), 1e-163 * np.diag([1.0, 0.0])
    model = MjsModel(np.array([d, -d, d + e, -d + e]), None, np.full((4, 4), 0.25))
    rep = mr_bound(model, Partition([[0, 1], [2, 3]]), "aggregatable")
    sigma, eps = rep.sigma_r_phibar, rep.eps_combined
    assert sigma > 0.0 and sigma**2 == 0.0
    # The same quotient with both terms lifted by 2^600 into the normal range.
    want = 64.0 * 3.0 * (eps * 2.0**600) ** 2 / (sigma * 2.0**600) ** 2
    assert rep.bound_value == pytest.approx(want, rel=1e-14)


def test_averaged_feature_matrix_rows(rng):
    # sigma_r is the r-th singular value of the feature matrix with each
    # row replaced by its cluster mean.
    m = random_model(rng, s=4, n=2, p=1)
    part = Partition([[0, 1], [2, 3]])
    phi = build_features_aggregatable(m).phi
    phibar = np.repeat([phi[:2].mean(axis=0), phi[2:].mean(axis=0)], 2, axis=0)
    sv = np.linalg.svd(phibar, compute_uv=False)
    sigma_r = mr_bound(m, part, "aggregatable").sigma_r_phibar
    assert sigma_r == pytest.approx(sv[1], abs=1e-12)
    for branch in ("aggregatable", "lumpable"):
        with pytest.raises(PartitionMismatch):
            mr_bound(m, Partition([[0, 1], [2]]), branch)
    # More clusters than modes: the partition is refused, not r > s.
    with pytest.raises(PartitionMismatch):
        mr_bound(m, Partition.uniform(20, 10), "lumpable")


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    labels=PARTITION_LABELS,
    n=st.integers(1, 3),
    p=st.integers(0, 2),
    branch=st.sampled_from(["aggregatable", "lumpable"]),
)
@example(seed=0, labels=[0] * 9 + [1] * 11, n=2, p=1, branch="lumpable")
def test_sigma_r_is_that_of_the_averaged_feature_rows(seed, labels, n, p, branch):
    # mr_bound takes sigma_r from the r x d matrix diag(sqrt|C|) M of
    # cluster means; it agrees with the s x d matrix of averaged rows.
    model, part = draw_instance(seed, labels, n, p)
    r = part.r
    if branch == "lumpable":
        phi = build_features_lumpable(model, r).phi
    else:
        phi = build_features_aggregatable(model).phi
    phibar = part.cluster_means(phi)[part.labels]
    want = np.linalg.svd(phibar, compute_uv=False)[r - 1]
    got = mr_bound(model, part, branch).sigma_r_phibar
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_mr_bound_report_formula_and_keys():
    model, part = fig4_model()
    rep = mr_bound(model, part, "aggregatable")
    recomputed = 64.0 * (2.0 + rep.kmeans_eps) * rep.eps_combined**2 / rep.sigma_r_phibar**2
    assert rep.bound_value == pytest.approx(recomputed, rel=1e-12)
    assert rep.threshold_zero <= rep.threshold_nonzero
    d = rep.to_dict()
    assert set(d) == {
        "branch",
        "weights",
        "eps_A",
        "eps_B",
        "eps_T",
        "gamma1",
        "gamma2",
        "gamma3",
        "sigma_r_phibar",
        "eps_combined",
        "threshold_nonzero",
        "threshold_zero",
        "bound_value",
        "applicable",
        "predicted_mr_zero",
    }
    assert d["gamma1"] is None  # aggregatable branch has no chain constants


def test_mr_bound_chain_constants_reversible():
    m = MjsModel(np.tile(0.3 * np.eye(2), (4, 1, 1)), None, REVERSIBLE_LUMPABLE_T)
    part = Partition([[0, 1], [2, 3]])
    rep = mr_bound(m, part, "lumpable")
    # Eigenvalues 1, 0.4, 0.2, 0: gamma1 = 1/0.6 + 1/0.8 + 1/1.
    assert rep.gamma1 == pytest.approx(47.0 / 12.0, rel=1e-12)
    # Singular gap of the scaled chain: 0.4 - 0.2, capped at 1.
    assert rep.gamma2 == pytest.approx(0.2, abs=1e-12)
    expected_g3 = (
        16.0 * rep.gamma1 * np.sqrt(2 * 0.25) * np.linalg.norm(REVERSIBLE_LUMPABLE_T)
        / (rep.gamma2 * 0.25**2)
    )
    assert rep.gamma3 == pytest.approx(expected_g3, rel=1e-12)
    assert rep.predicted_mr_zero


@pytest.mark.invariant
def test_mr_bound_invariant_to_relabeling(rng):
    m = random_model(rng, s=6, n=2, p=1)
    part = random_partition(rng, 6, 2)
    perm = rng.permutation(6)
    inv = np.argsort(perm)
    mp = MjsModel(m.A[perm], m.B[perm], m.T[np.ix_(perm, perm)])
    part_p = Partition([[int(inv[i]) for i in c] for c in part.clusters])
    for branch in ("aggregatable", "lumpable"):
        a = mr_bound(m, part, branch)
        b = mr_bound(mp, part_p, branch)
        assert b.bound_value == pytest.approx(a.bound_value, rel=1e-9)
        assert b.sigma_r_phibar == pytest.approx(a.sigma_r_phibar, rel=1e-9)


@pytest.mark.parametrize("kmeans_eps", [-3.0, -1e-12, float("nan"), float("inf")])
def test_mr_bound_refuses_negative_or_nan_kmeans_eps(kmeans_eps):
    model, part = fig4_model()
    with pytest.raises(InputError, match="kmeans_eps"):
        mr_bound(model, part, "aggregatable", kmeans_eps=kmeans_eps)


def loop_perturbations(model, partition, branch):
    """The per-pair loops perturbations replaced, kept as its oracle."""

    def pair_sum(values, dist):
        total = 0.0
        for ck in partition.clusters:
            idx = list(ck)
            for a in range(len(idx)):
                for b in range(a + 1, len(idx)):
                    total += 2.0 * dist(values[idx[a]], values[idx[b]])
        return total

    fro = lambda X, Y: float(np.linalg.norm(X - Y))
    l1 = lambda x, y: float(np.abs(x - y).sum())
    if branch == "lumpable":
        rows = np.stack(
            [model.T[:, list(cl)].sum(axis=1) for cl in partition.clusters], axis=1
        )
    else:
        rows = model.T
    eps_B = pair_sum(model.B, fro) if model.p else 0.0
    return pair_sum(model.A, fro), eps_B, pair_sum(rows, l1)


def loop_averaged_features(phi, partition):
    phibar = np.empty_like(phi)
    for ck in partition.clusters:
        idx = list(ck)
        phibar[idx] = phi[idx].mean(axis=0)
    return phibar


def loop_construct_T0(T, partition, branch, capped=True):
    """construct_T0 one row and block at a time, kept as its oracle.
    Sums run over 1-D row slices as Partition.block_sums and
    cluster_means run them, so the results match bit for bit.  With
    capped=False a block moves by d share / total, the proportional
    step without the cap, which overshoots on a block with a shortfall
    (total < |d|)."""
    s = T.shape[0]
    if branch == "aggregatable":
        T0 = np.empty_like(T)
        for ck in partition.clusters:
            T0[list(ck)] = T[list(ck)].mean(axis=0)
    else:
        block = np.array([[T[i, list(cl)].sum() for cl in partition.clusters] for i in range(s)])
        target = np.array([block[list(ck)].mean(axis=0) for ck in partition.clusters])
        delta = np.zeros_like(T)
        for i in range(s):
            for l, cl in enumerate(partition.clusters):
                idx = list(cl)
                d = target[partition.labels[i], l] - block[i, l]
                share = 1.0 - T[i, idx] if d > 0 else T[i, idx]
                cap = max(share.sum(), abs(d)) if capped else share.sum()
                if cap > 0:
                    delta[i, idx] = d * share / cap
        T0 = T + delta
    T0 = np.clip(T0, 0.0, 1.0)
    return T0 / T0.sum(axis=1, keepdims=True)


def shortfall_rows(T, partition):
    """Rows with a block whose share cannot take its deficit."""
    block = partition.block_sums(T)
    d = (partition.cluster_means(block)[partition.labels] - block)[:, partition.labels]
    share = np.where(d > 0, 1.0 - T, T)
    return (partition.block_sums(share)[:, partition.labels] < np.abs(d)).any(axis=1)


@pytest.mark.invariant
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    labels=PARTITION_LABELS,
    n=st.integers(1, 3),
    p=st.integers(0, 2),
    zeros=st.booleans(),
)
def test_cluster_aggregates_match_loops(seed, labels, n, p, zeros):
    model, part = draw_instance(seed, labels, n, p, zeros)
    for branch in ("aggregatable", "lumpable"):
        eps = perturbations(model, part, branch)
        want = loop_perturbations(model, part, branch)
        for got, ref in zip((eps.eps_A, eps.eps_B, eps.eps_T), want):
            assert got == pytest.approx(ref, rel=1e-13, abs=1e-14)
        got = construct_T0(model.T, part, branch=branch)
        assert np.array_equal(got, loop_construct_T0(model.T, part, branch))
    # mr_bound averages the feature rows over each cluster by cluster_means.
    phi = build_features_aggregatable(model).phi
    assert np.array_equal(part.cluster_means(phi)[part.labels], loop_averaged_features(phi, part))


def test_pair_sums_in_chunks_match_one_pass(rng, monkeypatch):
    model = random_model(rng, s=12, n=3, p=2)
    part = random_partition(rng, 12, 2)
    whole = perturbations(model, part, "lumpable")
    monkeypatch.setattr(clustering, "PAIR_CHUNK", 20)  # two pairs of A rows
    chunked = perturbations(model, part, "lumpable")
    for a, b in zip(
        (whole.eps_A, whole.eps_B, whole.eps_T), (chunked.eps_A, chunked.eps_B, chunked.eps_T)
    ):
        assert b == pytest.approx(a, rel=1e-13)


def saturated_chain():
    """Rows 0-2 put all their mass on mode 3, a singleton cluster; row 2
    puts a hair more than 1 (inside the model tolerance).  The cluster's
    average block sum then exceeds what rows 0 and 1 can take: their
    blocks have no headroom, a shortfall: the capped step of
    loop_construct_T0 leaves them at 1, and construct_T0's uncapped
    step overshoots 1, which its clip takes back to 1."""
    T = np.zeros((5, 5))
    T[:3, 3] = 1.0
    T[2, 3] += 1e-12
    T[3] = [0.1, 0.2, 0.3, 0.2, 0.2]
    T[4] = [0.3, 0.1, 0.1, 0.1, 0.4]
    return T, Partition([[0, 1, 2], [3], [4]])


def test_construct_T0_caps_saturated_rows():
    T, part = saturated_chain()
    assert list(np.flatnonzero(shortfall_rows(T, part))) == [0, 1]
    got = construct_T0(T, part, branch="lumpable")
    assert np.array_equal(got, loop_construct_T0(T, part, "lumpable"))
    # Within 1e-14 of the lumpable chain a feasibility program would
    # pick: every row of the first cluster puts all its mass on mode 3.
    assert np.abs(got - np.where(T > 0.5, 1.0, T)).max() <= 1e-14


@pytest.mark.invariant
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    labels=PARTITION_LABELS,
    saturated=st.integers(0, 3),
    jitter=st.sampled_from([0.0, 1e-12, 1e-10]),
)
@example(seed=0, labels=[0, 0, 0, 1, 2], saturated=3, jitter=1e-10)
def test_construct_T0_serves_rows_without_a_shortfall_as_before(seed, labels, saturated, jitter):
    # Chains with rows that put all their mass on one mode, and row sums
    # off 1 by up to jitter (inside the model tolerance): the rows whose
    # blocks can all take their deficit move by the proportional step,
    # bit for bit; the others by the capped one.
    rng = np.random.default_rng(seed)
    s = len(labels)
    T = rng.dirichlet(np.ones(s), size=s) * (rng.random((s, s)) < 0.7)
    T[np.arange(s), rng.integers(0, s, size=s)] += 0.1
    T /= T.sum(axis=1, keepdims=True)
    rows = rng.choice(s, size=min(saturated, s), replace=False)
    T[rows] = 0.0
    T[rows, rng.integers(0, s, size=len(rows))] = 1.0
    T *= 1.0 + jitter * rng.uniform(-1.0, 1.0, size=(s, 1))
    part = Partition.from_labels(labels)
    got = construct_T0(T, part, branch="lumpable")
    assert np.array_equal(got, loop_construct_T0(T, part, "lumpable"))
    served = ~shortfall_rows(T, part)
    old = loop_construct_T0(T, part, "lumpable", capped=False)
    assert np.array_equal(got[served], old[served])


@pytest.mark.parametrize(
    "bad",
    [
        [[1.5, -0.5], [0.5, 0.5]],
        [[np.nan, 0.5], [0.5, 0.5]],
        [[0.6, 0.5], [0.5, 0.5]],
        [[0.0, 0.0], [0.5, 0.5]],
    ],
    ids=["negative", "nan", "row-sum-above-1", "zero-row"],
)
@pytest.mark.parametrize("branch", ["aggregatable", "lumpable"])
def test_construct_T0_refuses_a_T_that_is_no_chain(bad, branch):
    with pytest.raises(InputError, match="T is not a chain"):
        construct_T0(np.array(bad), Partition([[0, 1]]), branch=branch)
