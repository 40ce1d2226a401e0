import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    PARTITION_LABELS,
    REVERSIBLE_LUMPABLE_T,
    draw_instance,
    random_model,
    random_partition,
)
import mjsreduce.clustering as clustering
from mjsreduce.clustering import (
    average_model,
    build_features_aggregatable,
    build_features_lumpable,
    default_weights,
    kmeans_partition,
    misclustering_rate,
    reduce_model,
)
from mjsreduce.errors import (
    BadWeights,
    ComputationError,
    DegenerateInput,
    DimensionMismatch,
    InputError,
    MjsError,
    NotConverged,
    NotErgodic,
    PartitionMismatch,
    RankDeficient,
)
from mjsreduce.experiments import demoted_weights
from mjsreduce.model import MjsModel, Partition
from mjsreduce.perturbation import perturbations
from mjsreduce.synth import SynthConfig, generate


def reversible_chain_model(n=2, p=0):
    """Identical dynamics per planted cluster on the reversible chain."""
    base = np.stack([0.3 * np.eye(n), -0.3 * np.eye(n)])
    A = base[[0, 0, 1, 1]]
    B = np.tile(np.ones((n, p)), (4, 1, 1)) if p else None
    return MjsModel(A, B, REVERSIBLE_LUMPABLE_T), Partition([[0, 1], [2, 3]])


def test_default_weights_inverse_scale():
    A = np.tile(np.diag([2.0, 0.0]), (2, 1, 1))
    B = np.tile([[4.0], [0.0]], (2, 1, 1))
    T = np.array([[0.0, 1.0], [1.0, 0.0]])  # spectral norm 1
    w = default_weights(MjsModel(A, B, T))
    raw = np.array([0.5, 0.25, 1.0])
    assert np.allclose(w, raw / raw.sum(), atol=1e-12)


def test_default_weights_autonomous_drops_b_block():
    A = np.tile(np.eye(2), (2, 1, 1))
    m = MjsModel(A, None, np.full((2, 2), 0.5))
    assert default_weights(m)[1] == 0.0


def test_weight_validation():
    m = reversible_chain_model()[0]
    with pytest.raises(BadWeights):
        build_features_aggregatable(m, weights=(0.5, 0.5, 0.5))
    with pytest.raises(BadWeights):
        build_features_aggregatable(m, weights=(-0.2, 0.6, 0.6))
    with pytest.raises(BadWeights):
        build_features_aggregatable(m, weights=(1.0, 0.0))
    with pytest.raises(BadWeights, match="finite"):
        build_features_aggregatable(m, weights=(np.nan, 0.5, 0.5))


def test_aggregatable_features_blocks():
    A = np.array([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [1.0, 0.0]]])
    B = np.array([[[5.0], [6.0]], [[7.0], [8.0]]])
    T = np.array([[0.3, 0.7], [0.6, 0.4]])
    m = MjsModel(A, B, T)
    # Dynamics-only weights: rows are the column-stacked mode matrices.
    f = build_features_aggregatable(m, weights=(1.0, 0.0, 0.0))
    assert f.d == 4 + 2 + 2
    assert np.array_equal(f.phi[0, :4], [1.0, 3.0, 2.0, 4.0])
    assert np.array_equal(f.phi[:, 4:], np.zeros((2, 4)))
    f = build_features_aggregatable(m, weights=(0.0, 0.0, 1.0))
    assert np.array_equal(f.phi[:, 6:], T)
    f = build_features_aggregatable(m, weights=(0.0, 1.0, 0.0))
    assert np.array_equal(f.phi[:, 4:6], B.reshape(2, 2))


def test_lumpable_features_spectral_summary():
    m, part = reversible_chain_model()
    f = build_features_lumpable(m, 2)
    assert f.d == 4 + 0 + 2
    # The transition block is a_T S_r.  The stationary law is uniform
    # here, so H = T and S_r = 2 W_r.
    S_r = f.phi[:, 4:] / f.weights[2]
    W_r = S_r / 2.0
    # Top-r left singular vectors are orthonormal.
    assert np.abs(W_r.T @ W_r - np.eye(2)).max() <= 1e-10
    assert np.abs(f.sv - np.linalg.svd(m.T, compute_uv=False)).max() <= 1e-12
    # Rows of S_r are constant on the planted clusters.
    for ck in part.clusters:
        idx = list(ck)
        assert np.abs(S_r[idx] - S_r[idx[0]]).max() <= 1e-8


def test_lumpable_features_rejections():
    m = reversible_chain_model()[0]
    with pytest.raises(DegenerateInput):
        build_features_lumpable(m, 5)
    for r in (0, -1):
        with pytest.raises(DimensionMismatch):
            build_features_lumpable(m, r)
    flat = MjsModel(np.zeros((3, 1, 1)), None, np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(RankDeficient):
        build_features_lumpable(flat, 2)


def test_kmeans_two_line_clusters():
    pts = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
    part, centers, obj = kmeans_partition(pts, 2, restarts=8, seed=0)
    assert part == Partition([[0, 1, 2], [3, 4, 5]])
    # Within-cluster squared deviations: 2 * (0.1^2 + 0 + 0.1^2).
    assert obj == pytest.approx(0.04, abs=1e-12)
    assert np.allclose(sorted(centers.ravel()), [0.1, 10.1], atol=1e-12)
    # Centers line up with the canonical cluster order.
    assert centers[0, 0] == pytest.approx(0.1, abs=1e-12)


def test_kmeans_determinism_and_validation():
    pts = np.random.default_rng(3).standard_normal((12, 2))
    a = kmeans_partition(pts, 3, seed=5)
    b = kmeans_partition(pts, 3, seed=5)
    assert a[0] == b[0] and a[2] == b[2]
    with pytest.raises(DegenerateInput):
        kmeans_partition(pts, 13)
    with pytest.raises(InputError, match="at least 1"):
        kmeans_partition(pts, 3, restarts=0)


def test_kmeans_duplicate_points_drop_empty_clusters():
    pts = np.zeros((3, 2))
    part, centers, obj = kmeans_partition(pts, 2, seed=0)
    assert part.r == 1
    assert centers.shape == (1, 2)
    assert obj == 0.0


def test_kmeans_on_copies_whose_distance_sums_overflow():
    # Each squared distance is finite and their sums are not; one cluster
    # per distinct row needs no sum.
    pts = np.array([[0.0], [1.3e154], [1.3e154], [0.0], [1.3e154]])
    part, centers, obj = kmeans_partition(pts, 3, seed=0)
    assert part == Partition([[0, 3], [1, 2, 4]])
    assert np.array_equal(centers, [[0.0], [1.3e154]]) and obj == 0.0


def test_short_partition_scores_against_the_truth():
    # Two distinct values for three clusters: k-means returns two, and
    # the truth cluster left without a match costs 1.
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    part, _, _ = kmeans_partition(pts, 3, seed=0)
    assert part == Partition([[0, 1, 2], [3]])
    truth = Partition([[0, 1], [2], [3]])
    assert misclustering_rate(part, truth) == 1.0
    with pytest.raises(PartitionMismatch):
        misclustering_rate(truth, part)


@pytest.mark.parametrize(
    "points, r, restarts, error",
    [
        ([[0.0], [np.nan], [1.0]], 2, 4, InputError),
        ([[0.0], [np.inf], [1.0]], 2, 4, InputError),
        ([[1e200], [-1e200], [0.0]], 2, 4, ComputationError),
        ([[1e200], [-1e200]], 1, 4, ComputationError),
        # Fewer than r distinct rows, but their squared distance overflows.
        ([[1e200], [1e200], [-1e200], [-1e200]], 3, 4, DegenerateInput),
        ([0.0, 1.0, 2.0], 2, 4, DimensionMismatch),
        ([[0.0], [1.0], [2.0]], True, 4, DimensionMismatch),
        ([[0.0], [1.0], [2.0]], 2.5, 4, DimensionMismatch),
        ([[0.0], [1.0], [2.0]], 2, True, InputError),
        ([[0.0], [1.0], [2.0]], 2, 2.5, InputError),
    ],
    ids=[
        "nan",
        "inf",
        "overflow-seeding",
        "overflow-objective",
        "overflow-copies",
        "one-dim",
        "bool-r",
        "fractional-r",
        "bool-restarts",
        "fractional-restarts",
    ],
)
def test_kmeans_refuses_bad_input(points, r, restarts, error):
    with pytest.raises(error):
        kmeans_partition(np.array(points), r, restarts=restarts, seed=0)


@pytest.mark.invariant
def test_permutation_equivariance(rng):
    model, truth, _ = generate(
        SynthConfig(8, 2, 2, 1, branch="aggregatable", seed=31)
    )
    res = reduce_model(model, 2, branch="aggregatable", seed=0)
    base_mr = misclustering_rate(res.partition, truth)
    perm = rng.permutation(model.s)
    inv = np.argsort(perm)
    permuted = MjsModel(
        model.A[perm], model.B[perm], model.T[np.ix_(perm, perm)]
    )
    truth_p = Partition([[int(inv[i]) for i in c] for c in truth.clusters])
    res_p = reduce_model(permuted, 2, branch="aggregatable", seed=0)
    assert misclustering_rate(res_p.partition, truth_p) == base_mr == 0.0
    expected = Partition([[int(inv[i]) for i in c] for c in res.partition.clusters])
    assert res_p.partition == expected


@pytest.mark.invariant
def test_zero_perturbation_any_positive_weights():
    # Clean instances cluster exactly under every strictly positive
    # weighting: aggregatable draws, and a reversible chain whose
    # spectral summary is cluster-constant for the lumpable branch.
    triples = [
        (0.8, 0.1, 0.1),
        (0.1, 0.8, 0.1),
        (0.1, 0.1, 0.8),
        (1 / 3, 1 / 3, 1 / 3),
    ]
    model, truth, _ = generate(
        SynthConfig(12, 3, 2, 1, branch="aggregatable", seed=41)
    )
    for w in triples:
        res = reduce_model(model, 3, branch="aggregatable", weights=w, seed=0)
        assert misclustering_rate(res.partition, truth) == 0.0
    lmodel, ltruth = reversible_chain_model(p=1)
    for w in triples:
        res = reduce_model(lmodel, 2, branch="lumpable", weights=w, seed=0)
        assert misclustering_rate(res.partition, ltruth) == 0.0


@pytest.mark.invariant
def test_reduction_result_averaging_identities(rng):
    for trial in range(5):
        model = random_model(rng, s=6, n=2, p=1)
        res = reduce_model(model, 3, branch="aggregatable", seed=trial)
        part, red = res.partition, res.reduced
        assert part.s == model.s and red.s == part.r
        for k, ck in enumerate(part.clusters):
            idx = list(ck)
            assert np.abs(red.A[k] - model.A[idx].mean(axis=0)).max() <= 1e-12
            assert np.abs(red.B[k] - model.B[idx].mean(axis=0)).max() <= 1e-12
            mean_row = model.T[idx].mean(axis=0)
            for l, cl in enumerate(part.clusters):
                assert red.T[k, l] == pytest.approx(
                    mean_row[list(cl)].sum(), abs=1e-12
                )
        assert res.objective >= 0.0
        assert res.restarts_used == 50
        assert res.embedding.shape == (model.s, part.r)


@pytest.mark.invariant
@pytest.mark.parametrize("branch", ["aggregatable", "lumpable"])
def test_zero_perturbation_recovers_base_model(branch):
    for seed in range(3):
        model, truth, base = generate(
            SynthConfig(8, 4, 3, 2, branch=branch, seed=seed)
        )
        res = reduce_model(
            model, 4, branch=branch, weights=demoted_weights(model), seed=seed
        )
        assert misclustering_rate(res.partition, truth) == 0.0
        # Canonical cluster order pins cluster k to base mode k.
        assert res.partition == truth
        for k in range(4):
            assert np.linalg.norm(res.reduced.A[k] - base.A[k]) <= 1e-10
            assert np.linalg.norm(res.reduced.B[k] - base.B[k]) <= 1e-10
        assert np.abs(res.reduced.T - base.T).max() <= 1e-10


@pytest.mark.invariant
def test_mr_assignment_matches_brute_force(rng):
    for _ in range(200):
        s = int(rng.integers(6, 15))
        r = int(rng.integers(2, 7))
        est = random_partition(rng, s, r)
        truth = random_partition(rng, s, r)
        exact = loop_misclustering_rate(est, truth)
        assert misclustering_rate(est, truth) == pytest.approx(exact, abs=1e-12)


def test_mr_frozen_examples():
    a = Partition([[0, 1], [2, 3]])
    assert misclustering_rate(a, a) == 0.0
    # Interleaved split: each truth cluster loses one of its two modes.
    b = Partition([[0, 2], [1, 3]])
    assert misclustering_rate(a, b) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PartitionMismatch):
        misclustering_rate(a, Partition([[0, 1, 2], [3, 4]]))
    # A short estimate is padded with an empty cluster, which costs 1;
    # an estimate with more clusters than the truth is refused.
    finer = Partition([[0, 1], [2], [3]])
    assert misclustering_rate(a, finer) == 1.0
    with pytest.raises(PartitionMismatch):
        misclustering_rate(finer, a)


@given(st.lists(st.integers(0, 3), min_size=4, max_size=10))
@settings(max_examples=50, deadline=None)
def test_mr_zero_iff_equal(labels):
    if len(set(labels)) < 2:
        labels = labels[:-1] + [max(labels) + 1]
    p = Partition.from_labels(labels)
    assert misclustering_rate(p, p) == 0.0


def test_average_model_plain_and_pi_weighted():
    T = REVERSIBLE_LUMPABLE_T
    A = np.arange(16, dtype=float).reshape(4, 2, 2)
    m = MjsModel(A, None, T)
    part = Partition([[0, 1], [2, 3]])
    red = average_model(m, part)
    assert np.array_equal(red.A[0], A[:2].mean(axis=0))
    # Uniform stationary law: both averaging modes agree here.
    red_pi = average_model(m, part, pi_weighted=True)
    assert np.abs(red.A - red_pi.A).max() <= 1e-12
    assert np.abs(red.T - red_pi.T).max() <= 1e-12
    # Skewed chain: weights follow the stationary distribution.
    T2 = np.array([[0.5, 0.5, 0.0], [0.2, 0.2, 0.6], [0.4, 0.4, 0.2]])
    m2 = MjsModel(np.arange(12, dtype=float).reshape(3, 2, 2), None, T2)
    part2 = Partition([[0, 1], [2]])
    w = m2.pi[:2] / m2.pi[:2].sum()
    red2 = average_model(m2, part2, pi_weighted=True)
    assert np.abs(red2.A[0] - (w[0] * m2.A[0] + w[1] * m2.A[1])).max() <= 1e-12
    with pytest.raises(PartitionMismatch):
        average_model(m2, part)


def test_reduce_identity_when_r_equals_s(rng):
    model = random_model(rng, s=3, n=2, p=1)
    res = reduce_model(model, 3, branch="aggregatable", seed=0)
    assert res.partition == Partition([[0], [1], [2]])
    assert np.abs(res.reduced.A - model.A).max() <= 1e-12
    assert np.abs(res.reduced.T - model.T).max() <= 1e-12


def test_reduce_rejects_r_above_s(rng):
    with pytest.raises(DegenerateInput):
        reduce_model(random_model(rng), 9)


@pytest.mark.parametrize("r", [0, -1])
def test_cluster_count_below_one_is_input_error(rng, r):
    model = random_model(rng)
    with pytest.raises(DimensionMismatch, match="at least 1"):
        reduce_model(model, r)
    with pytest.raises(DimensionMismatch, match="at least 1"):
        reduce_model(model, r, branch="lumpable")
    with pytest.raises(DimensionMismatch, match="at least 1"):
        kmeans_partition(rng.standard_normal((4, 2)), r)


@pytest.mark.parametrize("r", [2.5, True])
def test_cluster_count_must_be_an_integer(rng, r):
    with pytest.raises(DimensionMismatch, match="integer"):
        reduce_model(random_model(rng), r)


def test_auto_branch_prefers_smaller_transition_residual():
    # Rows differ inside the clusters but block sums match exactly, so
    # only the lumpable reading finds a near-zero residual.
    lmodel, _ = reversible_chain_model()
    res = reduce_model(lmodel, 2, seed=0)
    assert res.branch == "lumpable"
    # Exactly aggregatable draw: tie on both readings goes aggregatable.
    amodel, _, _ = generate(SynthConfig(6, 2, 2, 1, branch="aggregatable", seed=7))
    res = reduce_model(amodel, 2, seed=0)
    assert res.branch == "aggregatable"


def better_explicit_reduction(model, r, **kw):
    """The branch=None contract spelled out: each branch reduced on its
    own, and the smaller (eps_T, eps_A + eps_B) wins, ties going to the
    aggregatable branch."""
    candidates = [reduce_model(model, r, branch="aggregatable", **kw)]
    try:
        candidates.append(reduce_model(model, r, branch="lumpable", **kw))
    except ComputationError:
        pass

    def score(res):
        eps = perturbations(model, res.partition, res.branch)
        return (eps.eps_T, eps.eps_A + eps.eps_B)

    return min(candidates, key=score)  # the first of equal scores


@pytest.mark.invariant
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    labels=PARTITION_LABELS,
    n=st.integers(1, 3),
    p=st.integers(0, 2),
    zeros=st.booleans(),
    r=st.integers(1, 6),
    restarts=st.integers(1, 8),
    demoted=st.booleans(),
)
@example(seed=0, labels=[0] * 9 + [1] * 11, n=2, p=1, zeros=False, r=4, restarts=8, demoted=False)
@example(seed=3, labels=[0, 0, 0, 0], n=1, p=0, zeros=True, r=2, restarts=5, demoted=False)
def test_auto_branch_equals_the_better_explicit_branch(seed, labels, n, p, zeros, r, restarts, demoted):
    # The branches share one set of restart streams and the default
    # weights, and each must still be the reduction of its own call.
    model, _ = draw_instance(seed, labels, n, p, zeros)
    r = min(r, model.s)
    kw = dict(restarts=restarts, seed=seed, weights=demoted_weights(model) if demoted else None)
    try:
        want = better_explicit_reduction(model, r, **kw)
    except MjsError as err:
        with pytest.raises(type(err)) as got:
            reduce_model(model, r, **kw)
        assert str(got.value) == str(err)
        return
    got = reduce_model(model, r, **kw)
    assert got.branch == want.branch and got.restarts_used == want.restarts_used
    assert np.array_equal(got.partition.labels, want.partition.labels)
    assert got.objective == want.objective
    assert np.array_equal(got.embedding, want.embedding)
    for X, Y in (
        (got.reduced.A, want.reduced.A),
        (got.reduced.B, want.reduced.B),
        (got.reduced.T, want.reduced.T),
    ):
        assert X.shape == Y.shape and np.array_equal(X, Y)


def test_auto_branch_refuses_bad_input_as_the_aggregatable_branch_does():
    # Every branch, and the auto path, checks its input before any branch
    # builds features: the weights, restarts, the seed, then r > s.  So
    # the lumpable branch refuses as the aggregatable one does, even on a
    # chain with no stationary law, which its features would refuse.
    ergodic = reversible_chain_model()[0]  # s = 4
    non_ergodic = MjsModel(ergodic.A, None, np.eye(4))
    for model in (ergodic, non_ergodic):
        for r, restarts, seed, weights in itertools.product(
            (2, 5), (3, 0, 2.5), (0, -1), (None, (0.5, 0.5, 0.5))
        ):
            if (r, restarts, seed, weights) == (2, 3, 0, None):
                continue
            kw = dict(restarts=restarts, seed=seed, weights=weights)
            with pytest.raises(MjsError) as want:
                reduce_model(model, r, branch="aggregatable", **kw)
            for branch in (None, "lumpable"):
                with pytest.raises(MjsError) as got:
                    reduce_model(model, r, branch=branch, **kw)
                assert type(got.value) is type(want.value)
                assert str(got.value) == str(want.value)
            if weights is not None:
                expected = "weights must sum to 1, got 1.5"
            elif restarts != 3:
                expected = f"restarts must be an integer of at least 1, got {restarts!r}"
            elif seed:
                expected = "seed must be an integer of at least 0, got -1"
            else:
                expected = "cannot form 5 clusters from 4 points"
            assert str(got.value) == expected
    with pytest.raises(NotErgodic):
        reduce_model(non_ergodic, 2, branch="lumpable", restarts=3, seed=0)


def test_auto_reduction_averages_only_the_winner(monkeypatch):
    # Both branches cluster this chain, and the lumpable one wins.
    import mjsreduce.clustering as clustering

    averaged = []
    original = clustering.average_model

    def counted(model, partition, **kw):
        averaged.append(partition)
        return original(model, partition, **kw)

    monkeypatch.setattr(clustering, "average_model", counted)
    model, truth = reversible_chain_model()
    res = reduce_model(model, 2, seed=0)
    assert res.branch == "lumpable"
    assert averaged == [res.partition] == [truth]


def test_auto_reduction_drops_a_lumpable_branch_whose_kmeans_fails(monkeypatch):
    # The lumpable branch wins on this chain, until its k-means fails to
    # settle: then the auto reduction is the aggregatable one.
    import mjsreduce.clustering as clustering

    model, _ = reversible_chain_model()
    lumpable = reduce_model(model, 2, branch="lumpable", seed=0)
    want = reduce_model(model, 2, branch="aggregatable", seed=0)
    original = clustering.kmeans_partition

    def unsettled_on_lumpable(points, r, **kw):
        if np.array_equal(points, lumpable.embedding):
            raise NotConverged("k-means restart 0 still moves")
        return original(points, r, **kw)

    monkeypatch.setattr(clustering, "kmeans_partition", unsettled_on_lumpable)
    got = reduce_model(model, 2, seed=0)
    assert got.branch == "aggregatable"
    assert got.partition == want.partition and got.objective == want.objective
    assert np.array_equal(got.embedding, want.embedding)
    assert np.array_equal(got.reduced.T, want.reduced.T)
    with pytest.raises(NotConverged):
        reduce_model(model, 2, branch="lumpable", seed=0)


def test_reduction_result_serialization(rng):
    model = random_model(rng, s=4, n=2, p=1)
    res = reduce_model(model, 2, branch="aggregatable", seed=0)
    d = res.to_dict()
    assert set(d) == {"partition", "reduced", "objective", "restarts_used"}
    assert all(min(c) >= 1 for c in d["partition"])


def loop_average_model(model, partition, pi_weighted=False):
    """Cluster averaging one cluster at a time, kept as the oracle of
    average_model."""
    r = partition.r
    pi = model.pi if pi_weighted else None
    A = np.empty((r, model.n, model.n))
    B = np.empty((r, model.n, model.p))
    T = np.empty((r, r))
    for k, ck in enumerate(partition.clusters):
        idx = list(ck)
        if pi_weighted:
            w = pi[idx] / pi[idx].sum()
            A[k] = np.einsum("i,ijk->jk", w, model.A[idx])
            B[k] = np.einsum("i,ijk->jk", w, model.B[idx])
            rows = w @ model.T[idx]
        else:
            A[k] = model.A[idx].mean(axis=0)
            B[k] = model.B[idx].mean(axis=0)
            rows = model.T[idx].mean(axis=0)
        for l, cl in enumerate(partition.clusters):
            T[k, l] = rows[list(cl)].sum()
    return MjsModel(A, B, T)


@pytest.mark.invariant
@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    labels=PARTITION_LABELS,
    n=st.integers(1, 3),
    p=st.integers(0, 2),
    zeros=st.booleans(),
)
def test_average_model_matches_cluster_loop(seed, labels, n, p, zeros):
    model, part = draw_instance(seed, labels, n, p, zeros)
    got, want = average_model(model, part), loop_average_model(model, part)
    for X, Y in ((got.A, want.A), (got.B, want.B), (got.T, want.T)):
        assert X.shape == Y.shape and np.array_equal(X, Y)
    try:
        model.pi
    except NotErgodic:
        with pytest.raises(NotErgodic):
            average_model(model, part, pi_weighted=True)
        return
    got = average_model(model, part, pi_weighted=True)
    want = loop_average_model(model, part, pi_weighted=True)
    assert np.array_equal(got.A, want.A) and np.array_equal(got.B, want.B)
    # The oracle's weighted T rows come from a BLAS matrix-vector
    # product, the stacked ones from einsum: equal up to rounding.
    assert np.abs(got.T - want.T).max() <= 1e-15


def loop_misclustering_rate(estimated, truth):
    """Set-difference cost matrix and exhaustive search, kept as the
    oracle of misclustering_rate."""
    r = truth.r
    cost = np.array(
        [
            [len(set(ck) - set(cm)) / len(ck) for cm in estimated.clusters]
            for ck in truth.clusters
        ]
    )
    return min(
        sum(cost[k, h[k]] for k in range(r)) for h in itertools.permutations(range(r))
    )


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 10), r=st.integers(1, 5))
def test_misclustering_rate_matches_set_loop(seed, s, r):
    rng = np.random.default_rng(seed)
    r = min(r, s)
    est, truth = random_partition(rng, s, r), random_partition(rng, s, r)
    # A tied optimum may be matched another way than the search's first
    # minimum and summed in another order: equal up to rounding.
    want = loop_misclustering_rate(est, truth)
    assert misclustering_rate(est, truth) == pytest.approx(want, rel=1e-15, abs=0.0)


def loop_kmeans_plus_plus(points, r, rng):
    s = points.shape[0]
    centers = np.empty((r, points.shape[1]))
    centers[0] = points[rng.integers(s)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for k in range(1, r):
        total = d2.sum()
        if total <= 0:
            # All remaining points duplicate chosen centers.
            centers[k] = points[rng.integers(s)]
            continue
        probs = d2 / total
        idx = int(rng.choice(s, p=probs))
        centers[k] = points[idx]
        d2 = np.minimum(d2, ((points - centers[k]) ** 2).sum(axis=1))
    return centers


def loop_lloyd(points, centers, max_iter=300):
    r = centers.shape[0]
    # With fewer than r distinct points, copies of one point have that
    # point as their mean.
    few = len(np.unique(points, axis=0)) < r
    labels = np.full(points.shape[0], -1)
    converged = False
    for _ in range(max_iter):
        dist2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dist2, axis=1)
        # Repair empty clusters by reseeding from the farthest point.
        for k in range(r):
            if np.any(new_labels == k):
                continue
            assigned = dist2[np.arange(len(points)), new_labels]
            far = int(np.argmax(assigned))
            if assigned[far] <= 0:
                continue  # nothing to split off; cluster stays empty
            centers[k] = points[far]
            new_labels[far] = k
            dist2[:, k] = ((points - centers[k]) ** 2).sum(axis=1)
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        for k in range(r):
            mask = labels == k
            if np.any(mask):
                members = points[mask]
                copies = few and np.all(members == members[0])
                centers[k] = members[0] if copies else members.mean(axis=0)
    dist2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(dist2, axis=1)
    objective = float(dist2[np.arange(len(points)), labels].sum())
    return labels, centers, objective, converged


def loop_kmeans(points, r, restarts, seed):
    """One restart at a time, seeded with Generator.choice, kept as the
    oracle of kmeans_partition.  Returns (partition, centers, objective,
    whether the winning restart reached a fixed assignment)."""
    best = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        centers = loop_kmeans_plus_plus(points, r, rng)
        run = loop_lloyd(points, centers)
        if best is None or run[2] < best[2]:
            best = run
    labels, centers, objective, converged = best
    used, first = np.unique(labels, return_index=True)
    return (
        Partition.from_labels(labels),
        centers[used[np.argsort(first)]],
        objective,
        converged,
    )


@pytest.mark.invariant
@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    distinct=st.integers(1, 3),
    s=st.integers(2, 11),
    extra=st.integers(1, 8),
    d=st.integers(1, 3),
    restarts=st.integers(1, 12),
)
@example(seed=0, distinct=2, s=10, extra=2, d=2, restarts=5)
@example(seed=3, distinct=2, s=10, extra=2, d=2, restarts=5)  # rows at 1e-170
def test_kmeans_on_repeated_points_keeps_one_cluster_per_row(seed, distinct, s, extra, d, restarts):
    # More clusters than distinct rows: each distinct row is one cluster
    # whose center is the row itself, at objective 0, also for rows at
    # 1e-170 whose squared distances underflow to 0.
    rng = np.random.default_rng(seed)
    s = max(s, distinct + 1)
    values = rng.standard_normal((distinct, d)) * rng.choice([1e-170, *10.0 ** np.arange(-3, 4)])
    labels = rng.permutation(np.r_[np.arange(distinct), rng.integers(0, distinct, s - distinct)])
    points = values[labels]
    part, centers, objective = kmeans_partition(
        points, min(distinct + extra, s), restarts=restarts, seed=seed
    )
    assert objective == 0.0
    assert part == Partition.from_labels(labels)
    assert np.array_equal(centers, points[[c[0] for c in part.clusters]])


def kmeans_points(seed, s, d, distinct, lattice):
    """s points in d dimensions taking `distinct` values; lattice points
    are 0/1 corners, whose symmetric splits tie between restarts."""
    rng = np.random.default_rng(seed)
    if lattice:
        values = rng.integers(0, 2, (distinct, d)).astype(float)
    else:
        values = rng.standard_normal((distinct, d)) * 10.0 ** rng.integers(-3, 4)
    return values[rng.integers(0, distinct, s)] if distinct < s else values


@pytest.mark.invariant
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 36),
    d=st.integers(1, 30),
    r=st.integers(1, 30),
    restarts=st.integers(1, 12),
    distinct=st.integers(1, 36),
    lattice=st.booleans(),
    tiny=st.booleans(),
)
# Fewer distinct rows than clusters: kmeans_partition answers with one
# cluster per row, which every restart of the loop reaches.
@example(seed=0, s=10, d=2, r=4, restarts=5, distinct=3, lattice=False, tiny=False)
@example(seed=0, s=10, d=2, r=4, restarts=5, distinct=2, lattice=False, tiny=False)
@example(seed=1, s=12, d=3, r=6, restarts=7, distinct=2, lattice=False, tiny=False)
# d = 1: numpy sums a single column pairwise, several row by row.
@example(seed=6, s=24, d=1, r=2, restarts=8, distinct=24, lattice=False, tiny=False)
@example(seed=0, s=24, d=1, r=1, restarts=6, distinct=24, lattice=False, tiny=False)  # r = 1
@example(seed=9, s=6, d=2, r=6, restarts=6, distinct=6, lattice=False, tiny=False)  # r = s
@example(seed=11, s=18, d=4, r=3, restarts=1, distinct=18, lattice=False, tiny=False)  # one restart
@example(seed=2, s=8, d=2, r=2, restarts=10, distinct=4, lattice=True, tiny=False)  # ties
# Squared distances over 9 or more coordinates are summed with 8
# accumulators; regulate clusters at d = r up to 24.
@example(seed=4, s=30, d=9, r=9, restarts=8, distinct=30, lattice=False, tiny=False)
@example(seed=5, s=36, d=24, r=24, restarts=6, distinct=36, lattice=False, tiny=False)
# numpy sums 64 terms with 8 accumulators and 130 as two halves of 64
# and 66; _sq_dists follows both orders plane by plane.
@example(seed=7, s=20, d=64, r=5, restarts=4, distinct=20, lattice=False, tiny=False)
@example(seed=8, s=16, d=130, r=4, restarts=3, distinct=16, lattice=False, tiny=False)
# Rows at 1e-170, all distinct: every squared distance underflows, so
# every restart's seeding vanishes after its first center.
@example(seed=3, s=12, d=3, r=4, restarts=5, distinct=12, lattice=False, tiny=True)
def test_kmeans_matches_the_restart_loop(seed, s, d, r, restarts, distinct, lattice, tiny):
    r, distinct = min(r, s), min(distinct, s)
    points = kmeans_points(seed, s, d, distinct, lattice)
    if tiny:
        # Squared distances underflow to 0; with fewer than r distinct
        # rows kmeans_partition tells the rows apart, the loop does not.
        points *= 1e-170
        assume(len(np.unique(points, axis=0)) >= r)
    want, want_centers, want_objective, converged = loop_kmeans(points, r, restarts, seed)
    if not converged:
        with pytest.raises(NotConverged):
            kmeans_partition(points, r, restarts=restarts, seed=seed)
        return
    part, centers, objective = kmeans_partition(points, r, restarts=restarts, seed=seed)
    assert np.array_equal(part.labels, want.labels)
    assert centers.shape == want_centers.shape and np.array_equal(centers, want_centers)
    assert objective == want_objective


# d = 0 and each summation regime of np.add.reduce on a row of d terms:
# a running sum below 8, 8 accumulators up to 128, halves above.
KERNEL_DIMS = [*range(41), 63, 64, 127, 128, 129, 200, 300]


@pytest.mark.invariant
@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from(KERNEL_DIMS),
    s=st.integers(1, 12),
    restarts=st.integers(1, 3),
    r=st.integers(0, 8),
    scale=st.sampled_from([1.0, 1e-3, 1e160, 1e-160, 1e-310]),
    copies=st.booleans(),
)
@example(seed=0, d=300, s=12, restarts=3, r=8, scale=1.0, copies=False)  # several blocks
@example(seed=1, d=129, s=4, restarts=1, r=0, scale=1.0, copies=False)  # no centers
@example(seed=2, d=9, s=5, restarts=2, r=3, scale=1e160, copies=False)  # overflow
@example(seed=3, d=40, s=6, restarts=2, r=2, scale=1e-310, copies=True)  # subnormal
def test_sq_dists_has_the_bits_of_numpy_row_sums(seed, d, s, restarts, r, scale, copies):
    # The plane-wise kernel against the difference block it replaces, bit
    # for bit; a numpy release that sums rows in another order fails here.
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((s, d)) * scale
    centers = rng.standard_normal((restarts, r, d)) * scale
    if copies and r:
        centers[:, 0] = points[rng.integers(s)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = clustering._sq_dists(points, centers)
    want = np.empty((restarts, s, r))
    with np.errstate(over="ignore"):
        for i, c in enumerate(centers):
            want[i] = np.square(points[:, None] - c).sum(-1)
    assert got.shape == want.shape
    assert np.array_equal(got, want), (
        f"numpy {np.__version__} sums rows of {d} squared differences in "
        "another order than _add_planes"
    )


def test_kmeans_on_zero_width_points_gives_one_cluster():
    for r in (1, 2, 5):
        part, centers, objective = kmeans_partition(np.zeros((5, 0)), r, restarts=3, seed=1)
        assert part == Partition([[0, 1, 2, 3, 4]])
        assert centers.shape == (1, 0) and objective == 0.0


def test_lloyd_round_without_moved_centers_passes_no_centers(monkeypatch):
    # r = s: each point is its own cluster and its own mean, so the first
    # Lloyd round changes no center's bits and asks for no distances.
    shapes = []
    kernel = clustering._sq_dists

    def spy(points, centers):
        shapes.append(centers.shape)
        return kernel(points, centers)

    monkeypatch.setattr(clustering, "_sq_dists", spy)
    points = np.array([[0.0, 1.0], [2.0, -1.0], [5.0, 3.0]])
    part, centers, objective = kmeans_partition(points, 3, restarts=2, seed=0)
    assert (0, 1, 2) in shapes
    assert part == Partition([[0], [1], [2]])
    assert np.array_equal(centers, points) and objective == 0.0
