import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mjsreduce.bounds as bounds
from conftest import random_model, three_state_model
from mjsreduce.bounds import (
    BoundInputs,
    KernelDistribution,
    empirical_traj_diff,
    mss_premises,
    mss_traj_bound,
    transition_kernel_enum,
    us_premises,
    us_traj_bound,
    w2_moment_lower_bound,
    wasserstein_exact,
    wasserstein_kernel_bound,
)
from mjsreduce.clustering import average_model, reduce_model
from mjsreduce.errors import (
    ComputationError,
    DegenerateInput,
    DimensionMismatch,
    InputError,
    NotConverged,
    NotErgodic,
    NotNormalized,
    PartitionMismatch,
    TooLarge,
    TooManySequences,
)
from mjsreduce.model import MjsModel, Partition
from mjsreduce.synth import SynthConfig, fig4_model, generate

SCALAR_PAIR = MjsModel(
    np.array([[[2.0]], [[3.0]]]), None, np.full((2, 2), 0.5)
)


def dist(points, mass, t=0):
    return KernelDistribution(np.asarray(points, float), np.asarray(mass, float), t)


def random_dist(rng, m, n=2):
    return dist(rng.standard_normal((m, n)), rng.dirichlet(np.ones(m)))


def assert_plan_marginals(plan, p, q):
    assert np.abs(plan.sum(axis=1) - p.mass).max() <= 1e-9
    assert np.abs(plan.sum(axis=0) - q.mass).max() <= 1e-9
    assert plan.min() >= -1e-12


def reference_inputs(**overrides):
    base = dict(
        n=2, s=4, r=2, a_bar=1.1, b_bar=0.8, t_bar=0.3, T_norm=1.05,
        rho=0.9, tau=2.5, xi=0.95, kappa=1.7,
        eps_A=0.01, eps_B=0.02, eps_T=0.03, x0_norm=1.5,
    )
    base.update(overrides)
    return BoundInputs(**base)


def test_kernel_enum_one_step():
    k = transition_kernel_enum(SCALAR_PAIR, np.array([1.0]), 1)
    order = np.argsort(k.support[:, 0])
    assert np.allclose(k.support[order, 0], [2.0, 3.0], atol=1e-14)
    assert np.allclose(k.mass[order], [0.5, 0.5], atol=1e-14)


def test_kernel_enum_two_steps_merges_duplicates():
    # Paths (0,1) and (1,0) both land on 6; their masses add up.
    k = transition_kernel_enum(SCALAR_PAIR, np.array([1.0]), 2)
    order = np.argsort(k.support[:, 0])
    assert k.size == 3
    assert np.allclose(k.support[order, 0], [4.0, 6.0, 9.0], atol=1e-14)
    assert np.allclose(k.mass[order], [0.25, 0.5, 0.25], atol=1e-14)


def test_kernel_enum_init_forms():
    at_zero = transition_kernel_enum(SCALAR_PAIR, np.array([1.0]), 0)
    assert at_zero.size == 1 and at_zero.mass[0] == 1.0
    assert at_zero.support[0, 0] == 1.0


def test_kernel_enum_at_zero_needs_no_stationary_law():
    # T = I has no unique stationary law, but x_0 = x0 whatever the chain.
    frozen = MjsModel(np.stack([2.0 * np.eye(2), 3.0 * np.eye(2)]), None, np.eye(2))
    at_zero = transition_kernel_enum(frozen, np.array([1.0, -1.0]), 0)
    assert np.array_equal(at_zero.support, [[1.0, -1.0]])
    assert np.array_equal(at_zero.mass, [1.0])
    with pytest.raises(NotErgodic):
        transition_kernel_enum(frozen, np.array([1.0, -1.0]), 1)


def test_kernel_enum_rejections(rng):
    # 2^18 = 262 144 mode sequences, above KERNEL_PATHS.
    with pytest.raises(TooManySequences):
        transition_kernel_enum(SCALAR_PAIR, np.array([1.0]), 18)
    driven = random_model(rng, s=2, n=2, p=1)
    with pytest.raises(TooLarge):
        transition_kernel_enum(driven, np.zeros(2), 1)
    # Declared but identically zero inputs are fine.
    silent = MjsModel(driven.A, np.zeros((2, 2, 1)), driven.T)
    transition_kernel_enum(silent, np.zeros(2), 1)


@pytest.mark.parametrize("t", [-1, -3])
def test_kernel_enum_refuses_a_negative_horizon(t):
    model, _ = fig4_model()
    with pytest.raises(DimensionMismatch, match="nonnegative"):
        transition_kernel_enum(model, np.array([1.0, 0.0]), t)


@pytest.mark.parametrize("t", [2.0, 2.5, True, np.int64(2)], ids=["2.0", "2.5", "True", "int64"])
def test_kernel_enum_takes_only_an_integer_horizon(t):
    model, _ = fig4_model()
    if isinstance(t, np.integer):
        k = transition_kernel_enum(model, np.array([1.0, 0.0]), t)
        assert type(k.t) is int and k.t == 2
        return
    with pytest.raises(DimensionMismatch, match="nonnegative step count"):
        transition_kernel_enum(model, np.array([1.0, 0.0]), t)


def big_mode(a):
    """Modes a I and a contraction, T = 0.5: at t = 6 the states reach
    a^6 times x0."""
    return MjsModel(
        np.stack([a * np.eye(2), [[0.5, 0.1], [0.0, 0.5]]]), None, np.full((2, 2), 0.5)
    )


@pytest.mark.parametrize("a", [40.0, 1e27])
def test_kernel_enum_keeps_far_states_in_their_cells(a):
    # 40^6 / MERGE_TOL passes 2^63, where an int64 grid key would wrap.
    x0 = np.ones(2)
    k = transition_kernel_enum(big_mode(a), x0, 6)
    support, mass = path_kernel_enum(big_mode(a), x0, 6)
    assert np.array_equal(k.support, support) and np.array_equal(k.mass, mass)
    support, mass = recursive_kernel(big_mode(a), x0, 6)
    assert k.support.shape == support.shape
    np.testing.assert_allclose(k.support, support, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(k.mass, mass, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "A",
    [
        [1e150 * np.eye(2), [[0.5, 0.1], [0.0, 0.5]]],
        [1e150 * np.eye(2), 1e150 * np.diag([1.0, 2.0])],
    ],
    ids=["one-far-state", "far-states-apart"],
)
def test_kernel_enum_merges_states_past_the_grid_key_range(A):
    # States of 1e300 overflow their grid keys (1e300 / MERGE_TOL) to
    # inf, and on the second model the differences and norms of the
    # three far states in that one cell overflow too; the warning filter
    # makes any overflow warning an error here.
    model = MjsModel(np.array(A), None, np.full((2, 2), 0.5))
    x0 = np.ones(2)
    k = transition_kernel_enum(model, x0, 2)
    support, mass = path_kernel_enum(model, x0, 2)
    assert np.array_equal(k.support, support) and np.array_equal(k.mass, mass)
    with np.errstate(over="ignore"):
        support, mass = recursive_kernel(model, x0, 2)
    assert np.array_equal(k.support, support) and np.array_equal(k.mass, mass)
    assert len(k.support) == 3


@pytest.mark.parametrize("t", [2, 3])
def test_kernel_enum_refuses_states_that_overflow(t):
    model = big_mode(1e200)
    assert np.isfinite(transition_kernel_enum(model, np.ones(2), 1).support).all()
    with pytest.raises(DegenerateInput, match="t = 2 overflow"):
        transition_kernel_enum(model, np.ones(2), t)


@pytest.mark.parametrize("t", [3, 4])
def test_kernel_enum_takes_a_chain_whose_rows_sum_to_the_tolerance(t):
    # Rows off 1 by 0.9e-9 are a chain, and the law of x_t carries them
    # through t - 1 levels, so its total is off 1 by (t - 1) * 0.9e-9:
    # past 1e-9 from t = 3, where the law was refused as NotNormalized.
    e = 0.9e-9
    model = MjsModel(
        np.stack([0.5 * np.eye(2), 0.9 * np.eye(2)]),
        None,
        np.array([[0.5, 0.5 + e], [0.3, 0.7 + e]]),
    )
    law = transition_kernel_enum(model, (1.0, 2.0), t)
    assert law.mass.sum() - 1.0 == pytest.approx((t - 1) * e, rel=1e-6)
    assert wasserstein_exact(law, law) == 0.0


def test_law_tolerance_grows_with_the_horizon():
    # 1e-9 up to t = 1, so every injected total violation still fails
    # there, and (1 + 1e-9)^t - 1, about t * 1e-9, beyond.
    for t in (0, 1, 2, 3, 10):
        room = max(t, 1) * 1e-9
        for off in (-0.99 * room, 0.99 * room):
            dist([[0.0], [1.0]], [0.5, 0.5 + off], t)
        for off in (-1.01 * room, 1.01 * room):
            with pytest.raises(NotNormalized):
                dist([[0.0], [1.0]], [0.5, 0.5 + off], t)


@pytest.mark.invariant
def test_kernel_mass_is_conserved(rng):
    for _ in range(5):
        m = random_model(rng, s=3, n=2, p=0)
        for t in range(5):
            k = transition_kernel_enum(m, np.ones(2), t)
            assert abs(k.mass.sum() - 1.0) <= 1e-12
            assert k.mass.min() > 0.0


def recursive_kernel(model, x0, t, dedup_tol=1e-10):
    """The depth-first walk with a greedy per-point merge that
    transition_kernel_enum replaces, kept as its oracle."""
    init = model.pi
    points, masses = [], []

    def walk(depth, mode, x, q):
        x = model.A[mode] @ x
        if depth == t - 1:
            points.append(x)
            masses.append(q)
            return
        for j in range(model.s):
            qj = q * model.T[mode, j]
            if qj > 0.0:
                walk(depth + 1, j, x, qj)

    if t == 0:
        points, masses = [x0], [1.0]
    else:
        for i in range(model.s):
            if init[i] > 0.0:
                walk(0, i, x0, float(init[i]))
    tol = dedup_tol * max(float(np.linalg.norm(x0)), 1.0)
    kept, kept_mass, buckets = [], [], {}
    for x, q in zip(points, masses):
        key = (np.round(x / max(tol, 1e-300)) + 0.0).tobytes()  # -0.0 as 0.0
        for idx in buckets.get(key, ()):
            if np.linalg.norm(kept[idx] - x) <= tol:
                kept_mass[idx] += q
                break
        else:
            kept.append(x)
            kept_mass.append(q)
            buckets.setdefault(key, []).append(len(kept) - 1)
    return np.array(kept), np.array(kept_mass)


def path_kernel_enum(model, x0, t):
    """The level-by-level walk that forms one state per mode sequence,
    which transition_kernel_enum replaces, kept as its oracle: its
    outputs must match bit for bit."""
    if t == 0:
        return np.array([x0]), np.ones(1)
    init = model.pi
    modes = np.flatnonzero(init > 0.0)
    q = init[modes]
    X = (model.A[modes] @ x0[:, None])[..., 0]
    for _ in range(t - 1):
        weights = q[:, None] * model.T[modes]
        rows, modes = np.nonzero(weights > 0.0)
        q = weights[rows, modes]
        X = (model.A[modes] @ X[rows][..., None])[..., 0]
    tol = bounds.MERGE_TOL * max(float(np.linalg.norm(x0)), 1.0)
    support, label = bounds._merge_points(X, tol)
    return support, np.bincount(label, weights=q, minlength=len(support))


@pytest.mark.invariant
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 4),
    n=st.integers(1, 3),
    t=st.integers(0, 6),
    zeros=st.booleans(),
    commuting=st.booleans(),
    merge_tol=st.sampled_from([1e-10, 1e-2, 0.3, 1.0]),
)
@example(seed=1, s=4, n=3, t=3, zeros=True, commuting=True, merge_tol=1e-10)
@example(seed=4, s=4, n=1, t=6, zeros=True, commuting=False, merge_tol=1e-10)
@example(seed=1, s=3, n=3, t=6, zeros=True, commuting=False, merge_tol=0.3)
def test_kernel_enum_equals_the_path_walk(seed, s, n, t, zeros, commuting, merge_tol):
    # Commuting modes with entries in {0, 0.5, -1, 2} land many sequences
    # on bit-equal states, and zeros in x0 give more.  Zero-probability
    # transitions prune branches and give bit-equal states different
    # next modes: on the first two examples, numbering the (class, mode)
    # keys in key order, not by their first sequence, reorders the
    # support.  The wide tolerances merge distinct points.
    rng = np.random.default_rng(seed)
    if commuting:
        A = np.stack([np.diag(d) for d in rng.choice([0.0, 0.5, -1.0, 2.0], size=(s, n))])
    else:
        A = rng.standard_normal((s, n, n)) / np.sqrt(n)
    T = rng.random((s, s))
    if zeros:
        T *= rng.random((s, s)) < 0.5
    # A cycle and a self-loop keep the chain ergodic: it has a stationary law.
    T[np.arange(s), (np.arange(s) + 1) % s] += 0.1
    T[np.arange(s), np.arange(s)] += 0.05
    T /= T.sum(axis=1, keepdims=True)
    model = MjsModel(A, None, T)
    x0 = rng.standard_normal(n) * (rng.random(n) < 0.7)
    with mock.patch.object(bounds, "MERGE_TOL", merge_tol):
        k = transition_kernel_enum(model, x0, t)
        support, mass = path_kernel_enum(model, x0, t)
    assert np.array_equal(k.support, support)
    assert np.array_equal(k.mass, mass)
    # Bits too: == does not tell -0.0 from 0.0.
    assert k.support.tobytes() == support.tobytes()
    assert k.mass.tobytes() == mass.tobytes()


def test_kernel_enum_equals_recursive_walk_on_fig4():
    # Bit for bit, in the same order: every fig4 kernel of the certify
    # benchmark, full model and reductions of seeds 0-5.
    model, _ = fig4_model()
    models = [model] + [reduce_model(model, 3, seed=seed).reduced for seed in range(6)]
    for m in models:
        for x0 in ((1.0, 1.0), (1.0, -1.0), (1.0, 0.0), (0.0, 1.0)):
            for t in range(7):
                k = transition_kernel_enum(m, np.array(x0), t)
                support, mass = recursive_kernel(m, np.array(x0), t)
                assert np.array_equal(k.support, support), (m.s, x0, t)
                assert np.array_equal(k.mass, mass), (m.s, x0, t)


@pytest.mark.invariant
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 4),
    n=st.integers(1, 4),
    t=st.integers(0, 5),
    commuting=st.booleans(),
    dedup_tol=st.sampled_from([1e-10, 1e-2, 0.3, 1.0]),
)
@example(seed=0, s=3, n=2, t=0, commuting=False, dedup_tol=1e-10)
@example(seed=0, s=2, n=4, t=4, commuting=False, dedup_tol=1.0)
def test_kernel_enum_equals_recursive_walk(seed, s, n, t, commuting, dedup_tol):
    # Zero-probability transitions prune branches; commuting (diagonal)
    # modes land many paths on one point, and the wide tolerances merge
    # distinct points, so the greedy order is exercised.
    rng = np.random.default_rng(seed)
    if commuting:
        A = np.stack([np.diag(d) for d in rng.choice([0.5, -1.0, 2.0], size=(s, n))])
    else:
        A = rng.standard_normal((s, n, n)) / np.sqrt(n)
    T = rng.random((s, s)) * (rng.random((s, s)) < 0.5)
    # A cycle and a self-loop keep the chain ergodic: it has a stationary law.
    T[np.arange(s), (np.arange(s) + 1) % s] += 0.1
    T[np.arange(s), np.arange(s)] += 0.05
    T /= T.sum(axis=1, keepdims=True)
    model = MjsModel(A, None, T)
    x0 = rng.standard_normal(n)
    with mock.patch.object(bounds, "MERGE_TOL", dedup_tol):
        k = transition_kernel_enum(model, x0, t)
    support, mass = recursive_kernel(model, x0, t, dedup_tol)
    assert k.support.shape == support.shape
    np.testing.assert_allclose(k.support, support, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(k.mass, mass, rtol=1e-12, atol=0.0)


def equal_rows_oracle(X):
    """Groups of rows equal under ==, by a scan over the rows."""
    first, inverse = [], []
    for i, row in enumerate(X):
        for g, j in enumerate(first):
            if np.all(X[j] == row):
                inverse.append(g)
                break
        else:
            inverse.append(len(first))
            first.append(i)
    return np.array(first, dtype=np.intp), np.array(inverse, dtype=np.intp)


@pytest.mark.parametrize("collide", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_equal_rows_matches_a_scan(n, collide, rng):
    # Repeated rows, 0.0 and -0.0 (equal under ==), and NaN rows, which
    # == never pairs, even with a copy of their bits.  With a zero
    # multiplier every row hashes as its last column, so rows that share
    # it collide and the sort falls back to every column.
    values = np.array([0.0, -0.0, 1.0, -2.5, np.nan])
    X = values[rng.integers(0, len(values), size=(60, n))]
    X = np.concatenate([X, X[:20]])
    finite = np.where(np.isnan(X), 3.0, X)
    ints = rng.integers(-3, 3, size=(50, n))
    with mock.patch.object(bounds, "_ROW_HASH", np.uint64(0) if collide else bounds._ROW_HASH):
        for rows in (X, finite, ints, X[:0]):
            first, inverse = bounds._equal_rows(rows)
            want_first, want_inverse = equal_rows_oracle(rows)
            assert np.array_equal(first, want_first)
            assert np.array_equal(inverse, want_inverse)


def test_merge_walks_a_cell_holding_a_chain():
    # One grid cell of width tol holds a ~ b and b ~ c with a and c more
    # than tol apart.  Merging the cell into its first point would take
    # c too; the greedy walk keeps a and c.
    tol = bounds.MERGE_TOL
    a, b, c = tol * np.array([[-0.45, -0.45], [0.0, 0.0], [0.45, 0.45]])
    gaps = np.array([b - a, c - a, c - b])
    walk = [bool(np.linalg.norm(d) <= tol) for d in gaps]
    assert walk == [True, False, True]
    assert list(bounds._surely_within(gaps, tol)) == walk
    # Mode i maps x0 = e1 to the i-th point.  The copies of b and c
    # make the walking cell hold equal rows: each must join the row its
    # first copy joined.
    points = (a, b, c, b, c)
    A = np.stack([np.column_stack([x, np.zeros(2)]) for x in points])
    model = MjsModel(A, None, np.full((5, 5), 0.2))
    x0 = np.array([1.0, 0.0])
    k = transition_kernel_enum(model, x0, 1)
    support, mass = recursive_kernel(model, x0, 1)
    assert np.array_equal(support, [a, c])
    assert np.array_equal(k.support, support)
    assert np.array_equal(k.mass, mass)
    assert np.allclose(mass, [0.6, 0.4])


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_surely_within_implies_the_walk_merges(n, rng):
    # Rows at distances within a few ulps of tol, around the margin: a
    # row _surely_within takes must also pass the walk's norm test, and
    # a row clearly inside must be taken.
    tol = 1e-10
    D = rng.standard_normal((20_000, n))
    D *= tol / np.linalg.norm(D, axis=1, keepdims=True)
    D *= 1.0 + rng.uniform(-40.0, 4.0, size=(len(D), 1)) * np.finfo(float).eps
    sure = bounds._surely_within(D, tol)
    walk = np.array([np.linalg.norm(d) <= tol for d in D])
    assert sure.any() and not (sure & ~walk).any()
    assert bounds._surely_within(D * (1.0 - 1e-12), tol).all()


def test_wasserstein_frozen_values():
    split = dist([[0.0], [1.0]], [0.5, 0.5])
    point = dist([[0.0]], [1.0])
    assert wasserstein_exact(split, point, ell=1) == pytest.approx(0.5, abs=1e-12)
    assert wasserstein_exact(split, point, ell=2) == pytest.approx(
        np.sqrt(0.5), abs=1e-12
    )
    assert wasserstein_exact(split, split, ell=1) == pytest.approx(0.0, abs=1e-12)


def test_wasserstein_translation_is_shift_norm(rng):
    pts = rng.standard_normal((4, 3))
    mass = rng.dirichlet(np.ones(4))
    v = np.array([1.0, -2.0, 0.5])
    p = dist(pts, mass)
    q = dist(pts + v, mass)
    for ell in (1, 2):
        assert wasserstein_exact(p, q, ell=ell) == pytest.approx(
            np.linalg.norm(v), rel=1e-9
        )


def test_wasserstein_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        wasserstein_exact(dist([[0.0]], [0.9]), dist([[0.0]], [1.0]))


def test_wasserstein_rejects_a_nan_mass():
    # NaN is off 1 by no comparable amount; it reached linprog, which
    # raised a bare ValueError.
    with pytest.raises(NotNormalized):
        wasserstein_exact(dist([[0.0], [1.0]], [np.nan, 0.5]), dist([[0.0]], [1.0]))


@pytest.mark.parametrize("ell", [0, 0.5, -1, float("nan"), float("inf")])
def test_transport_order_below_one_is_refused(ell):
    # ell = 0 divided by zero and ell = -1 reached scipy with a NaN cost;
    # ell = inf gave costs of 0 and inf, which scipy refused, and a
    # finite kernel bound.
    p = dist([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(InputError):
        wasserstein_exact(p, p, ell=ell)
    with pytest.raises(InputError):
        wasserstein_kernel_bound(reference_inputs(), 3, ell=ell)


@pytest.mark.parametrize("point", [[np.inf, 0.0], [0.0, -np.inf], [np.nan, 1.0]])
def test_wasserstein_refuses_support_points_that_are_not_finite(point):
    # The cost of such a point is not finite, which linprog refused with
    # a bare ValueError.  The law refuses the point when it is built.
    with pytest.raises(InputError, match="not finite"):
        wasserstein_exact(dist([point, [0.0, 0.0]], [0.5, 0.5]), dist([[1.0, 1.0]], [1.0]), ell=2)


# One violation per kind, injected at point or mass i of a valid law,
# with the class and words of the error that must name it.
LAW_VIOLATIONS = {
    "negative mass": (NotNormalized, r", least -0\.2[45]"),
    "total above": (NotNormalized, r"masses sum to 1\.0000000"),
    "total below": (NotNormalized, r"masses sum to 0\.9999999"),
    "NaN mass": (NotNormalized, "masses sum to nan"),
    "NaN point": (InputError, "not finite"),
    "inf point": (InputError, "not finite"),
    "extra point": (DimensionMismatch, "masses for"),
    "missing point": (DimensionMismatch, "masses for"),
}


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 6),
    n=st.integers(1, 3),
    kind=st.sampled_from(sorted(LAW_VIOLATIONS)),
    where=st.integers(0, 2**16),
)
def test_law_refuses_each_injected_violation(seed, m, n, kind, where):
    rng = np.random.default_rng(seed)
    support, mass = rng.standard_normal((m, n)), rng.dirichlet(np.ones(m))
    i = where % m
    # Totals within 1e-9 of 1, from either side, are a law, held read-only.
    for off in (-5e-10, 5e-10):
        near = mass.copy()
        near[int(np.argmax(near))] += off
        k = dist(support, near)
        assert not (k.support.flags.writeable or k.mass.flags.writeable)
        with pytest.raises(dataclasses.FrozenInstanceError):
            k.mass = mass
    assert support.flags.writeable and mass.flags.writeable
    if kind == "negative mass":
        # The total stays 1: the sign alone is refused.
        moved = mass[i] + 0.25
        mass[i] -= moved
        mass[(i + 1) % m] += moved
    elif kind.startswith("total"):
        mass[int(np.argmax(mass))] += 2e-9 if kind == "total above" else -2e-9
    elif kind == "NaN mass":
        mass[i] = np.nan
    elif kind.endswith("point") and kind[0] in "Ni":
        support[i, where % n] = np.nan if kind == "NaN point" else np.inf
    else:
        support = support[:-1] if kind == "missing point" else np.vstack([support, support[:1]])
    error, words = LAW_VIOLATIONS[kind]
    with pytest.raises(error, match=words):
        dist(support, mass)


def test_wasserstein_plan_marginals(rng):
    p = random_dist(rng, 3)
    q = random_dist(rng, 4)
    _, plan = wasserstein_exact(p, q, ell=1, return_plan=True)
    assert_plan_marginals(plan, p, q)


def test_wasserstein_matches_permutation_oracle(rng):
    # With equal-size uniform-mass supports the optimal plan is a
    # permutation matrix scaled by 1/m.
    for case in range(25):
        m = 2 + case % 5
        ell = 1 + case % 2
        X = rng.standard_normal((m, 2))
        Y = rng.standard_normal((m, 2))
        p = dist(X, np.full(m, 1.0 / m))
        q = dist(Y, np.full(m, 1.0 / m))
        cost = np.linalg.norm(X[:, None] - Y[None, :], axis=2) ** ell
        best = min(
            sum(cost[i, s[i]] for i in range(m))
            for s in itertools.permutations(range(m))
        )
        expect = (best / m) ** (1.0 / ell)
        assert wasserstein_exact(p, q, ell=ell) == pytest.approx(expect, abs=1e-9)


def vertex_oracle(p, q, ell):
    """Transport LP by brute-force basic-solution enumeration."""
    a, b = p.mass, q.mass
    m, k = len(a), len(b)
    cost = (
        np.linalg.norm(p.support[:, None] - q.support[None, :], axis=2) ** ell
    ).ravel()
    rows = []
    for i in range(m):
        row = np.zeros((m, k))
        row[i] = 1.0
        rows.append(row.ravel())
    for j in range(k - 1):
        col = np.zeros((m, k))
        col[:, j] = 1.0
        rows.append(col.ravel())
    A = np.array(rows)
    rhs = np.concatenate([a, b[:-1]])
    best = np.inf
    for cols in itertools.combinations(range(m * k), m + k - 1):
        sub = A[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        f = np.linalg.solve(sub, rhs)
        if f.min() < -1e-9:
            continue
        best = min(best, cost[list(cols)] @ np.clip(f, 0.0, None))
    return max(best, 0.0) ** (1.0 / ell)


def test_wasserstein_matches_vertex_enumeration(rng):
    for case in range(20):
        p = random_dist(rng, 2 + case % 2)
        q = random_dist(rng, 2 + (case // 2) % 2)
        ell = 1 + case % 2
        expect = vertex_oracle(p, q, ell)
        assert wasserstein_exact(p, q, ell=ell) == pytest.approx(expect, abs=1e-9)


def full_transport_lp(p, q, ell):
    """The whole transportation program in one HiGHS call, which
    wasserstein_exact restricts, kept as its oracle: (value, plan)."""
    a, b = p.mass / p.mass.sum(), q.mass / q.mass.sum()
    m, k = len(a), len(b)
    cost = np.linalg.norm(p.support[:, None, :] - q.support[None, :, :], axis=2) ** ell
    # Row sums, then column sums with the last one dropped as redundant.
    A_eq = scipy.sparse.vstack(
        [
            scipy.sparse.kron(scipy.sparse.eye(m), np.ones((1, k))),
            scipy.sparse.kron(np.ones((1, m)), scipy.sparse.eye(k), format="csr")[:-1],
        ],
        format="csr",
    )
    tol = bounds.TRANSPORT_FEASIBILITY
    res = scipy.optimize.linprog(
        c=cost.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b[:-1]]),
        bounds=(0, None), method="highs",
        options=dict(
            presolve=False, primal_feasibility_tolerance=tol, dual_feasibility_tolerance=tol
        ),
    )
    assert res.success, res.message
    return float(max(res.fun, 0.0) ** (1.0 / ell)), res.x.reshape(m, k)


@pytest.mark.invariant
@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    k=st.integers(1, 3 * bounds.TRANSPORT_NEIGHBOURS),
    n=st.integers(1, 3),
    ell=st.sampled_from([1, 2, 3]),
    duplicates=st.booleans(),
    zeros=st.booleans(),
)
def test_wasserstein_matches_the_full_program(seed, m, k, n, ell, duplicates, zeros):
    # With at most TRANSPORT_NEIGHBOURS targets every cell is active
    # from the start; past that the program opens on a subset of the
    # cells, and the duals decide which others join.  Repeated support
    # points tie costs, and zero masses give empty rows and columns,
    # both degenerate programs.
    rng = np.random.default_rng(seed)

    def law(size):
        points = rng.standard_normal((size, n))
        if duplicates:
            points = points[rng.integers(0, max(size // 2, 1), size)]
        mass = rng.dirichlet(np.ones(size))
        if zeros:
            mass[rng.random(size) < 0.4] = 0.0
            mass[rng.integers(0, size)] += 1.0 - mass.sum()
        return dist(points, mass)

    p, q = law(m), law(k)
    want, _ = full_transport_lp(p, q, ell)
    got, plan = wasserstein_exact(p, q, ell=ell, return_plan=True)
    assert abs(got - want) <= 1e-12 * want
    assert_plan_marginals(plan, p, q)


def test_wasserstein_matches_the_full_program_on_fig4():
    # Up to 462 x 28 cells at t = 6, where the program is restricted.
    model, _ = fig4_model()
    for seed in range(2):
        red = reduce_model(model, 3, seed=seed).reduced
        for x0 in ((1.0, 1.0), (1.0, 0.0)):
            for t in range(1, 7):
                p = transition_kernel_enum(model, np.array(x0), t)
                q = transition_kernel_enum(red, np.array(x0), t)
                want, _ = full_transport_lp(p, q, 2)
                assert abs(wasserstein_exact(p, q, ell=2) - want) <= 1e-12 * want, (seed, x0, t)


def test_wasserstein_carries_masses_below_the_default_highs_tolerance():
    # Dirichlet(0.1) masses, a fifth of them zero, run far below HiGHS's
    # default feasibility tolerance of 1e-7, which let a plan miss them
    # and moved W by up to about 5e-7 relative.
    for seed in range(40):
        rng = np.random.default_rng(seed)

        def law():
            size = rng.integers(1, 40)
            mass = rng.dirichlet(np.full(size, 0.1))
            mass[rng.random(size) < 0.2] = 0.0
            mass[rng.integers(0, size)] += 1.0 - mass.sum()
            return dist(rng.standard_normal((size, 2)), mass)

        p, q = law(), law()
        want, _ = full_transport_lp(p, q, 2)
        got, plan = wasserstein_exact(p, q, ell=2, return_plan=True)
        assert abs(got - want) <= 1e-8 * want, seed
        assert np.abs(plan.sum(axis=1) - p.mass).max() <= 1e-8, seed
        assert np.abs(plan.sum(axis=0) - q.mass).max() <= 1e-8, seed


def test_wasserstein_plans_meet_fig4_marginals_below_the_smallest_mass():
    # HiGHS solves to feasibility tolerances of TRANSPORT_FEASIBILITY =
    # 1e-10, while the smallest fig4 kernel masses are about 1e-6: the
    # plans it returns must carry every mass to within a millionth of
    # the smallest.
    model, _ = fig4_model()
    for seed in range(4):
        red = reduce_model(model, 3, seed=seed).reduced
        for x0 in ((1.0, 1.0), (1.0, -1.0), (1.0, 0.0), (0.0, 1.0)):
            for t in range(1, 7):
                p = transition_kernel_enum(model, np.array(x0), t)
                q = transition_kernel_enum(red, np.array(x0), t)
                _, plan = wasserstein_exact(p, q, ell=2, return_plan=True)
                tol = 1e-6 * min(p.mass.min(), q.mass.min())
                assert np.abs(plan.sum(axis=1) - p.mass).max() <= tol, (seed, x0, t)
                assert np.abs(plan.sum(axis=0) - q.mass).max() <= tol, (seed, x0, t)
                assert plan.min() >= -tol, (seed, x0, t)


def test_wasserstein_adds_cells_the_duals_price_below_zero():
    # Half the mass sits on a target far from every source, listed
    # first, next to eight light targets, each nearer to every source;
    # only the staircase reaches the far target at first, from the
    # first sources, but the last ones are nearer to it.
    sources = np.column_stack([0.1 * np.arange(5), np.zeros(5)])
    light = np.column_stack([0.07 * np.arange(8), np.full(8, 0.05)])
    p = dist(sources, np.full(5, 0.2))
    q = dist(np.vstack([[100.0, 0.0], light]), np.r_[0.5, np.full(8, 0.5 / 8)])
    for ell in (1, 2):
        with mock.patch.object(bounds, "_transport_solve", wraps=bounds._transport_solve) as spy:
            got, plan = wasserstein_exact(p, q, ell=ell, return_plan=True)
        assert spy.call_count >= 2
        want, _ = full_transport_lp(p, q, ell)
        assert abs(got - want) <= 1e-12 * want
        assert_plan_marginals(plan, p, q)


def test_wasserstein_failure_is_a_computation_error():
    # A model status other than optimal raises, with HiGHS's own words.
    highs = bounds._highs
    solver_class = highs._Highs
    stalled = highs.HighsModelStatus.kIterationLimit

    class Stalled:
        def __init__(self):
            self.solver = solver_class()

        def __getattr__(self, name):
            return getattr(self.solver, name)

        def getModelStatus(self):
            return stalled

    message = solver_class().modelStatusToString(stalled)
    assert message
    p = dist([[0.0], [1.0]], [0.5, 0.5])
    with mock.patch.object(highs, "_Highs", Stalled):
        with pytest.raises(NotConverged, match=message) as caught:
            wasserstein_exact(p, p)
    assert isinstance(caught.value, ComputationError)


def test_wasserstein_prints_nothing(capfd):
    # HiGHS logs to the console unless told not to; the benchmark reads
    # its result from the last line of stdout.
    model, _ = fig4_model()
    red = reduce_model(model, 3, seed=0).reduced
    x0 = np.array([1.0, 1.0])
    p = transition_kernel_enum(model, x0, 6)
    q = transition_kernel_enum(red, x0, 6)
    capfd.readouterr()
    wasserstein_exact(p, q, ell=2)
    assert capfd.readouterr() == ("", "")


@pytest.mark.invariant
def test_wasserstein_triangle_inequality(rng):
    for _ in range(10):
        p = random_dist(rng, 3)
        q = random_dist(rng, 4)
        r = random_dist(rng, 3)
        for ell in (1, 2):
            d_pr = wasserstein_exact(p, r, ell=ell)
            d_pq = wasserstein_exact(p, q, ell=ell)
            d_qr = wasserstein_exact(q, r, ell=ell)
            assert d_pr <= d_pq + d_qr + 1e-9


@pytest.mark.invariant
def test_moment_bounds_sandwich_w2(rng):
    for _ in range(10):
        p = random_dist(rng, 4)
        q = random_dist(rng, 5)
        w2 = wasserstein_exact(p, q, ell=2)
        mp, mq = (k.mass @ k.support for k in (p, q))
        assert np.linalg.norm(mp - mq) <= w2 + 1e-9
        assert w2_moment_lower_bound(p, q) <= w2 + 1e-9


@pytest.mark.invariant
@pytest.mark.parametrize("branch", ["aggregatable", "lumpable"])
def test_kernels_coincide_at_exact_reducibility(branch):
    model, partition, _ = generate(
        SynthConfig(4, 2, 2, 0, branch=branch, seed=17)
    )
    red = average_model(model, partition)
    x0 = np.ones(2)
    for t in range(1, 6):
        # Each chain starts from its own stationary law; at exact
        # reducibility the reduced one is the lumped law of the full one.
        k_full = transition_kernel_enum(model, x0, t)
        k_red = transition_kernel_enum(red, x0, t)
        assert wasserstein_exact(k_full, k_red, ell=1) <= 1e-9


def test_mss_traj_bound_formula():
    b = reference_inputs()
    assert mss_traj_bound(b, 0) == 0.0
    for t in (1, 3, 10):
        r0 = 0.5 * (1.0 + b.rho)
        drive = b.a_bar * b.T_norm * b.eps_A
        expect = 4.0 * np.sqrt(b.n * np.sqrt(b.s)) * b.tau * (
            r0 ** ((t - 1) / 2.0) * np.sqrt(t * drive) * b.x0_norm
        )
        assert mss_traj_bound(b, t) == pytest.approx(expect, rel=1e-12)
    expect2 = (
        4.0
        * np.sqrt(b.n * np.sqrt(b.s))
        * b.tau
        * np.sqrt(0.95) ** 1
        * np.sqrt(2 * b.a_bar * b.T_norm * b.eps_A)
        * b.x0_norm
    )
    assert mss_traj_bound(b, 2) == pytest.approx(expect2, rel=1e-12)


@pytest.mark.parametrize("t", [-1, 2.5, 3.0, True, float("nan")])
def test_bound_horizons_take_only_integer_counts(t):
    # t = -1 gave NaN with a RuntimeWarning (mss) or 0.0 (us), and
    # t = 2.5 was evaluated without complaint.
    b = reference_inputs()
    for bound in (mss_traj_bound, us_traj_bound, wasserstein_kernel_bound):
        with pytest.raises(DimensionMismatch, match="t must be an integer"):
            bound(b, t)
    assert us_traj_bound(b, np.int64(2)) == us_traj_bound(b, 2)


def test_us_traj_bound_formula():
    b = reference_inputs()
    x0 = 0.5 * (1.0 + b.xi)
    for t in (1, 4):
        term1 = t * x0 ** (t - 1) * b.kappa**2 * b.x0_norm * b.eps_A
        assert us_traj_bound(b, t) == pytest.approx(term1, rel=1e-12)
    assert us_traj_bound(b, 0) == 0.0


def test_wasserstein_kernel_bound_formula():
    b = reference_inputs()
    x0 = 0.5 * (1.0 + b.xi)
    for t, ell in ((1, 1), (2, 1), (4, 2)):
        term1 = t * x0 ** (t - 1) * b.kappa**2 * b.x0_norm * b.eps_A
        term2 = (
            2.0 * b.r**2 * t * b.kappa * b.x0_norm * b.r**t
            * (b.kappa * b.eps_A + b.xi) ** t
            * (b.t_bar + b.eps_T) ** ((t - 2.0) / ell)
            * b.eps_T ** (1.0 / ell)
        )
        assert wasserstein_kernel_bound(b, t, ell=ell) == pytest.approx(
            term1 + term2, rel=1e-12
        )
    lumped_clean = reference_inputs(eps_T=0.0)
    only1 = 1 * x0**0 * b.kappa**2 * b.x0_norm * b.eps_A
    assert wasserstein_kernel_bound(lumped_clean, 1) == pytest.approx(
        only1, rel=1e-12
    )
    assert wasserstein_kernel_bound(b, 0) == 0.0
    # Without a transition perturbation the bound is the trajectory bound.
    for t in range(6):
        assert wasserstein_kernel_bound(lumped_clean, t) == us_traj_bound(lumped_clean, t)


def test_premise_checks():
    good = reference_inputs(eps_A=1e-4, eps_B=1e-4, eps_T=0.0, xi=0.9)
    ok, reasons = mss_premises(good)
    assert ok and reasons == []
    ok, reasons = us_premises(good)
    assert ok and reasons == []
    unstable = reference_inputs(rho=1.0, xi=1.0)
    ok, reasons = mss_premises(unstable)
    assert not ok and any("not below 1" in r for r in reasons)
    ok, reasons = us_premises(unstable)
    assert not ok and any("not below 1" in r for r in reasons)
    rough = reference_inputs(eps_A=10.0, eps_B=10.0)
    ok, reasons = mss_premises(rough)
    assert not ok and len(reasons) == 2
    assert all("exceeds" in r for r in reasons)
    ok, reasons = us_premises(rough)
    assert not ok and len(reasons) == 2


def test_premises_with_zero_dynamics():
    # Every A_i = 0 makes a_bar = 0; the eps_A cap is then 0, not a
    # division by zero.
    b = BoundInputs.from_model(
        three_state_model(), Partition([[0, 1], [2]]), "lumpable", x0=np.ones(2)
    )
    assert b.a_bar == 0.0 and b.eps_A == 0.0
    ok, reasons = mss_premises(b)
    assert ok and reasons == []
    ok, reasons = mss_premises(dataclasses.replace(b, eps_A=1e-3))
    assert not ok and reasons == ["eps_A = 0.001 exceeds 0"]


def test_inputs_from_model_fig4():
    model, partition = fig4_model()
    b = BoundInputs.from_model(model, partition, "aggregatable", x0=np.ones(2))
    assert (b.n, b.s, b.r) == (2, 6, 3)
    assert b.a_bar == pytest.approx(1.3, abs=1e-12)
    assert b.b_bar == 0.0
    assert b.t_bar == 0.2
    assert b.x0_norm == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert b.eps_A == pytest.approx(1.2 * np.sqrt(2.0), rel=1e-12)
    assert b.eps_T <= 1e-12
    assert b.rho == pytest.approx(min(1.01 * 0.954, 0.5 * 1.954), abs=1e-9)
    assert b.T_norm == pytest.approx(np.linalg.norm(model.T, 2), rel=1e-15)
    assert b.rho0 == pytest.approx(0.5 * (1.0 + b.rho), rel=1e-15)


def test_inputs_from_model_refuse_the_partition_before_the_report():
    model, _ = fig4_model()
    with mock.patch.object(bounds, "stability_report") as report:
        with pytest.raises(PartitionMismatch):
            BoundInputs.from_model(model, Partition.uniform(4, 2), "aggregatable", x0=np.ones(2))
    report.assert_not_called()


def test_empirical_traj_diff_reducible():
    model, partition, _ = generate(
        SynthConfig(6, 3, 2, 0, branch="aggregatable", seed=3)
    )
    red = average_model(model, partition)
    stats = empirical_traj_diff(
        model, red, partition, np.ones(2), 12, 8, seed=1
    )
    assert stats.t.shape == (13,)
    assert stats.n_traj == 8
    assert np.all(stats.mean_diff <= stats.max_diff + 1e-15)
    assert stats.max_diff.max() <= 1e-10
