import json
import tempfile
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    PARTITION_LABELS,
    THREE_STATE_T,
    closed_loop,
    random_model,
    random_partition,
    three_state_model,
)
from mjsreduce.cli import _load_partition
from mjsreduce.clustering import average_model, reduce_model
from mjsreduce.errors import (
    DimensionMismatch,
    InputError,
    NotErgodic,
    PartitionMismatch,
)
from mjsreduce.model import (
    MjsModel,
    Partition,
    _batch_modes,
    expand_reduced,
    load_model,
    model_to_dict,
    save_model,
    simulate_coupled_batch,
)
from mjsreduce.synth import SynthConfig, fig4_model, generate
from mjsreduce.bounds import BoundInputs, empirical_traj_diff, transition_kernel_enum
from mjsreduce.lqr import (
    closed_loop_average_cost,
    lift_gains,
    monte_carlo_cost,
    riccati_solve,
)
from mjsreduce.perturbation import mr_bound


def test_model_shapes():
    m = three_state_model()
    assert (m.s, m.n, m.p) == (3, 2, 0)
    m2 = MjsModel(np.zeros((2, 3, 3)), np.zeros((2, 3, 1)), np.eye(2))
    assert (m2.s, m2.n, m2.p) == (2, 3, 1)


def test_model_arrays_are_read_only():
    m = three_state_model()
    with pytest.raises(ValueError):
        m.T[0, 0] = 0.5
    with pytest.raises(AttributeError):
        m.T = np.eye(3)


def test_model_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        MjsModel(np.zeros((2, 2, 3)), None, np.eye(2))
    with pytest.raises(DimensionMismatch):
        MjsModel(np.zeros((2, 2, 2)), np.zeros((3, 2, 1)), np.eye(2))
    with pytest.raises(DimensionMismatch):
        MjsModel(np.zeros((2, 2, 2)), None, np.eye(3))
    # No state: every analysis would divide by or index into nothing.
    with pytest.raises(DimensionMismatch, match="n >= 1"):
        MjsModel(np.zeros((4, 0, 0)), np.zeros((4, 0, 0)), np.full((4, 4), 0.25))
    # No mode: pi, the reductions and the stability checks had nothing
    # to work on, and save_model wrote a file load_model refused.
    with pytest.raises(DimensionMismatch, match="s, n >= 1"):
        MjsModel(np.zeros((0, 2, 2)), None, np.zeros((0, 0)))


def test_model_refuses_value_violations():
    # load_model, and so the CLI after "InputError: ", prints these words.
    three_state_model()  # a chain passes
    with pytest.raises(InputError, match=r"^invalid model: T\(0,1\) = -0.2 is negative$"):
        MjsModel(np.zeros((2, 1, 1)), None, [[1.2, -0.2], [0.5, 0.5]])
    with pytest.raises(InputError, match=r"^invalid model: T row 0 sums to 1.2$"):
        MjsModel(np.zeros((2, 1, 1)), None, [[0.6, 0.6], [0.5, 0.5]])
    with pytest.raises(InputError, match=r"^invalid model: A contains non-finite entries$"):
        MjsModel(np.full((1, 1, 1), np.nan), None, [[1.0]])
    # Every violation is listed, in the order A, B, T.
    with pytest.raises(
        InputError,
        match=r"^invalid model: A contains non-finite entries; B contains non-finite "
        r"entries; T row 1 sums to 0$",
    ):
        MjsModel(np.full((2, 1, 1), np.inf), np.full((2, 1, 1), np.nan), [[1.0, 0.0], [0.0, 0.0]])


# One violation per kind, injected at entry (i, j) of a valid model, and
# the words InputError must name it with.
MODEL_VIOLATIONS = {
    "negative T": ("T", -0.25, r"T\({i},{j}\) = -0.25 is negative"),
    "NaN T": ("T", np.nan, "T contains non-finite entries"),
    "inf T": ("T", np.inf, "T contains non-finite entries"),
    "row sum": ("T", 2e-9, r"T row {i} sums to"),
    "NaN A": ("A", np.nan, "A contains non-finite entries"),
    "inf A": ("A", -np.inf, "A contains non-finite entries"),
    "NaN B": ("B", np.nan, "B contains non-finite entries"),
    "inf B": ("B", np.inf, "B contains non-finite entries"),
}


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 5),
    n=st.integers(1, 3),
    p=st.integers(1, 2),
    kind=st.sampled_from(sorted(MODEL_VIOLATIONS)),
    where=st.integers(0, 2**16),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_model_refuses_each_injected_violation(seed, s, n, p, kind, where, sign):
    rng = np.random.default_rng(seed)
    arrays = {
        "A": rng.standard_normal((s, n, n)),
        "B": rng.standard_normal((s, n, p)),
        "T": rng.dirichlet(np.ones(s), size=s),
    }
    i, j = divmod(where % (s * s), s)
    # Rows within 1e-9 of 1, from either side, are a chain.
    near = arrays["T"].copy()
    near[i, j] += sign * 5e-10 if near[i, j] >= 5e-10 else 5e-10
    MjsModel(arrays["A"], arrays["B"], near)
    name, value, words = MODEL_VIOLATIONS[kind]
    M = arrays[name]
    if kind == "row sum":
        M[i, j] += sign * value if M[i, j] >= value else value
    else:
        M.reshape(s, -1)[i, where % M[i].size] = value
    with pytest.raises(InputError, match="^invalid model: .*" + words.format(i=i, j=j)):
        MjsModel(arrays["A"], arrays["B"], arrays["T"])


def chain(T):
    T = np.asarray(T, dtype=float)
    return MjsModel(np.zeros((len(T), 1, 1)), None, T)


def test_is_ergodic_cases():
    for T in (THREE_STATE_T, [[0.5, 0.5], [0.5, 0.5]]):
        assert chain(T).pi.shape == (len(T),)
    # The identity and the periodic two-cycle: no power is entrywise positive.
    for T in (np.eye(2), [[0.0, 1.0], [1.0, 0.0]]):
        with pytest.raises(NotErgodic):
            chain(T).pi


def test_stationary_distribution_matches_power_iteration():
    # Oracle: 10^4 steps of the power recursion from the uniform start.
    pi = np.full(3, 1.0 / 3.0)
    for _ in range(10_000):
        pi = pi @ THREE_STATE_T
        pi /= pi.sum()
    pi_hat = chain(THREE_STATE_T).pi
    assert np.abs(pi_hat - pi).max() <= 1e-10
    assert abs(pi_hat.sum() - 1.0) <= 1e-12


def test_stationary_distribution_rejects_non_ergodic():
    with pytest.raises(NotErgodic):
        chain(np.eye(3)).pi


def test_model_pi_is_the_read_only_stationary_law():
    m = three_state_model()
    assert np.array_equal(m.pi, chain(m.T).pi)
    assert m.pi is m.pi
    with pytest.raises(ValueError):
        m.pi[0] = 0.5


def test_model_pi_refuses_a_non_ergodic_chain_on_every_access():
    m = MjsModel(np.zeros((3, 1, 1)), None, np.eye(3))
    for _ in range(2):
        with pytest.raises(NotErgodic):
            m.pi


def test_stationary_law_is_computed_once_per_model(monkeypatch):
    # Across a reduction, its bound, a regulator and a simulation, the
    # stationary law is computed once, for the one model that needs it.
    model, _, _ = generate(SynthConfig(4, 2, 2, 1, eps_A=0.1, seed=8))
    calls = []
    law = MjsModel.__dict__["pi"].func

    def counted(self):
        calls.append(self)
        return law(self)

    pi = cached_property(counted)
    pi.__set_name__(MjsModel, "pi")
    monkeypatch.setattr(MjsModel, "pi", pi)
    Q, R = np.eye(2), np.eye(1)
    res = reduce_model(model, 2, branch=None, seed=0)
    mr_bound(model, res.partition, "lumpable")
    closed_loop_average_cost(model, riccati_solve(model, Q, R).K, Q, R, 0.1)
    simulate_coupled_batch(model, model, singletons(model), np.ones(2), 5, 2, seed=0)
    assert len(calls) == 1


def test_partition_canonical_order():
    p = Partition([[4, 5], [2, 3], [0, 1]])
    assert p.clusters == ((0, 1), (2, 3), (4, 5))
    assert p == Partition([[0, 1], [2, 3], [4, 5]])
    assert p.labels[3] == 1
    assert p.sizes == (2, 2, 2)


def test_partition_hashes_and_prints_by_its_clusters():
    p = Partition([[2, 3], [0, 1]])
    assert hash(p) == hash(Partition.from_labels([0, 0, 1, 1]))
    assert len({p, Partition.from_labels([0, 0, 1, 1]), Partition([[0], [1, 2, 3]])}) == 2
    assert repr(p) == "Partition([[0, 1], [2, 3]])"


def test_partition_from_labels_and_uniform():
    p = Partition.from_labels([1, 0, 1, 0])
    assert p.clusters == ((0, 2), (1, 3))
    u = Partition.uniform(6, 3)
    assert u.clusters == ((0, 1), (2, 3), (4, 5))
    with pytest.raises(PartitionMismatch):
        Partition.uniform(7, 3)


@pytest.mark.parametrize("s, r", [(4, 0), (5, 2.5), (0, 1), (4, -2), (4.0, 2), (True, 1)])
def test_uniform_partition_takes_only_positive_integer_counts(s, r):
    # r = 0 divided by zero and r = 2.5 ended in a bare TypeError.
    with pytest.raises(DimensionMismatch):
        Partition.uniform(s, r)


def test_partition_one_based_round_trip():
    p = Partition([[0, 2], [1]])
    lists = p.to_lists_1based()
    assert lists == [[1, 3], [2]]
    assert Partition.from_lists_1based(lists) == p


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    labels=PARTITION_LABELS,
    trailing=st.sampled_from([(), (1,), (3,), (1, 1), (2, 2), (2, 0), (4, 3)]),
)
def test_cluster_aggregates_match_one_cluster_reductions(seed, labels, trailing):
    # Each cluster's result equals the reduction over that cluster alone,
    # bit for bit, whatever the stacking of equal-size clusters.
    rng = np.random.default_rng(seed)
    part = Partition.from_labels(labels)
    X = rng.standard_normal((part.s,) + trailing)
    weights = rng.random(part.s)
    means = part.cluster_means(X)
    weighted = part.cluster_means(X, weights)
    M = rng.standard_normal(trailing + (part.s,))
    sums = part.block_sums(M)
    assert means.shape == weighted.shape == (part.r,) + trailing
    assert sums.shape == trailing + (part.r,)
    for k, c in enumerate(part.clusters):
        idx = list(c)
        w = weights[idx] / weights[idx].sum()
        assert np.array_equal(means[k], X[idx].mean(axis=0))
        assert np.array_equal(weighted[k], np.einsum("i,i...->...", w, X[idx]))
        rows = M.reshape(-1, part.s)
        want = np.array([row[idx].sum() for row in rows]).reshape(trailing)
        assert np.array_equal(sums[..., k], want)


def test_partition_rejects_bad_covers():
    with pytest.raises(PartitionMismatch):
        Partition([[0, 1], [1, 2]])  # overlap
    with pytest.raises(PartitionMismatch):
        Partition([[0], [2]])  # gap
    with pytest.raises(PartitionMismatch):
        Partition([[0], []])  # empty cluster


def test_partition_refuses_fractional_mode_numbers():
    # Truncating would read [[0.5], [1.7]] as [[0], [1]].
    with pytest.raises(InputError, match="must be integers"):
        Partition([[0.5], [1.7]])
    with pytest.raises(InputError, match="must be integers"):
        Partition.from_lists_1based([[1.5], [2]])
    assert Partition([[0.0], [np.float64(1.0)]]) == Partition([[0], [1]])


@pytest.mark.parametrize("bad", [True, False, np.True_, np.False_])
def test_partition_refuses_boolean_mode_numbers(bad):
    # bool is an int subclass: True would read as mode 1, and 1-based
    # True - 1 as mode 0.
    with pytest.raises(InputError, match="must be integers"):
        Partition([[bad, 2], [3, 0]])
    with pytest.raises(InputError, match="must be integers"):
        Partition.from_lists_1based([[bad, 2], [3, 4]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_partition_refuses_non_finite_mode_numbers(bad):
    # int() of these raises ValueError or OverflowError of its own.
    with pytest.raises(InputError, match="must be integers"):
        Partition([[bad], [1]])
    with pytest.raises(InputError, match="must be integers"):
        Partition.from_lists_1based([[bad], [2]])


def singletons(model):
    return Partition.from_labels(np.arange(model.s))


def test_simulate_horizon_zero():
    m = three_state_model()
    states, red_states, modes = simulate_coupled_batch(m, m, singletons(m), [1.0, 2.0], 0, 3, seed=0)
    assert states.shape == red_states.shape == (3, 1, 2)
    assert modes.shape == (3, 0)
    assert np.array_equal(states[:, 0], np.tile([1.0, 2.0], (3, 1)))


@pytest.mark.parametrize(
    "horizon, n_traj", [(-1, 2), (2.0, 2), (3, 2.5), (3, 0), (3, True)]
)
def test_simulate_takes_only_integer_counts(horizon, n_traj):
    m = three_state_model()
    with pytest.raises(DimensionMismatch, match="must be an integer of at least"):
        simulate_coupled_batch(m, m, singletons(m), [1.0, 2.0], horizon, n_traj, seed=0)


def test_simulate_rejects_bad_x0():
    m = three_state_model()
    with pytest.raises(DimensionMismatch):
        simulate_coupled_batch(m, m, singletons(m), [[1.0, 2.0]], 3, 2, seed=0)


@pytest.mark.invariant
def test_simulate_determinism_bit_identical(rng):
    m = random_model(rng, s=3, n=2, p=0)
    part = Partition([[0], [1, 2]])
    red = random_model(rng, s=2, n=2, p=0)
    a, b = (
        simulate_coupled_batch(m, red, part, [1.0, -1.0], 9, 5, seed=5)
        for _ in range(2)
    )
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_simulate_injected_modes_match_matrix_product():
    # Diagonal powers of two and a permutation multiply exactly.
    A = np.stack([np.diag([2.0, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    m = MjsModel(A, None, np.full((2, 2), 0.5))
    x0 = np.array([1.0, 3.0])
    states, red_states, modes = simulate_coupled_batch(m, m, singletons(m), x0, 6, 4, seed=0)
    for b in range(4):
        x = x0
        for t, w in enumerate(modes[b]):
            x = A[w] @ x
            assert np.array_equal(states[b, t + 1], x)
    assert np.array_equal(red_states, states)


def assert_rel_close(got, want):
    # 1e-12 relative to the largest state of the oracle path.
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max(initial=0.0))


def loop_coupled(model, reduced, partition, x0, horizon, n_traj, seed=None):
    """Per-path, per-step reference for simulate_coupled_batch,
    independent of the rollout kernel: the same mode paths, one
    matrix-vector product per system, path and step."""
    rng = np.random.default_rng(seed)
    modes = _batch_modes(rng, model, n_traj, horizon)
    systems = ((model.A, modes), (reduced.A, partition.labels[modes]))
    states = np.empty((2, n_traj, horizon + 1, model.n))
    states[:, :, 0] = x0
    for t in range(horizon):
        for c, (A, w) in enumerate(systems):
            for b in range(n_traj):
                states[c, b, t + 1] = A[w[b, t]] @ states[c, b, t]
    return states, modes


@pytest.mark.invariant
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 6),
    n=st.integers(1, 4),
    horizon=st.integers(0, 12),
    n_traj=st.integers(1, 6),
)
def test_batched_paths_match_the_scalar_oracle(seed, s, n, horizon, n_traj):
    rng = np.random.default_rng(seed)
    model = random_model(rng, s=s, n=n, p=0, a_scale=rng.uniform(0.1, 1.5))
    x0 = rng.standard_normal(n)
    part = random_partition(rng, s, int(rng.integers(1, s + 1)))
    reduced = random_model(rng, s=part.r, n=n, p=0)
    full, red, modes = simulate_coupled_batch(
        model, reduced, part, x0, horizon, n_traj, seed=seed
    )
    oracle, oracle_modes = loop_coupled(model, reduced, part, x0, horizon, n_traj, seed=seed)
    assert np.array_equal(modes, oracle_modes)
    assert_rel_close(full, oracle[0])
    assert_rel_close(red, oracle[1])


@pytest.mark.invariant
@settings(max_examples=60, deadline=None)
@example(seed=0, s=1, n=1, p=0, horizon=0, n_traj=1)
@example(seed=1, s=3, n=2, p=2, horizon=5, n_traj=3)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 5),
    n=st.integers(1, 4),
    p=st.integers(0, 3),
    horizon=st.integers(0, 12),
    n_traj=st.integers(1, 4),
)
def test_kernel_runs_match_the_loop_oracles(seed, s, n, p, horizon, n_traj):
    # Closed loops u = K x and u = K_red x.
    rng = np.random.default_rng(seed)
    model = random_model(rng, s=s, n=n, p=p, a_scale=rng.uniform(0.1, 1.2))
    part = random_partition(rng, s, int(rng.integers(1, s + 1)))
    reduced = random_model(rng, s=part.r, n=n, p=p)
    model = closed_loop(model, 0.3 * rng.standard_normal((s, p, n)))
    reduced = closed_loop(reduced, 0.3 * rng.standard_normal((part.r, p, n)))
    x0 = rng.standard_normal(n)
    full, red, modes = simulate_coupled_batch(model, reduced, part, x0, horizon, n_traj, seed=seed)
    oracle, oracle_modes = loop_coupled(model, reduced, part, x0, horizon, n_traj, seed=seed)
    assert np.array_equal(modes, oracle_modes)
    assert_rel_close(full, oracle[0])
    assert_rel_close(red, oracle[1])


@pytest.mark.invariant
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 6),
    horizon=st.integers(1, 15),
    n_traj=st.integers(1, 4),
)
def test_scalar_and_batched_runs_share_the_sampler(seed, s, horizon, n_traj):
    # simulate_coupled_batch and monte_carlo_cost draw the same mode
    # paths from one seed, so without noise the stage cost averaged over
    # the simulated states is the Monte Carlo cost.
    rng = np.random.default_rng(seed)
    model = random_model(rng, s=s, n=2, p=0)
    x0 = rng.standard_normal(2)
    states, red_states, modes = simulate_coupled_batch(
        model, model, singletons(model), x0, horizon, n_traj, seed=seed
    )
    assert np.array_equal(modes, _batch_modes(np.random.default_rng(seed), model, n_traj, horizon))
    assert np.array_equal(red_states, states)
    mc = monte_carlo_cost(
        model, np.zeros((s, 0, 2)), np.eye(2), np.zeros((0, 0)), 0.0, horizon, n_traj,
        seed=seed, x0=x0,
    )
    per_traj = (states[:, :horizon] ** 2).sum(axis=(1, 2)) / horizon
    assert mc.value == pytest.approx(per_traj.mean(), rel=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_every_simulator_refuses_a_bad_noise_level(bad):
    # monte_carlo_cost is the one simulator that adds noise.
    m = three_state_model()
    with pytest.raises(InputError, match="sigma_w must be finite and nonnegative"):
        monte_carlo_cost(m, np.zeros((3, 0, 2)), np.eye(2), np.zeros((0, 0)), bad, 3, 2)


def test_coupled_runs_reject_unlinked_models():
    m, part, x0 = three_state_model(), Partition([[0], [1, 2]]), np.ones(2)
    other_n = MjsModel(np.zeros((2, 3, 3)), None, np.full((2, 2), 0.5))
    other_r = MjsModel(np.zeros((3, 2, 2)), None, np.full((3, 3), 1 / 3))
    with pytest.raises(DimensionMismatch):
        simulate_coupled_batch(m, other_n, part, x0, 3, 2, seed=0)
    with pytest.raises(PartitionMismatch):
        simulate_coupled_batch(m, other_r, part, x0, 3, 2, seed=0)


@pytest.mark.parametrize(
    "run",
    [
        lambda m, part, x0: simulate_coupled_batch(m, m, part, x0, 3, 2, seed=0),
        lambda m, part, x0: monte_carlo_cost(
            m, np.zeros((3, 0, 2)), np.eye(2), np.zeros((0, 0)), 0.1, 3, 2, x0=x0
        ),
        lambda m, part, x0: empirical_traj_diff(m, m, part, x0, 3, 2, seed=0),
    ],
    ids=["simulate_coupled_batch", "monte_carlo_cost", "empirical_traj_diff"],
)
def test_batched_runs_reject_a_wrong_x0_length(run):
    m = three_state_model()
    with pytest.raises(DimensionMismatch):
        run(m, singletons(m), np.ones(m.n + 1))


@pytest.mark.parametrize(
    "run",
    [
        lambda m, part, x0: transition_kernel_enum(m, x0, 0),
        lambda m, part, x0: transition_kernel_enum(m, x0, 2),
        lambda m, part, x0: BoundInputs.from_model(m, part, "aggregatable", x0),
    ],
    ids=[
        "transition_kernel_enum-t0",
        "transition_kernel_enum-t2",
        "BoundInputs.from_model",
    ],
)
def test_every_x0_entry_point_refuses_a_wrong_length(run):
    m, part = fig4_model()
    with pytest.raises(DimensionMismatch, match="x0 must have shape"):
        run(m, part, np.ones(m.n + 1))


@pytest.mark.parametrize(
    "run",
    [
        lambda m, part, x0: BoundInputs.from_model(m, part, "aggregatable", x0),
        lambda m, part, x0: transition_kernel_enum(m, x0, 2),
        lambda m, part, x0: simulate_coupled_batch(m, m, singletons(m), x0, 3, 2, seed=0),
        lambda m, part, x0: monte_carlo_cost(
            m, np.zeros((m.s, m.p, m.n)), np.eye(m.n), np.zeros((m.p, m.p)), 0.1, 3, 2, x0=x0
        ),
    ],
    ids=["BoundInputs.from_model", "transition_kernel_enum", "simulate_coupled_batch", "monte_carlo_cost"],
)
@pytest.mark.parametrize("x0", [[np.nan, 1.0], [1.0, -np.inf]], ids=["nan", "-inf"])
def test_every_x0_entry_point_refuses_an_x0_that_is_not_finite(run, x0):
    # NaN got through: the kernel walk raised DegenerateInput, every
    # trajectory bound was nan, and the simulators ran nan states.
    m, part = fig4_model()
    with pytest.raises(InputError, match="x0 must be finite"):
        run(m, part, np.array(x0))


def test_mode_sampler_skips_zero_probability_modes():
    # A draw of exactly 0 equals the cumulative entry of a leading mode of
    # probability zero, which must not be picked: from uniform pi the
    # path starts in mode 0, then never repeats a mode.
    class Zeros:
        def random(self, size):
            return np.zeros(size)

    T = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    m = MjsModel(np.zeros((3, 1, 1)), None, T)
    assert np.all(_batch_modes(Zeros(), m, 2, 4) == [0, 1, 0, 1])


def count_rule_modes(rng, chain, n_traj, horizon):
    """The sampler's rule stated as compare-and-sum, the oracle of
    _batch_modes: over the same uniforms, the next mode is the count of
    normalized cdf entries <= u, capped at s - 1."""
    s = chain.s
    cdf = np.cumsum(np.vstack([chain.T, chain.pi]), axis=1)
    cdf = cdf / cdf[:, -1:]
    modes = np.empty((n_traj, horizon), dtype=int)
    prev = np.full(n_traj, s)
    for t in range(horizon):
        u = rng.random(n_traj)
        modes[:, t] = np.minimum((cdf[prev] <= u[:, None]).sum(axis=1), s - 1)
        prev = modes[:, t]
    return modes


class PooledUniforms:
    """A generator whose draws come from a fixed pool of values in
    [0, 1): with the chain's cdf entries in the pool, many draws tie an
    entry exactly."""

    def __init__(self, seed, pool):
        self.rng, self.pool = np.random.default_rng(seed), np.asarray(pool)

    def random(self, size):
        return self.rng.choice(self.pool, size)


def sampler_chain(seed, s, zeros, saturated, hair):
    """A chain and an initial law, as _batch_modes reads them (T, pi,
    s), with about a share `zeros` of zero entries; `saturated` puts all
    of one row's mass on one mode, and `hair` leaves every row and the
    law summing a few units of roundoff under 1."""
    rng = np.random.default_rng(seed)
    T = rng.uniform(0.05, 1.0, (s + 1, s))
    T[rng.random((s + 1, s)) < zeros] = 0.0
    T[np.arange(s + 1), rng.integers(0, s, s + 1)] += 0.5
    if saturated:
        row = rng.integers(0, s + 1)
        T[row] = 0.0
        T[row, rng.integers(0, s)] = 1.0
    T /= T.sum(axis=1, keepdims=True)
    if hair:
        T *= 1.0 - rng.integers(1, 9, (s + 1, 1)) * 2.0**-53
    return SimpleNamespace(T=T[:s], pi=T[s], s=s)


@pytest.mark.invariant
@settings(max_examples=80, deadline=None)
@example(seed=0, s=40, zeros=0.6, saturated=True, hair=True, tied=True, horizon=30, n_traj=8)
@example(seed=1, s=1, zeros=0.0, saturated=False, hair=False, tied=False, horizon=5, n_traj=2)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 40),
    zeros=st.sampled_from([0.0, 0.3, 0.8]),
    saturated=st.booleans(),
    hair=st.booleans(),
    tied=st.booleans(),
    horizon=st.integers(0, 30),
    n_traj=st.integers(1, 8),
)
def test_mode_paths_match_the_count_rule(seed, s, zeros, saturated, hair, tied, horizon, n_traj):
    # Bit-equal paths from the same uniforms, fresh ones or ones that tie
    # the cdf entries, 0 and the largest double below 1; and no step
    # takes a transition of probability zero.
    chain = sampler_chain(seed, s, zeros, saturated, hair)
    if tied:
        cdf = np.cumsum(np.vstack([chain.T, chain.pi]), axis=1)
        cdf = (cdf / cdf[:, -1:]).ravel()
        pool = np.concatenate([cdf[cdf < 1.0], [0.0, np.nextafter(1.0, 0.0)]])
        draws = lambda: PooledUniforms(seed, pool)
    else:
        draws = lambda: np.random.default_rng(seed)
    got = _batch_modes(draws(), chain, n_traj, horizon)
    assert np.array_equal(got, count_rule_modes(draws(), chain, n_traj, horizon))
    if horizon:
        assert np.all(chain.pi[got[:, 0]] > 0.0)
        assert np.all(chain.T[got[:, :-1], got[:, 1:]] > 0.0)


@pytest.mark.invariant
def test_markov_frequencies_match_transition_matrix():
    # Entrywise tolerance 3 / sqrt(N pi_min) over N >= 1e5 steps.
    m = three_state_model()
    N = 100_000
    (modes,) = _batch_modes(np.random.default_rng(123), m, 1, N)
    counts = np.zeros((3, 3))
    np.add.at(counts, (modes[:-1], modes[1:]), 1.0)
    freq = counts / counts.sum(axis=1, keepdims=True)
    tol = 3.0 / np.sqrt(N * m.pi.min())
    assert np.abs(freq - m.T).max() <= tol


@pytest.mark.invariant
@pytest.mark.parametrize("branch", ["aggregatable", "lumpable"])
def test_coupled_runs_agree_on_reducible_models(branch):
    # Exactly reducible instances: under the reduced regulator, lifted
    # to the full modes, the reduced closed loop tracks the full one
    # along any shared mode path.
    model, part, _ = generate(
        SynthConfig(8, 2, 3, 2, branch=branch, seed=11)
    )
    reduced = average_model(model, part)
    K = riccati_solve(reduced, np.eye(3), np.eye(2)).K
    x0 = np.array([1.0, -2.0, 0.5])
    states, red_states, _ = simulate_coupled_batch(
        closed_loop(model, lift_gains(K, part)), closed_loop(reduced, K), part,
        x0, 50, 8, seed=9,
    )
    assert np.linalg.norm(states - red_states, axis=2).max() <= 1e-10 * np.linalg.norm(x0)


@pytest.mark.invariant
@pytest.mark.parametrize("branch", ["aggregatable", "lumpable"])
def test_expand_of_average_is_idempotent_on_reducible_models(branch):
    model, part, _ = generate(
        SynthConfig(6, 3, 2, 1, branch=branch, seed=21)
    )
    reduced = average_model(model, part)
    expanded = expand_reduced(reduced, part, model.T)
    assert np.abs(expanded.A - model.A).max() <= 1e-12
    assert np.abs(expanded.B - model.B).max() <= 1e-12
    again = average_model(expanded, part)
    assert np.abs(again.A - reduced.A).max() <= 1e-12
    assert np.abs(again.T - reduced.T).max() <= 1e-12


def test_expand_reduced_shapes_and_errors():
    model, part, _ = generate(SynthConfig(4, 2, 2, 1, seed=0))
    reduced = average_model(model, part)
    expanded = expand_reduced(reduced, part, model.T)
    assert expanded.s == 4
    for k, ck in enumerate(part.clusters):
        for i in ck:
            assert np.array_equal(expanded.A[i], reduced.A[k])
    with pytest.raises(PartitionMismatch):
        expand_reduced(model, part, model.T)  # s modes, r clusters
    with pytest.raises(DimensionMismatch):
        expand_reduced(reduced, part, np.eye(3))


def test_model_json_round_trip(tmp_path, rng):
    m = random_model(rng, s=3, n=2, p=2)
    path = tmp_path / "model.json"
    save_model(m, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.A, m.A)
    assert np.array_equal(loaded.B, m.B)
    assert np.array_equal(loaded.T, m.T)
    d = model_to_dict(m)
    assert set(d) == {"n", "p", "s", "A", "B", "T"}


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def same_bits(a, b):
    # Shape, dtype and every bit, so -0.0 and 0.0 count as different.
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_model(a, b):
    return all(same_bits(x, y) for x, y in ((a.A, b.A), (a.B, b.B), (a.T, b.T)))


@st.composite
def json_models(draw):
    s, n, p = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    A = draw(arrays(float, (s, n, n), elements=FINITE))
    B = draw(arrays(float, (s, n, p), elements=FINITE))
    # Rows of T: nonnegative finite floats scaled to sum to one; the
    # division leaves each row sum within a few ulps of 1.
    T = draw(arrays(float, (s, s), elements=st.floats(0.0, 1e6)))
    T[np.arange(s), draw(arrays(np.int64, s, elements=st.integers(0, s - 1)))] += 1.0
    T /= T.sum(axis=1, keepdims=True)
    return MjsModel(A, B, T)


@settings(max_examples=80, deadline=None)
@given(model=json_models())
def test_model_json_round_trip_is_bit_exact(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        assert same_model(load_model(path), model)
        # "B": null reads as zeros of the declared shape, which then
        # write out and read back unchanged.
        write_json(path, dict(model_to_dict(model), B=None))
        nulled = load_model(path)
        assert same_bits(nulled.B, np.zeros((model.s, model.n, model.p)))
        assert same_bits(nulled.A, model.A) and same_bits(nulled.T, model.T)
        save_model(nulled, path)
        assert same_model(load_model(path), nulled)


@settings(max_examples=80, deadline=None)
@given(labels=PARTITION_LABELS, wrapped=st.booleans())
def test_partition_json_round_trip(labels, wrapped):
    part = Partition.from_labels(labels)
    lists = part.to_lists_1based()
    assert Partition.from_lists_1based(json.loads(json.dumps(lists)), s=part.s) == part
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "partition.json"
        path.write_text(json.dumps({"partition": lists} if wrapped else lists))
        loaded = _load_partition(str(path), part.s)
    assert loaded == part
    assert np.array_equal(loaded.labels, part.labels)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


def test_model_from_dict_accepts_null_b(tmp_path):
    d = {"n": 1, "p": 2, "s": 1, "A": [[[0.5]]], "B": None, "T": [[1.0]]}
    m = load_model(write_json(tmp_path / "model.json", d))
    assert m.p == 2
    assert np.array_equal(m.B, np.zeros((1, 1, 2)))


def test_model_from_dict_rejections(tmp_path):
    path = tmp_path / "model.json"
    good = {"n": 1, "p": 0, "s": 1, "A": [[[0.5]]], "B": [[[]]], "T": [[1.0]]}
    load_model(write_json(path, good))
    with pytest.raises(InputError, match="malformed model"):
        load_model(write_json(path, {k: v for k, v in good.items() if k != "T"}))
    bad_size = dict(good, A=[[[0.5, 0.0]]])
    with pytest.raises(InputError, match="disagree with declared sizes"):
        load_model(write_json(path, bad_size))
    bad_rows = dict(good, T=[[0.4]])
    with pytest.raises(InputError, match="invalid model"):
        load_model(write_json(path, bad_rows))


def test_load_model_reports_parse_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 1, "p": 0,\n  "s": ???}')
    with pytest.raises(InputError, match=r"line \d+ column \d+"):
        load_model(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(InputError, match="JSON object"):
        load_model(path)
