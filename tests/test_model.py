import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mjsreduce.model as model_module
from conftest import (
    PARTITION_LABELS,
    THREE_STATE_T,
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
    NotNormalized,
    PartitionMismatch,
)
from mjsreduce.model import (
    MjsModel,
    Partition,
    Trajectory,
    _batch_modes,
    _input_at,
    expand_reduced,
    is_ergodic,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    simulate,
    simulate_batch,
    simulate_coupled,
    simulate_coupled_batch,
    stationary_distribution,
    validate_model,
)
from mjsreduce.synth import SynthConfig, fig4_model, generate
from mjsreduce.bounds import BoundInputs, empirical_traj_diff, transition_kernel_enum
from mjsreduce.lqr import (
    closed_loop_average_cost,
    cumulative_cost_noisefree,
    monte_carlo_cost,
    riccati_solve,
)
from mjsreduce.perturbation import mr_bound
from mjsreduce.stability import second_moment_evolution


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


def test_validate_model_reports_value_violations():
    ok = three_state_model()
    assert validate_model(ok) == []
    bad_T = MjsModel(np.zeros((2, 1, 1)), None, [[1.2, -0.2], [0.5, 0.5]])
    msgs = validate_model(bad_T)
    assert any("negative" in m for m in msgs)
    bad_sum = MjsModel(np.zeros((2, 1, 1)), None, [[0.6, 0.6], [0.5, 0.5]])
    assert any("sums to" in m for m in validate_model(bad_sum))
    nan_A = MjsModel(np.full((1, 1, 1), np.nan), None, [[1.0]])
    assert any("A" in m for m in validate_model(nan_A))


def test_is_ergodic_cases():
    assert is_ergodic(THREE_STATE_T)
    assert not is_ergodic(np.eye(2))
    # Periodic two-cycle: no power is entrywise positive.
    assert not is_ergodic(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert is_ergodic(np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_stationary_distribution_matches_power_iteration():
    # Oracle: 10^4 steps of the power recursion from the uniform start.
    pi = np.full(3, 1.0 / 3.0)
    for _ in range(10_000):
        pi = pi @ THREE_STATE_T
        pi /= pi.sum()
    pi_hat = stationary_distribution(THREE_STATE_T)
    assert np.abs(pi_hat - pi).max() <= 1e-10
    assert abs(pi_hat.sum() - 1.0) <= 1e-12


def test_stationary_distribution_rejects_non_ergodic():
    with pytest.raises(NotErgodic):
        stationary_distribution(np.eye(3))


def test_model_pi_is_the_read_only_stationary_law():
    m = three_state_model()
    assert np.array_equal(m.pi, stationary_distribution(m.T))
    assert m.pi is m.pi
    with pytest.raises(ValueError):
        m.pi[0] = 0.5


def test_model_pi_refuses_a_non_ergodic_chain_on_every_access():
    m = MjsModel(np.zeros((3, 1, 1)), None, np.eye(3))
    for _ in range(2):
        with pytest.raises(NotErgodic):
            m.pi


def test_stationary_law_is_computed_once_per_model(monkeypatch):
    # Every stationary computation checks ergodicity exactly once.
    model, _, _ = generate(SynthConfig(4, 2, 2, 1, eps_A=0.1, seed=8))
    calls = []
    check = model_module.is_ergodic

    def counted(T):
        calls.append(T)
        return check(T)

    monkeypatch.setattr(model_module, "is_ergodic", counted)
    Q, R = np.eye(2), np.eye(1)
    res = reduce_model(model, 2, branch=None, seed=0)
    mr_bound(model, res.partition, "lumpable")
    closed_loop_average_cost(model, riccati_solve(model, Q, R).K, Q, R, 0.1)
    simulate(model, np.ones(2), 5, seed=0)
    assert len(calls) == 1


def test_partition_canonical_order():
    p = Partition([[4, 5], [2, 3], [0, 1]])
    assert p.clusters == ((0, 1), (2, 3), (4, 5))
    assert p == Partition([[0, 1], [2, 3], [4, 5]])
    assert p.cluster_of(3) == 1
    assert p.sizes == (2, 2, 2)


def test_partition_from_labels_and_uniform():
    p = Partition.from_labels([1, 0, 1, 0])
    assert p.clusters == ((0, 2), (1, 3))
    u = Partition.uniform(6, 3)
    assert u.clusters == ((0, 1), (2, 3), (4, 5))
    with pytest.raises(PartitionMismatch):
        Partition.uniform(7, 3)


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


def test_simulate_horizon_zero():
    traj = simulate(three_state_model(), [1.0, 2.0], 0, seed=0)
    assert traj.states.shape == (1, 2)
    assert traj.modes.shape == (0,)
    assert traj.horizon == 0


def test_simulate_rejects_bad_x0():
    with pytest.raises(DimensionMismatch):
        simulate(three_state_model(), [1.0], 3, seed=0)


@pytest.mark.invariant
def test_simulate_determinism_bit_identical(rng):
    m = random_model(rng, s=3, n=2, p=1)
    u = rng.standard_normal((12, 1))
    a = simulate(m, [1.0, -1.0], 12, inputs=u, noise_std=0.3, seed=77)
    b = simulate(m, [1.0, -1.0], 12, inputs=u, noise_std=0.3, seed=77)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.modes, b.modes)
    assert np.array_equal(a.inputs, b.inputs)
    sa, ma = simulate_batch(m, [1.0, -1.0], 9, 5, noise_std=0.1, seed=5)
    sb, mb = simulate_batch(m, [1.0, -1.0], 9, 5, noise_std=0.1, seed=5)
    assert np.array_equal(sa, sb) and np.array_equal(ma, mb)


def test_simulate_injected_modes_match_matrix_product():
    A = np.stack([np.diag([2.0, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    m = MjsModel(A, None, np.full((2, 2), 0.5))
    x0 = np.array([1.0, 3.0])
    traj = simulate(m, x0, 3, modes=[0, 1, 0], seed=0)
    x = x0
    for w in (0, 1, 0):
        x = A[w] @ x
    assert np.allclose(traj.states[-1], x, atol=0.0)
    assert np.array_equal(traj.modes, [0, 1, 0])
    with pytest.raises(DimensionMismatch):
        simulate(m, x0, 3, modes=[0, 1], seed=0)
    with pytest.raises(DimensionMismatch):
        simulate(m, x0, 3, modes=[0, 1, 5], seed=0)


def test_simulate_input_forms_agree(rng):
    m = random_model(rng, s=2, n=2, p=2)
    u = rng.standard_normal((8, 2))
    by_array = simulate(m, [1.0, 0.0], 8, inputs=u, seed=3)
    by_callable = simulate(
        m, [1.0, 0.0], 8, inputs=lambda t, x, w: u[t], seed=3
    )
    assert np.array_equal(by_array.states, by_callable.states)
    assert np.array_equal(by_array.inputs, u)
    with pytest.raises(DimensionMismatch):
        simulate(m, [1.0, 0.0], 2, inputs=np.zeros((2, 3)), seed=0)


def test_simulate_init_dist_forms():
    m = three_state_model()
    traj = simulate(m, [0.0, 0.0], 5, seed=1, init_dist=2)
    assert traj.modes[0] == 2
    traj = simulate(m, [0.0, 0.0], 5, seed=1, init_dist=np.int64(1))
    assert traj.modes[0] == 1
    traj = simulate(m, [0.0, 0.0], 5, seed=1, init_dist=[0.0, 1.0, 0.0])
    assert traj.modes[0] == 1
    with pytest.raises(DimensionMismatch):
        simulate(m, [0.0, 0.0], 5, seed=1, init_dist=9)
    with pytest.raises(DimensionMismatch):
        simulate(m, [0.0, 0.0], 5, seed=1, init_dist=[0.5, 0.5])


@pytest.mark.parametrize(
    "bad, error",
    [
        (9, DimensionMismatch),
        (-1, DimensionMismatch),
        ([0.5, 0.5], DimensionMismatch),
        ([0.5, 0.6, 0.0], NotNormalized),
        ([1.5, -0.5, 0.0], NotNormalized),
        (1.5, InputError),
        (True, InputError),
    ],
)
def test_init_dist_is_validated_by_every_consumer(bad, error):
    m = three_state_model()
    x0 = np.ones(2)
    calls = (
        lambda: simulate(m, x0, 3, seed=0, init_dist=bad),
        lambda: simulate_batch(m, x0, 3, 2, seed=0, init_dist=bad),
        lambda: second_moment_evolution(m, x0, 2, init_dist=bad),
        lambda: transition_kernel_enum(m, x0, 2, init_dist=bad),
        lambda: cumulative_cost_noisefree(
            m, np.zeros((3, 0, 2)), np.eye(2), np.zeros((0, 0)), x0, init_dist=bad
        ),
    )
    for call in calls:
        with pytest.raises(error):
            call()


def assert_rel_close(got, want):
    # 1e-12 relative to the largest state of the oracle path.
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max(initial=0.0))


# Per-step reference loops for simulate and simulate_coupled, independent
# of the rollout kernel: the same draws (modes first, then one noise
# vector per step), one matrix-vector product per system and step.


def loop_simulate(model, x0, horizon, inputs=None, noise_std=0.0, seed=None,
                  init_dist=None, modes=None):
    rng = np.random.default_rng(seed)
    if modes is None:
        modes = _batch_modes(rng, model, 1, horizon, init_dist)[0]
    modes = np.asarray(modes, dtype=int)
    x = np.asarray(x0, dtype=float)
    states = np.empty((horizon + 1, model.n))
    used = np.empty((horizon, model.p))
    states[0] = x
    for t in range(horizon):
        w = int(modes[t])
        u = _input_at(inputs, t, x, w, used)
        x = model.A[w] @ x + model.B[w] @ u
        if noise_std > 0.0:
            x = x + noise_std * rng.standard_normal(model.n)
        states[t + 1] = x
    return Trajectory(states=states, modes=modes, inputs=used)


def loop_simulate_coupled(model, reduced, partition, x0, horizon, inputs=None,
                          noise_std=0.0, seed=None, init_dist=None):
    rng = np.random.default_rng(seed)
    modes = _batch_modes(rng, model, 1, horizon, init_dist)[0]
    red_modes = partition.labels[modes]
    x = xr = np.asarray(x0, dtype=float)
    states = np.empty((horizon + 1, model.n))
    red_states = np.empty((horizon + 1, model.n))
    used = np.empty((horizon, model.p))
    states[0] = red_states[0] = x
    for t in range(horizon):
        w, k = int(modes[t]), int(red_modes[t])
        u = _input_at(inputs, t, x, w, used)
        x = model.A[w] @ x + model.B[w] @ u
        xr = reduced.A[k] @ xr + reduced.B[k] @ u
        if noise_std > 0.0:
            e = noise_std * rng.standard_normal(model.n)
            x = x + e
            xr = xr + e
        states[t + 1] = x
        red_states[t + 1] = xr
    return (
        Trajectory(states=states, modes=modes, inputs=used),
        Trajectory(states=red_states, modes=red_modes, inputs=used),
    )


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
    states, modes = simulate_batch(model, x0, horizon, n_traj, seed=seed)
    for b in range(n_traj):
        assert_rel_close(states[b], loop_simulate(model, x0, horizon, modes=modes[b]).states)
    part = random_partition(rng, s, int(rng.integers(1, s + 1)))
    reduced = random_model(rng, s=part.r, n=n, p=0)
    full, red, modes = simulate_coupled_batch(
        model, reduced, part, x0, horizon, n_traj, seed=seed
    )
    for b in range(n_traj):
        assert_rel_close(full[b], loop_simulate(model, x0, horizon, modes=modes[b]).states)
        oracle = loop_simulate(reduced, x0, horizon, modes=part.labels[modes[b]])
        assert_rel_close(red[b], oracle.states)


class Feedback:
    """State feedback u = K[mode] x that logs every call."""

    def __init__(self, K):
        self.K = K
        self.calls = []

    def __call__(self, t, x, mode):
        u = self.K[mode] @ x
        self.calls.append((t, x.copy(), mode, u))
        return u


def check_against_oracle(traj, oracle, inputs):
    assert np.array_equal(traj.modes, oracle.modes)
    assert_rel_close(traj.states, oracle.states)
    if isinstance(inputs, Feedback):
        # Called once per step, in order, on the state and mode it drives;
        # the recorded inputs are the returned ones bit for bit.
        H = traj.horizon
        assert [c[0] for c in inputs.calls] == list(range(H))
        for t, x, mode, u in inputs.calls:
            assert np.array_equal(x, traj.states[t]) and mode == traj.modes[t]
            assert np.array_equal(u, traj.inputs[t])
        if H:
            assert np.array_equal(traj.inputs[0], oracle.inputs[0])
            assert_rel_close(traj.inputs, oracle.inputs)
    else:
        assert np.array_equal(traj.inputs, oracle.inputs)


@pytest.mark.invariant
@settings(max_examples=60, deadline=None)
@example(seed=0, s=1, n=1, p=0, horizon=0, kind="feedback", noise=0.3, injected=True)
@example(seed=1, s=3, n=2, p=0, horizon=5, kind="feedback", noise=0.0, injected=False)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 5),
    n=st.integers(1, 4),
    p=st.integers(0, 3),
    horizon=st.integers(0, 12),
    kind=st.sampled_from(["none", "array", "feedback"]),
    noise=st.sampled_from([0.0, 0.3]),
    injected=st.booleans(),
)
def test_kernel_runs_match_the_loop_oracles(seed, s, n, p, horizon, kind, noise, injected):
    rng = np.random.default_rng(seed)
    model = random_model(rng, s=s, n=n, p=p, a_scale=rng.uniform(0.1, 1.2))
    part = random_partition(rng, s, int(rng.integers(1, s + 1)))
    reduced = random_model(rng, s=part.r, n=n, p=p)
    x0 = rng.standard_normal(n)
    K = 0.3 * rng.standard_normal((s, p, n))
    fixed = rng.standard_normal((horizon, p))
    modes = rng.integers(0, s, size=horizon) if injected else None

    def inputs():
        return {"none": None, "array": fixed, "feedback": Feedback(K)}[kind]

    kw = dict(noise_std=noise, seed=seed)
    u = inputs()
    traj = simulate(model, x0, horizon, inputs=u, modes=modes, **kw)
    check_against_oracle(traj, loop_simulate(model, x0, horizon, inputs(), modes=modes, **kw), u)
    u = inputs()
    full, red = simulate_coupled(model, reduced, part, x0, horizon, inputs=u, **kw)
    oracle = loop_simulate_coupled(model, reduced, part, x0, horizon, inputs(), **kw)
    check_against_oracle(full, oracle[0], u)
    assert np.array_equal(red.modes, oracle[1].modes)
    assert np.array_equal(red.inputs, full.inputs)
    assert_rel_close(red.states, oracle[1].states)


@pytest.mark.invariant
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.integers(1, 6),
    horizon=st.integers(0, 15),
    init=st.sampled_from(["stationary", "fixed", "law"]),
)
def test_scalar_and_batched_runs_share_the_sampler(seed, s, horizon, init):
    # Same seed, same draws, same kernel: a single-path run is the
    # n_traj = 1 batch bit for bit.
    rng = np.random.default_rng(seed)
    model = random_model(rng, s=s, n=2, p=0)
    init_dist = {
        "stationary": None,
        "fixed": int(rng.integers(s)),
        "law": rng.dirichlet(np.ones(s)),
    }[init]
    x0 = rng.standard_normal(2)
    kw = dict(noise_std=0.3, seed=seed, init_dist=init_dist)
    traj = simulate(model, x0, horizon, **kw)
    states, modes = simulate_batch(model, x0, horizon, 1, **kw)
    assert np.array_equal(traj.modes, modes[0])
    assert np.array_equal(traj.states, states[0])
    part = random_partition(rng, s, int(rng.integers(1, s + 1)))
    reduced = random_model(rng, s=part.r, n=2, p=0)
    full, red = simulate_coupled(model, reduced, part, x0, horizon, **kw)
    states, red_states, modes = simulate_coupled_batch(model, reduced, part, x0, horizon, 1, **kw)
    assert np.array_equal(full.modes, modes[0])
    assert np.array_equal(full.states, states[0])
    assert np.array_equal(red.states, red_states[0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_every_simulator_refuses_a_bad_noise_level(bad):
    m, part, x0 = three_state_model(), Partition([[0], [1, 2]]), np.ones(2)
    red = MjsModel(np.zeros((2, 2, 2)), None, np.full((2, 2), 0.5))
    runs = (
        lambda: simulate(m, x0, 3, noise_std=bad, seed=0),
        lambda: simulate_batch(m, x0, 3, 2, noise_std=bad, seed=0),
        lambda: simulate_coupled(m, red, part, x0, 3, noise_std=bad, seed=0),
        lambda: simulate_coupled_batch(m, red, part, x0, 3, 2, noise_std=bad, seed=0),
        lambda: monte_carlo_cost(
            m, np.zeros((3, 0, 2)), np.eye(2), np.zeros((0, 0)), bad, 3, 2
        ),
    )
    for run in runs:
        with pytest.raises(InputError, match="finite and nonnegative"):
            run()


def test_coupled_runs_reject_unlinked_models():
    m, part, x0 = three_state_model(), Partition([[0], [1, 2]]), np.ones(2)
    other_n = MjsModel(np.zeros((2, 3, 3)), None, np.full((2, 2), 0.5))
    other_r = MjsModel(np.zeros((3, 2, 2)), None, np.full((3, 3), 1 / 3))
    runs = (
        lambda red: simulate_coupled(m, red, part, x0, 3, seed=0),
        lambda red: simulate_coupled_batch(m, red, part, x0, 3, 2, seed=0),
    )
    for run in runs:
        with pytest.raises(DimensionMismatch):
            run(other_n)
        with pytest.raises(PartitionMismatch):
            run(other_r)


@pytest.mark.parametrize(
    "run",
    [
        lambda m, part, x0: simulate_batch(m, x0, 3, 2, seed=0),
        lambda m, part, x0: simulate_coupled_batch(m, m, part, x0, 3, 2, seed=0),
        lambda m, part, x0: monte_carlo_cost(
            m, np.zeros((3, 0, 2)), np.eye(2), np.zeros((0, 0)), 0.1, 3, 2, x0=x0
        ),
        lambda m, part, x0: empirical_traj_diff(m, m, part, x0, 3, 2, seed=0),
    ],
    ids=["simulate_batch", "simulate_coupled_batch", "monte_carlo_cost", "empirical_traj_diff"],
)
def test_batched_runs_reject_a_wrong_x0_length(run):
    m = three_state_model()
    singletons = Partition([[0], [1], [2]])
    with pytest.raises(DimensionMismatch):
        run(m, singletons, np.ones(m.n + 1))


@pytest.mark.parametrize(
    "run",
    [
        lambda m, part, x0: simulate(m, x0, 3, seed=0),
        lambda m, part, x0: transition_kernel_enum(m, x0, 0),
        lambda m, part, x0: transition_kernel_enum(m, x0, 2),
        lambda m, part, x0: second_moment_evolution(m, x0, 2),
        lambda m, part, x0: BoundInputs.from_model(m, part, "aggregatable", x0),
        lambda m, part, x0: cumulative_cost_noisefree(
            m, np.zeros((m.s, 0, m.n)), np.eye(m.n), np.zeros((0, 0)), x0
        ),
    ],
    ids=[
        "simulate",
        "transition_kernel_enum-t0",
        "transition_kernel_enum-t2",
        "second_moment_evolution",
        "BoundInputs.from_model",
        "cumulative_cost_noisefree",
    ],
)
def test_every_x0_entry_point_refuses_a_wrong_length(run):
    m, part = fig4_model()
    with pytest.raises(DimensionMismatch, match="x0 must have shape"):
        run(m, part, np.ones(m.n + 1))


def test_mode_sampler_skips_zero_probability_modes():
    # A draw of exactly 0 equals the cumulative entry of a leading mode of
    # probability zero, which must not be picked.
    class Zeros:
        def random(self, size):
            return np.zeros(size)

    law = [0.0, 0.5, 0.5]
    m = MjsModel(np.zeros((3, 1, 1)), None, np.tile(law, (3, 1)))
    assert np.all(_batch_modes(Zeros(), m, 2, 4, law) == 1)


@pytest.mark.invariant
def test_markov_frequencies_match_transition_matrix():
    # Entrywise tolerance 3 / sqrt(N pi_min) over N >= 1e5 steps.
    m = three_state_model()
    N = 100_000
    traj = simulate(m, [0.0, 0.0], N, seed=123)
    counts = np.zeros((3, 3))
    np.add.at(counts, (traj.modes[:-1], traj.modes[1:]), 1.0)
    freq = counts / counts.sum(axis=1, keepdims=True)
    tol = 3.0 / np.sqrt(N * stationary_distribution(m.T).min())
    assert np.abs(freq - m.T).max() <= tol


@pytest.mark.invariant
@pytest.mark.parametrize("branch", ["aggregatable", "lumpable"])
def test_coupled_runs_agree_on_reducible_models(branch):
    # Exactly reducible instances: the reduced system tracks the full
    # one along any shared mode path, input, and noise realization.
    model, part, _ = generate(
        SynthConfig(8, 2, 3, 2, branch=branch, seed=11)
    )
    reduced = average_model(model, part)
    x0 = np.array([1.0, -2.0, 0.5])
    u = np.random.default_rng(4).standard_normal((50, 2))
    full, red = simulate_coupled(
        model, reduced, part, x0, 50, inputs=u, noise_std=0.2, seed=9
    )
    diff = np.linalg.norm(full.states - red.states, axis=1)
    assert diff.max() <= 1e-10 * np.linalg.norm(x0)
    assert np.array_equal(red.modes, part.labels[full.modes])
    states, red_states, _ = simulate_coupled_batch(
        model, reduced, part, x0, 50, 8, noise_std=0.2, seed=9
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
    assert same_model(model_from_dict(model_to_dict(model)), model)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        assert same_model(load_model(path), model)
    # "B": null reads as zeros of the declared shape, which then write
    # out and read back unchanged.
    d = dict(model_to_dict(model), B=None)
    nulled = model_from_dict(json.loads(json.dumps(d)))
    assert same_bits(nulled.B, np.zeros((model.s, model.n, model.p)))
    assert same_bits(nulled.A, model.A) and same_bits(nulled.T, model.T)
    assert same_model(model_from_dict(model_to_dict(nulled)), nulled)


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


def test_model_from_dict_accepts_null_b():
    d = {"n": 1, "p": 2, "s": 1, "A": [[[0.5]]], "B": None, "T": [[1.0]]}
    m = model_from_dict(d)
    assert m.p == 2
    assert np.array_equal(m.B, np.zeros((1, 1, 2)))


def test_model_from_dict_rejections():
    good = {"n": 1, "p": 0, "s": 1, "A": [[[0.5]]], "B": [[[]]], "T": [[1.0]]}
    model_from_dict(good)
    with pytest.raises(InputError):
        model_from_dict({k: v for k, v in good.items() if k != "T"})
    bad_size = dict(good, A=[[[0.5, 0.0]]])
    with pytest.raises(InputError, match="disagree with declared sizes"):
        model_from_dict(bad_size)
    bad_rows = dict(good, T=[[0.4]])
    with pytest.raises(InputError, match="invalid model"):
        model_from_dict(bad_rows)


def test_load_model_reports_parse_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 1, "p": 0,\n  "s": ???}')
    with pytest.raises(InputError, match=r"line \d+ column \d+"):
        load_model(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(InputError, match="JSON object"):
        load_model(path)
