import numpy as np
import pytest
from hypothesis import strategies as st

from mjsreduce.model import MjsModel, Partition


# Three-state chain used across the metric tests: exactly lumpable for
# {{0}, {1, 2}} but with distinct rows inside the second cluster.
THREE_STATE_T = np.array(
    [
        [0.2, 0.4, 0.4],
        [0.7, 0.1, 0.2],
        [0.7, 0.0, 0.3],
    ]
)


def three_state_model():
    return MjsModel(np.zeros((3, 2, 2)), None, THREE_STATE_T)


# Symmetric (hence reversible with uniform stationary distribution),
# exactly lumpable for {{0,1},{2,3}}, eigenvalues 1, 0.4, 0.2, 0:
# informative spectrum with a clean gap after the second one.
REVERSIBLE_LUMPABLE_T = np.array(
    [
        [0.4, 0.3, 0.2, 0.1],
        [0.3, 0.4, 0.1, 0.2],
        [0.2, 0.1, 0.4, 0.3],
        [0.1, 0.2, 0.3, 0.4],
    ]
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_partition(rng, s, r):
    """Random surjective labeling -> partition with exactly r clusters."""
    while True:
        labels = rng.integers(0, r, size=s)
        if len(np.unique(labels)) == r:
            return Partition.from_labels(labels)


def random_model(rng, s=4, n=2, p=1, a_scale=0.4):
    """Generic dense model with an ergodic chain; stable for a_scale < ~0.5."""
    A = np.stack([_scaled(rng, (n, n), a_scale) for _ in range(s)])
    B = rng.standard_normal((s, n, p)) if p else np.zeros((s, n, 0))
    T = rng.dirichlet(np.ones(s), size=s)
    return MjsModel(A, B, T)


def closed_loop(model, K):
    """The autonomous model of the state feedback u = K x: modes
    A_i + B_i K_i, the same chain."""
    return MjsModel(model.A + model.B @ np.asarray(K, dtype=float), None, model.T)


def _scaled(rng, shape, target):
    M = rng.standard_normal(shape)
    return M * (target / np.linalg.norm(M, 2))


def draw_instance(seed, labels, n, p, zeros=False):
    """A random model on len(labels) modes and the partition `labels`
    induces.  With zeros, about a third of the transitions get
    probability zero (every row keeps some mass)."""
    rng = np.random.default_rng(seed)
    s = len(labels)
    T = rng.dirichlet(np.ones(s), size=s)
    if zeros:
        T[rng.random((s, s)) < 0.3] = 0.0
        T[np.arange(s), rng.integers(0, s, size=s)] += 0.5
        T /= T.sum(axis=1, keepdims=True)
    A = rng.standard_normal((s, n, n)) * 0.3
    B = rng.standard_normal((s, n, p))
    return MjsModel(A, B, T), Partition.from_labels(labels)


# Mode labels of a partition for the oracle property tests; the edge
# cases (one mode, one cluster, all singletons) are drawn often.
# Clusters of 8 or more modes matter: numpy sums 8 or more terms
# pairwise, fewer in sequence.
PARTITION_LABELS = st.one_of(
    st.sampled_from(
        [[0], [0, 0, 0, 0], [0, 1, 2, 3], [0, 1, 1, 2, 2, 2], [0] * 9 + [1] * 11]
    ),
    st.lists(st.integers(0, 4), min_size=1, max_size=10),
    st.lists(st.integers(0, 2), min_size=8, max_size=30),
)
