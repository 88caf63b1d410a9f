import numpy as np
import pytest
from scipy.sparse.csgraph import breadth_first_order

from leadfollow.matrices import eigenvalues
from leadfollow.topology import (
    LeaderHasNeighborsError, NegativeWeightError, NonSquareError, SelfLoopError,
    build_digraph, has_spanning_tree, laplacian_partition, random_spanning_tree_digraph,
)

from conftest import fig1_weights


def random_digraph(node_count, rng):
    """Random digraph led by node 0, each edge present with probability 0.15
    and weighted uniformly in (0, 2], with no spanning-tree guarantee."""
    w = np.where(rng.random((node_count, node_count)) < 0.15,
                 2.0 * (1.0 - rng.random((node_count, node_count))), 0.0)
    np.fill_diagonal(w, 0.0)
    w[0, :] = 0.0
    return build_digraph(w, 0)


def test_reference_graph_builds():
    g = build_digraph(fig1_weights(), 0)
    assert g.node_count == 5
    assert g.follower_indices == [1, 2, 3, 4]
    assert g.edges() == [(1, 0), (2, 0), (2, 4), (3, 1), (4, 1), (4, 3)]


def test_empty_two_node_graph():
    g = build_digraph(np.zeros((2, 2)), 0)
    assert g.node_count == 2
    assert g.edges() == []


def test_leader_with_incoming_edge_rejected():
    w = fig1_weights()
    w[0, 4] = 1.0
    with pytest.raises(LeaderHasNeighborsError):
        build_digraph(w, 0)
    # the same matrix is fine when the leaderless escape hatch is used
    g = build_digraph(w, 0, allow_leader_neighbors=True)
    assert (0, 4) in g.edges()


def test_build_rejections():
    with pytest.raises(NonSquareError):
        build_digraph(np.zeros((2, 3)), 0)
    neg = np.zeros((3, 3))
    neg[1, 0] = -0.5
    with pytest.raises(NegativeWeightError):
        build_digraph(neg, 0)
    loop = np.zeros((3, 3))
    loop[1, 1] = 1.0
    with pytest.raises(SelfLoopError):
        build_digraph(loop, 0)


def test_reference_laplacian_partition():
    g = build_digraph(fig1_weights(), 0)
    lap = laplacian_partition(g)
    L2 = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 2.0, 0.0, -1.0],
        [-2.0, 0.0, 2.0, 0.0],
        [-1.0, 0.0, -1.0, 2.0],
    ])
    assert np.array_equal(lap.L2, L2)
    assert np.array_equal(lap.L1, np.array([[-1.0], [-1.0], [0.0], [0.0]]))
    assert np.allclose(lap.full.sum(axis=1), 0.0, atol=1e-14)
    assert np.array_equal(lap.full[0], np.zeros(5))


def test_trivial_partitions():
    g = build_digraph(np.zeros((2, 2)), 0)
    lap = laplacian_partition(g)
    assert lap.L2 == np.array([[0.0]])
    assert lap.L1 == np.array([[0.0]])

    w = np.zeros((2, 2))
    w[1, 0] = 0.7
    lap = laplacian_partition(build_digraph(w, 0))
    assert lap.L2 == np.array([[0.7]])
    assert lap.L1 == np.array([[-0.7]])


def test_spanning_tree_detection():
    assert has_spanning_tree(build_digraph(fig1_weights(), 0))
    assert not has_spanning_tree(build_digraph(np.zeros((3, 3)), 0))
    w = np.zeros((2, 2))
    w[1, 0] = 1.0
    assert has_spanning_tree(build_digraph(w, 0))


def test_spanning_tree_detection_matches_scipy_search():
    """On random digraphs of 2-65 nodes, sparse enough that about half lack a
    spanning tree, the reachability closure agrees with a breadth-first
    search from every node (csgraph edge a -> b is w[b, a] > 0)."""
    rng = np.random.default_rng(3)
    verdicts = []
    for _ in range(300):
        n = int(rng.integers(2, 66))
        w = np.where(rng.random((n, n)) < rng.uniform(0.0, 2.0 * np.log(n) / n), 1.0, 0.0)
        np.fill_diagonal(w, 0.0)
        g = build_digraph(w, 0, allow_leader_neighbors=True)
        expected = any(breadth_first_order(w.T, root, return_predecessors=False).size == n
                       for root in range(n))
        assert has_spanning_tree(g) == expected
        verdicts.append(expected)
    assert 0.3 <= np.mean(verdicts) <= 0.7


def test_random_laplacians_row_sums():
    rng = np.random.default_rng(10)
    for _ in range(30):
        g = random_spanning_tree_digraph(int(rng.integers(2, 9)), rng)
        lap = laplacian_partition(g)
        assert np.allclose(lap.full.sum(axis=1), 0.0, atol=1e-12)


def test_spanning_tree_spectra_positive():
    """Every generated spanning-tree graph yields L2 and D L2 spectra in the
    open right half plane."""
    rng = np.random.default_rng(21)
    for _ in range(100):
        g = random_spanning_tree_digraph(int(rng.integers(3, 9)), rng)
        assert has_spanning_tree(g)
        L2 = laplacian_partition(g).L2
        assert eigenvalues(L2).min_real_part > 1e-9
        for _ in range(10):
            d = rng.uniform(0.05, 5.0, size=L2.shape[0])
            assert eigenvalues(np.diag(d) @ L2).min_real_part > 1e-9


def test_random_generator_discriminates():
    """The unconstrained generator must produce graphs without a spanning tree
    whose L2 block has a (near-)zero eigenvalue, so the positivity test above
    is actually capable of failing."""
    rng = np.random.default_rng(5)
    found = False
    for _ in range(200):
        g = random_digraph(int(rng.integers(3, 9)), rng)
        if has_spanning_tree(g):
            continue
        L2 = laplacian_partition(g).L2
        if eigenvalues(L2).min_real_part <= 1e-9:
            found = True
            break
    assert found
