"""Directed communication graphs: construction, Laplacian partition, spanning trees.

The weight convention follows the receiver-row layout: ``weights[i, j]`` is the
quality a_ij of the communication link from node j to node i.  A node whose
neighbor (parent) set is empty is a leader candidate; the designated leader must
have an all-zero weight row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import frozen_copy


class GraphError(ValueError):
    """Base class for digraph validation failures."""


class NonSquareError(GraphError):
    pass


class NegativeWeightError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class LeaderHasNeighborsError(GraphError):
    pass


@dataclass(frozen=True)
class Digraph:
    """Validated weighted digraph with a designated leader node."""

    weights: np.ndarray  # (N+1, N+1), weights[i, j] = a_ij, link j -> i
    leader_index: int

    @property
    def node_count(self) -> int:
        return self.weights.shape[0]

    @property
    def follower_indices(self) -> list[int]:
        return [i for i in range(self.node_count) if i != self.leader_index]

    def edges(self) -> list[tuple[int, int]]:
        """All (receiver, sender) pairs with positive weight, in row-major order."""
        rows, cols = np.nonzero(self.weights)
        return list(zip(rows.tolist(), cols.tolist()))


@dataclass(frozen=True)
class LaplacianPartition:
    """Graph Laplacian with its follower rows split into leader/follower blocks."""

    full: np.ndarray  # (N+1, N+1)
    L1: np.ndarray    # (N, 1): follower rows, leader column
    L2: np.ndarray    # (N, N): follower rows, follower columns


def build_digraph(weights, leader_index: int, allow_leader_neighbors: bool = False) -> Digraph:
    """Validate a weight matrix and wrap it as a Digraph.

    ``allow_leader_neighbors`` skips the empty-leader-row check; it is meant for
    deliberately leaderless configurations and leaves ``leader_index`` as a mere
    reference node.
    """
    w = np.array(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise NonSquareError(f"weight matrix must be square, got shape {w.shape}")
    n = w.shape[0]
    if n < 2:
        raise GraphError(f"need at least 2 nodes, got {n}")
    if not (0 <= leader_index < n):
        raise GraphError(f"leader index {leader_index} out of range for {n} nodes")
    if np.any(w < 0):
        i, j = np.argwhere(w < 0)[0]
        raise NegativeWeightError(f"negative weight at ({i}, {j})")
    if np.any(np.diag(w) != 0):
        i = int(np.argwhere(np.diag(w) != 0)[0, 0])
        raise SelfLoopError(f"self loop at node {i}")
    if not allow_leader_neighbors and np.any(w[leader_index] > 0):
        j = int(np.argwhere(w[leader_index] > 0)[0, 0])
        raise LeaderHasNeighborsError(
            f"leader node {leader_index} has an incoming edge from node {j}"
        )
    return Digraph(weights=frozen_copy(w), leader_index=leader_index)


def laplacian(weights: np.ndarray) -> np.ndarray:
    """L = diag(row sums) - A."""
    w = np.asarray(weights, dtype=float)
    return np.diag(w.sum(axis=1)) - w


def laplacian_partition(g: Digraph) -> LaplacianPartition:
    """Assemble the Laplacian and split the follower rows into [L1 | L2]."""
    full = laplacian(g.weights)
    fol = g.follower_indices
    L1 = full[np.ix_(fol, [g.leader_index])]
    L2 = full[np.ix_(fol, fol)]
    return LaplacianPartition(full=frozen_copy(full), L1=frozen_copy(L1), L2=frozen_copy(L2))


def has_spanning_tree(g: Digraph) -> bool:
    """True iff some node reaches every other node along directed edges.

    reach[j, i] > 0 iff j reaches i along at most 2^k edges after k squarings
    of (W^T > 0) | I (edge j -> i iff w[i, j] > 0); ceil(log2 n) squarings
    cover every path of n - 1 edges.  Clipping at 1 keeps every entry 0 or 1."""
    n = g.node_count
    reach = ((g.weights.T > 0) | np.eye(n, dtype=bool)).astype(float)
    for _ in range((n - 1).bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    return bool((reach > 0).all(axis=1).any())


def random_spanning_tree_digraph(node_count: int, rng: np.random.Generator) -> Digraph:
    """Random digraph guaranteed to contain a spanning tree rooted at leader 0.

    A random directed tree rooted at the leader is sampled first (each follower
    gets one parent among the already-attached nodes), then every remaining
    ordered pair gains an edge independently with probability 0.3 and weight
    uniform in (0, 2].  Edges into the leader are never added.
    """
    n = node_count
    order = [0] + [i for i in rng.permutation(n) if i != 0]
    w = np.zeros((n, n))
    for pos in range(1, n):
        child = order[pos]
        parent = order[int(rng.integers(pos))]
        w[child, parent] = 2.0 * (1.0 - rng.random())  # uniform in (0, 2]
    for i in range(1, n):
        for j in range(n):
            if i == j or w[i, j] > 0:
                continue
            if rng.random() < 0.3:
                w[i, j] = 2.0 * (1.0 - rng.random())
    return build_digraph(w, 0)

