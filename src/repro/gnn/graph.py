"""Graph container for graph neural networks (the DGL substitute).

Stores the symmetric-normalized adjacency matrix with self loops,
``A_hat = D^{-1/2} (A + I) D^{-1/2}``, which is all a graph-convolutional
layer needs for message passing, plus a ``ndata`` dict mirroring DGL's node
data storage.  Graphs in the experiments have a few hundred nodes, so a dense
matrix is both simple and fast (a single BLAS matmul per propagation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

import numpy as np

from ..nn.tensor import Tensor

if TYPE_CHECKING:  # networkx is imported by the two converters that use it
    import networkx as nx

__all__ = ["Graph", "from_networkx", "from_edges"]


class Graph:
    """An undirected graph with precomputed normalized adjacency."""

    def __init__(self, adjacency: np.ndarray, add_self_loops: bool = True) -> None:
        adjacency = np.asarray(adjacency, dtype=np.float64)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        self.num_nodes = adjacency.shape[0]
        self.adjacency = adjacency
        a = adjacency + np.eye(self.num_nodes) if add_self_loops else adjacency.copy()
        degrees = a.sum(axis=1)
        d_inv_sqrt = np.where(degrees > 0, degrees ** -0.5, 0.0)
        self.norm_adjacency = (a * d_inv_sqrt[:, None]) * d_inv_sqrt[None, :]
        self.ndata: Dict[str, np.ndarray] = {}

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(np.triu(self.adjacency, k=1)))

    def propagate(self, features: Tensor) -> Tensor:
        """One step of normalized message passing: ``A_hat @ features``."""
        features_t = features if isinstance(features, Tensor) else Tensor(np.asarray(features))
        return Tensor(self.norm_adjacency) @ features_t

    def neighbors(self, node: int) -> np.ndarray:
        return np.nonzero(self.adjacency[node])[0]

    def degree(self, node: int) -> int:
        return int(self.adjacency[node].sum())

    def to_networkx(self) -> nx.Graph:
        import networkx as nx

        return nx.from_numpy_array(self.adjacency)

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


def from_networkx(graph: nx.Graph) -> Graph:
    """Build a :class:`Graph` from a networkx graph (node order preserved)."""
    import networkx as nx

    adjacency = nx.to_numpy_array(graph, dtype=np.float64)
    return Graph(adjacency)


def from_edges(num_nodes: int, edges: Iterable[Tuple[int, int]]) -> Graph:
    """Build a :class:`Graph` from an edge list over ``num_nodes`` nodes."""
    adjacency = np.zeros((num_nodes, num_nodes))
    for u, v in edges:
        adjacency[u, v] = 1.0
        adjacency[v, u] = 1.0
    return Graph(adjacency)
