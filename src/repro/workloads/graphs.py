"""Synthetic graphs in CSR form.

The paper's GCN workloads run on the Cora citation graph (2 708 nodes,
10 556 directed edges, average out-degree just under 4).  Cora itself is not
bundled here, so :func:`cora_like_graph` generates a seeded random graph with
the same node count and degree distribution shape; only the sparsity pattern
matters for the mapping experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Shape parameters of the Cora citation graph.
CORA_NODES = 2708
CORA_EDGES = 10556


@dataclass(frozen=True)
class CsrGraph:
    """A directed graph in compressed-sparse-row form."""

    row_ptr: np.ndarray    # int array of length num_nodes + 1
    col_idx: np.ndarray    # int array of length num_edges

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.row_ptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return len(self.col_idx)

    def degree(self, node: int) -> int:
        """Out-degree of ``node``."""
        return int(self.row_ptr[node + 1] - self.row_ptr[node])

    def neighbours(self, node: int) -> np.ndarray:
        """Destination nodes of ``node``'s outgoing edges."""
        return self.col_idx[int(self.row_ptr[node]):int(self.row_ptr[node + 1])]


def synthetic_graph(num_nodes: int, num_edges: int, seed: int = 0,
                    skew: float = 1.2) -> CsrGraph:
    """Generate a random directed graph with a mildly skewed degree distribution.

    ``skew`` > 1 concentrates edges on low-index nodes (citation graphs are
    skewed); ``skew`` = 1 gives a uniform distribution.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if num_edges < 0:
        raise ValueError(f"num_edges cannot be negative, got {num_edges}")
    rng = np.random.default_rng(seed)
    # Draw edge sources from a power-ish distribution, destinations uniformly.
    raw = rng.random(num_edges) ** skew
    sources = np.minimum((raw * num_nodes).astype(np.int64), num_nodes - 1)
    destinations = rng.integers(0, num_nodes, size=num_edges, dtype=np.int64)
    order = np.argsort(sources, kind="stable")
    sources = sources[order]
    destinations = destinations[order]
    counts = np.bincount(sources, minlength=num_nodes)
    row_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    return CsrGraph(row_ptr=row_ptr, col_idx=destinations)


def cora_like_graph(seed: int = 0, scale: float = 1.0) -> CsrGraph:
    """A synthetic graph with (optionally scaled) Cora-like shape."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    nodes = max(4, int(round(CORA_NODES * scale)))
    edges = max(4, int(round(CORA_EDGES * scale)))
    return synthetic_graph(nodes, edges, seed=seed)
