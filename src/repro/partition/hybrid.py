"""Hybrid vertex-cut (PowerLyra-style [25]).

Kimbap's claim to support *general* partitioning policies (Section 1) is
exercised with a degree-differentiated policy: low-in-degree nodes keep
all their incoming edges on their owner host (edge-cut locality), while
high-in-degree hubs have incoming edges placed by the *source's* owner
(vertex-cut scale-out). This is the standard answer to power-law skew:
only the few hubs pay replication.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import Graph
from repro.partition.base import PartitionedGraph, balanced_node_blocks, build_partitioned


class HybridVertexCut:
    """Low-degree: edge lives at owner(dst). High-degree dst: at owner(src)."""

    name = "hvc"

    def __init__(self, threshold: int | None = None) -> None:
        self.threshold = threshold

    def partition(self, graph: Graph, num_hosts: int) -> PartitionedGraph:
        owner = balanced_node_blocks(graph, num_hosts)
        owner = np.minimum(owner, num_hosts - 1)
        in_degrees = np.bincount(graph.indices, minlength=graph.num_nodes)
        threshold = self.threshold
        if threshold is None:
            # default: hubs are nodes whose in-degree exceeds 4x the mean
            mean_degree = max(graph.num_edges / max(graph.num_nodes, 1), 1.0)
            threshold = int(4 * mean_degree) + 1
        # Narrow per-node tables, then a byte an edge: owner(dst), with the
        # edges into hubs overwritten by owner(src).
        host = owner.astype(np.min_scalar_type(num_hosts - 1))
        edge_host = host[graph.indices]
        into_hub = (in_degrees >= threshold)[graph.indices]
        np.copyto(edge_host, host.repeat(graph.out_degrees()), where=into_hub)
        return build_partitioned(graph, self.name, owner, edge_host, num_hosts=num_hosts)
