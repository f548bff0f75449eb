"""Edge-cut partitioning policies.

An edge-cut assigns *all* outgoing (or all incoming) edges of a node to the
node's owner host, so mirrors have no outgoing (respectively incoming)
edges - the structural invariant Gluon's communication elisions exploit.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import Graph
from repro.partition.base import PartitionedGraph, balanced_node_blocks, build_partitioned


class OutgoingEdgeCut:
    """OEC: edge (u, v) lives on owner(u); contiguous degree-balanced owners."""

    name = "oec"

    def partition(self, graph: Graph, num_hosts: int) -> PartitionedGraph:
        owner = balanced_node_blocks(graph, num_hosts)
        owner = np.minimum(owner, num_hosts - 1)
        edge_host = owner.astype(np.min_scalar_type(num_hosts - 1)).repeat(graph.out_degrees())
        return build_partitioned(graph, self.name, owner, edge_host, num_hosts=num_hosts)


class IncomingEdgeCut:
    """IEC: edge (u, v) lives on owner(v)."""

    name = "iec"

    def partition(self, graph: Graph, num_hosts: int) -> PartitionedGraph:
        owner = balanced_node_blocks(graph, num_hosts)
        owner = np.minimum(owner, num_hosts - 1)
        edge_host = owner.astype(np.min_scalar_type(num_hosts - 1))[graph.indices]
        return build_partitioned(graph, self.name, owner, edge_host, num_hosts=num_hosts)
