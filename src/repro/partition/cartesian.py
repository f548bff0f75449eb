"""Cartesian vertex-cut (Boman et al. [14]), as used by Gluon/CuSP.

Hosts form a ``pr x pc`` grid. Nodes get contiguous degree-balanced owner
blocks (one per host). Edge ``(u, v)`` is assigned to the host at grid
position ``(row_of(owner(u)), col_of(owner(v)))``, so a node's outgoing
edges are spread over the ``pc`` hosts of its owner's grid row and its
incoming edges over the ``pr`` hosts of its owner's grid column. This is the
vertex-cut the paper uses for CC, MSF and MIS (Section 6.1).
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.csr import Graph
from repro.partition.base import PartitionedGraph, balanced_node_blocks, build_partitioned


def grid_shape(num_hosts: int) -> tuple[int, int]:
    """Factor ``num_hosts`` into the most square ``(pr, pc)`` grid."""
    best_rows = 1
    for rows in range(1, int(math.isqrt(num_hosts)) + 1):
        if num_hosts % rows == 0:
            best_rows = rows
    return best_rows, num_hosts // best_rows


class CartesianVertexCut:
    """CVC: a 2-D blocked edge assignment over the host grid."""

    name = "cvc"

    def partition(self, graph: Graph, num_hosts: int) -> PartitionedGraph:
        rows, cols = grid_shape(num_hosts)
        owner = balanced_node_blocks(graph, num_hosts)
        owner = np.minimum(owner, num_hosts - 1)
        # Source row start + destination column, per-node tables: a byte an edge.
        host_type = np.min_scalar_type(num_hosts - 1)
        edge_host = (owner // cols * cols).astype(host_type).repeat(graph.out_degrees())
        edge_host += (owner % cols).astype(host_type)[graph.indices]
        return build_partitioned(graph, self.name, owner, edge_host, num_hosts=num_hosts)
