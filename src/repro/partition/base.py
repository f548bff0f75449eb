"""Partitioned graphs: per-host local graphs with master and mirror proxies.

Section 2.2 of the paper: edges are partitioned among hosts and proxy nodes
are created for their endpoints. One proxy per node is the *master* (holds
the canonical property value); the rest are *mirrors*. Each host's partition
is a small graph in itself, over local node ids, so operators run without
knowing the graph is distributed.

Local id convention: on every host, masters occupy local ids
``0 .. num_masters - 1`` (in ascending global id order) and mirrors follow
(also ascending). This is what lets the GAR layout use one dense vector for
all locally-materialized properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.graph.csr import Graph


@dataclass
class LocalPartition:
    """One host's share of the graph, in local-id CSR form."""

    host_id: int
    local_to_global: np.ndarray  # global id of each local id; masters first
    num_masters: int
    indptr: np.ndarray  # CSR over local ids
    indices: np.ndarray  # local destination ids
    weights: np.ndarray | None

    @cached_property
    def global_to_local(self) -> dict[int, int]:
        return {int(g): l for l, g in enumerate(self.local_to_global)}

    @property
    def num_local(self) -> int:
        return self.local_to_global.size

    @property
    def num_mirrors(self) -> int:
        return self.num_local - self.num_masters

    @property
    def masters_global(self) -> np.ndarray:
        return self.local_to_global[: self.num_masters]

    @property
    def mirrors_global(self) -> np.ndarray:
        return self.local_to_global[self.num_masters :]

    def is_master_local(self, local: int) -> bool:
        return local < self.num_masters

    def degree(self, local: int) -> int:
        return int(self.indptr[local + 1] - self.indptr[local])

    def neighbors(self, local: int) -> np.ndarray:
        return self.indices[self.indptr[local] : self.indptr[local + 1]]

    def edge_range(self, local: int) -> range:
        return range(int(self.indptr[local]), int(self.indptr[local + 1]))

    def edge_dst(self, edge: int) -> int:
        return int(self.indices[edge])

    def edge_weight(self, edge: int) -> float:
        if self.weights is None:
            return 1.0
        return float(self.weights[edge])

    @cached_property
    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.indices, minlength=self.num_local)

    def num_edges(self) -> int:
        return self.indices.size


@dataclass
class PartitionedGraph:
    """The global graph plus every host's :class:`LocalPartition`."""

    graph: Graph
    policy: str
    owner: np.ndarray  # owner host of every global node
    parts: list[LocalPartition]

    @property
    def num_hosts(self) -> int:
        return len(self.parts)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    def owner_of(self, global_id: int) -> int:
        return int(self.owner[global_id])

    @cached_property
    def mirror_hosts_by_owner(self) -> list[list[tuple[int, np.ndarray]]]:
        """For each owner host: the (mirror host, mirrored global ids) pairs.

        This is the broadcast fan-out structure: after a reduce-sync, owner
        ``h`` pushes updated master values to exactly these hosts.
        """
        fan_out: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(self.num_hosts)]
        # Mirrors ascend and ownership is blocked, so each owner's mirrors
        # are one run, cut at the owner's first master id.
        first_master = np.searchsorted(self.owner, np.arange(self.num_hosts + 1))
        for part in self.parts:
            mirrors = part.mirrors_global
            cuts = np.searchsorted(mirrors, first_master)
            for owner_host in np.flatnonzero(np.diff(cuts)):
                owned_mirrors = mirrors[cuts[owner_host] : cuts[owner_host + 1]]
                fan_out[int(owner_host)].append((part.host_id, owned_mirrors))
        return fan_out

    @cached_property
    def any_mirror_has_outgoing(self) -> bool:
        """False for outgoing edge-cuts: the structural invariant Gluon
        exploits to elide broadcasts for push-style operators."""
        return any(np.diff(part.indptr)[part.num_masters :].any() for part in self.parts)

    @cached_property
    def any_mirror_has_incoming(self) -> bool:
        for part in self.parts:
            if part.in_degrees[part.num_masters :].any():
                return True
        return False

    def total_mirrors(self) -> int:
        return sum(part.num_mirrors for part in self.parts)

    def replication_factor(self) -> float:
        """Average number of proxies per node (1.0 means no mirrors)."""
        total_proxies = sum(part.num_local for part in self.parts)
        return total_proxies / max(self.num_nodes, 1)


def balanced_node_blocks(graph: Graph, num_blocks: int) -> np.ndarray:
    """Assign nodes to contiguous blocks with roughly equal edge counts.

    Returns the block id of each node. Contiguity preserves locality and is
    what real partitioners (CuSP) do for the blocked policies.
    """
    degrees = graph.out_degrees() + 1  # +1 keeps empty nodes balanced too
    cumulative = np.cumsum(degrees)
    total = cumulative[-1] if cumulative.size else 0
    # boundaries[k] is the first node of block k + 1: the node at which the
    # running edge count first meets the k-th equal-share target completes
    # block k, so the next block starts one past it.
    targets = np.arange(1, num_blocks) * total / num_blocks
    boundaries = np.searchsorted(cumulative, targets, side="left") + 1
    block = np.searchsorted(boundaries, np.arange(graph.num_nodes), side="right")
    return block.astype(np.int64)


def build_partitioned(
    graph: Graph,
    policy: str,
    owner: np.ndarray,
    edge_host: np.ndarray,
    num_hosts: int | None = None,
) -> PartitionedGraph:
    """Assemble per-host local partitions from an edge->host assignment.

    Every owned node exists on its owner host (the master proxy always
    exists, even with no local edges) and every endpoint of a local edge
    exists as either a master or a mirror proxy. ``num_hosts`` keeps empty
    hosts alive when there are more hosts than nodes (their partitions are
    simply empty).

    Ownership must be blocked - ``owner`` non-decreasing in node id, as
    :func:`balanced_node_blocks` hands it out - so every host's masters
    are one id range and GAR translates a master's global id to its local
    id by subtraction alone. The same contract orders each host's edges
    without a sort: they arrive in ascending global source order, so in
    local-id order they are the edges from masters, then those from
    mirrors below the master range, then those from mirrors above it.
    """
    owner = np.asarray(owner)
    edge_host = np.asarray(edge_host)
    if owner.shape != (graph.num_nodes,):
        raise ValueError(
            f"owner has {owner.size} entries for a graph of {graph.num_nodes} nodes"
        )
    if edge_host.shape != (graph.num_edges,):
        raise ValueError(
            f"edge_host has {edge_host.size} entries for a graph of "
            f"{graph.num_edges} edges"
        )
    descending = np.flatnonzero(owner[1:] < owner[:-1])
    if descending.size:
        node = int(descending[0]) + 1
        raise ValueError(
            f"owner must be non-decreasing in node id: node {node} is owned "
            f"by host {int(owner[node])} after node {node - 1} on host "
            f"{int(owner[node - 1])}"
        )
    if num_hosts is None:
        num_hosts = int(owner.max(initial=-1)) + 1 if owner.size else 1
        num_hosts = max(num_hosts, int(edge_host.max(initial=-1)) + 1, 1)
    for name, hosts in (("owner", owner), ("edge_host", edge_host)):
        stray = hosts[(hosts < 0) | (hosts >= num_hosts)]
        if stray.size:
            raise ValueError(f"{name} holds host {int(stray[0])} outside [0, {num_hosts})")
    srcs = graph.edge_sources()
    dsts = graph.indices
    master_bounds = np.searchsorted(owner, np.arange(num_hosts + 1))
    # Group the edges by host once; within a host they stay in CSR order. A
    # narrow unsigned key makes the stable sort a radix sort.
    by_host = np.argsort(edge_host.astype(np.min_scalar_type(num_hosts)), kind="stable")
    edge_bounds = np.zeros(num_hosts + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_host, minlength=num_hosts), out=edge_bounds[1:])
    lookup = np.empty(graph.num_nodes, dtype=np.int64)
    parts: list[LocalPartition] = []
    for host in range(num_hosts):
        lo, hi = int(master_bounds[host]), int(master_bounds[host + 1])
        host_edges = by_host[edge_bounds[host] : edge_bounds[host + 1]]
        cut_lo, cut_hi = np.searchsorted(srcs[host_edges], (lo, hi))
        host_edges = np.concatenate(
            [host_edges[cut_lo:cut_hi], host_edges[:cut_lo], host_edges[cut_hi:]]
        )
        host_srcs = srcs[host_edges]
        host_dsts = dsts[host_edges]
        present = np.zeros(graph.num_nodes, dtype=bool)
        present[host_srcs] = True
        present[host_dsts] = True
        present[lo:hi] = False
        local_to_global = np.concatenate(
            [np.arange(lo, hi, dtype=np.int64), np.flatnonzero(present)]
        )
        lookup[local_to_global] = np.arange(local_to_global.size, dtype=np.int64)
        counts = np.bincount(lookup[host_srcs], minlength=local_to_global.size)
        indptr = np.zeros(local_to_global.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        parts.append(
            LocalPartition(
                host_id=host,
                local_to_global=local_to_global,
                num_masters=hi - lo,
                indptr=indptr,
                indices=lookup[host_dsts],
                weights=graph.weights[host_edges] if graph.weights is not None else None,
            )
        )
    return PartitionedGraph(graph=graph, policy=policy, owner=owner, parts=parts)
