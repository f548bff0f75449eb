"""Compressed-sparse-row graph storage.

The whole reproduction operates on directed CSR graphs. Undirected graphs
are represented, as in the paper (Section 6.1), by symmetrizing: every edge
appears in both directions. Edge weights are optional and only used by the
weighted algorithms (Louvain, Leiden, Boruvka MSF).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


class Graph:
    """A directed graph in CSR form.

    Nodes are integers ``0 .. num_nodes - 1``. Edges of node ``u`` occupy
    the index range ``indptr[u] : indptr[u + 1]`` of ``indices`` (their
    destinations) and ``weights`` (their weights, if any).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size == 0:
            raise ValueError("indptr must be a non-empty 1-D array")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= indptr.size - 1):
            raise ValueError("edge destination out of range")
        self.indptr = indptr
        self.indices = indices
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != indices.shape:
                raise ValueError("weights must match indices in shape")
        self.weights = weights

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edge_list(
        cls,
        num_nodes: int,
        edges: Iterable[tuple[int, int]],
        weights: Iterable[float] | None = None,
    ) -> "Graph":
        """Build a graph from ``(src, dst)`` pairs (kept in input order per node)."""
        edge_array = np.asarray(list(edges), dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        srcs, dsts = np.ascontiguousarray(edge_array.T)
        weight_array = None if weights is None else np.asarray(list(weights), dtype=np.float64)
        return cls.from_arrays(num_nodes, srcs, dsts, weight_array)

    @classmethod
    def from_arrays(
        cls,
        num_nodes: int,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> "Graph":
        """Vectorized variant of :meth:`from_edge_list`.

        Edges keep their input order per source. Input already in source
        order (every caller that derives its edges from a CSR graph) is
        used as it is, without the stable sort.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if srcs.shape != dsts.shape:
            raise ValueError("srcs and dsts must have the same shape")
        if srcs.size and (srcs.min() < 0 or srcs.max() >= num_nodes):
            raise ValueError("edge source out of range")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != srcs.shape:
                raise ValueError("weights must match edges in length")
        if np.any(srcs[1:] < srcs[:-1]):
            order = np.argsort(srcs, kind="stable")
            srcs, dsts = srcs[order], dsts[order]
            if weights is not None:
                weights = weights[order]
        counts = np.bincount(srcs, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dsts, weights)

    @classmethod
    def symmetric_from_arrays(
        cls, num_nodes: int, srcs: np.ndarray, dsts: np.ndarray
    ) -> "Graph":
        """The unweighted graph holding every ``(src, dst)`` pair in both
        directions, each distinct pair once, neighbours ascending.

        One sort of the ``src * num_nodes + dst`` key column gives the CSR
        order outright: duplicates are neighbours in it, and the sorted keys
        cut into ``indptr`` by search and into ``indices`` by remainder.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if srcs.shape != dsts.shape:
            raise ValueError("srcs and dsts must have the same shape")
        for ends in (srcs, dsts):
            if ends.size and (ends.min() < 0 or ends.max() >= num_nodes):
                raise ValueError("edge endpoint out of range")
        keys = np.empty(2 * srcs.size, dtype=np.int64)  # both halves written in place
        for half, ends, others in zip(np.split(keys, 2), (srcs, dsts), (dsts, srcs)):
            np.multiply(ends, num_nodes, out=half)
            half += others
        keys.sort()
        if keys.size:
            keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        indptr = np.searchsorted(keys, np.arange(num_nodes + 1, dtype=np.int64) * num_nodes)
        np.remainder(keys, num_nodes, out=keys)
        return cls(indptr, keys)

    # -- basic accessors --------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self.indices.size

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def max_degree(self) -> int:
        return int(self.out_degrees().max(initial=0))

    def neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def edge_range(self, node: int) -> range:
        """Edge index range of ``node``, usable to index ``indices``/``weights``."""
        return range(int(self.indptr[node]), int(self.indptr[node + 1]))

    def edge_dst(self, edge: int) -> int:
        return int(self.indices[edge])

    def edge_weight(self, edge: int) -> float:
        if self.weights is None:
            return 1.0
        return float(self.weights[edge])

    def nodes(self) -> range:
        return range(self.num_nodes)

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        for src in self.nodes():
            for dst in self.neighbors(src):
                yield src, int(dst)

    def edge_sources(self) -> np.ndarray:
        """The source node of every edge index (the CSR expansion of indptr)."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.out_degrees())

    # -- transformations ---------------------------------------------------

    def symmetrized(self) -> "Graph":
        """Return the graph with every edge also present in reverse.

        Duplicate (src, dst) pairs are collapsed; for weighted graphs the
        weight of a collapsed pair is the maximum of the duplicates so that
        symmetrizing an already-symmetric graph is a no-op.
        """
        srcs = self.edge_sources()
        dsts = self.indices
        if self.weights is None:
            return Graph.symmetric_from_arrays(self.num_nodes, srcs, dsts)
        # The max over a duplicate group is order-sensitive on -0.0/+0.0 and
        # NaN, so weighted pairs keep the stable (input) order within a group.
        all_srcs = np.concatenate([srcs, dsts])
        all_dsts = np.concatenate([dsts, srcs])
        all_weights = np.concatenate([self.weights, self.weights])
        keys = all_srcs * self.num_nodes + all_dsts
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        keep = np.ones(keys.size, dtype=bool)
        keep[1:] = keys[1:] != keys[:-1]
        uniq = order[keep]
        group_ids = np.cumsum(keep) - 1
        weights_u = np.full(int(group_ids[-1]) + 1 if keys.size else 0, -np.inf)
        np.maximum.at(weights_u, group_ids, all_weights[order])
        return Graph.from_arrays(self.num_nodes, all_srcs[uniq], all_dsts[uniq], weights_u)

    def without_self_loops(self) -> "Graph":
        srcs = self.edge_sources()
        keep = srcs != self.indices
        weights = self.weights[keep] if self.weights is not None else None
        return Graph.from_arrays(self.num_nodes, srcs[keep], self.indices[keep], weights)

    def is_symmetric(self) -> bool:
        """Whether every distinct (src, dst) pair also appears as (dst, src)."""
        srcs = self.edge_sources()
        forward = np.unique(srcs * self.num_nodes + self.indices)
        backward = np.unique(self.indices * self.num_nodes + srcs)
        return np.array_equal(forward, backward)

    def with_unit_weights(self) -> "Graph":
        return Graph(self.indptr, self.indices, np.ones(self.num_edges))

    # -- interop ------------------------------------------------------------

    def to_networkx(self):
        """Convert to a ``networkx.DiGraph`` (weights become the ``weight`` attr)."""
        import networkx as nx

        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(self.nodes())
        srcs = self.edge_sources()
        if self.weights is None:
            nx_graph.add_edges_from(zip(srcs.tolist(), self.indices.tolist()))
        else:
            nx_graph.add_weighted_edges_from(
                zip(srcs.tolist(), self.indices.tolist(), self.weights.tolist())
            )
        return nx_graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        weighted = "weighted" if self.weights is not None else "unweighted"
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges}, {weighted})"
