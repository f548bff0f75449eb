"""Shared pieces of the algorithm implementations.

Includes the result type, the Table 2 operator classification, the shortcut
(pointer-jumping) kernel reused by CC-SV / CC-SCLP / MSF, and the graph
coarsening step shared by Louvain and Leiden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core.propmap import NodePropMap
from repro.core.reducers import MIN, OVERWRITE  # noqa: F401  (OVERWRITE re-exported)
from repro.exec import (
    Executor,
    KeyRequest,
    NodeGather,
    Operator,
    OperatorStep,
    Plan,
    SyncStep,
)
from repro.graph.csr import Graph
from repro.partition.base import PartitionedGraph

# OVERWRITE (single-writer assignment expressed as a reduction) is defined
# canonically in repro.core.reducers so the cross-process operator registry
# covers it; it stays re-exported here for the historical import path.


def resolve_executor(cluster: Cluster, executor: Executor | None) -> Executor:
    """Resolve the executor an algorithm should run its plans on.

    Algorithms take ``executor=``; the backend (scalar vs bulk) is the
    executor's choice, not the algorithm's. ``None`` means the scalar
    reference backend.
    """
    return executor if executor is not None else Executor(cluster)


@dataclass
class AlgorithmResult:
    """Uniform output: per-node values plus algorithm-specific stats.

    ``stats`` holds scalars (modularity, set size, ...); ``extra`` holds
    structured outputs such as the MSF edge list.
    """

    name: str
    values: dict[int, Any]
    rounds: int
    stats: dict[str, float] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class OperatorKinds:
    """Table 2 row: which operator kinds an application uses."""

    adjacent_vertex: bool
    trans_vertex: bool


ALGORITHM_OPERATORS: dict[str, OperatorKinds] = {
    "LV": OperatorKinds(adjacent_vertex=True, trans_vertex=True),
    "LD": OperatorKinds(adjacent_vertex=True, trans_vertex=True),
    "MSF": OperatorKinds(adjacent_vertex=False, trans_vertex=True),
    "CC-LP": OperatorKinds(adjacent_vertex=True, trans_vertex=False),
    "CC-SCLP": OperatorKinds(adjacent_vertex=True, trans_vertex=True),
    "CC-SV": OperatorKinds(adjacent_vertex=False, trans_vertex=True),
    "MIS": OperatorKinds(adjacent_vertex=True, trans_vertex=False),
    # extension applications beyond the paper's seven
    "K-CORE": OperatorKinds(adjacent_vertex=True, trans_vertex=False),
    "VERTEX-COVER": OperatorKinds(adjacent_vertex=True, trans_vertex=False),
    "BFS": OperatorKinds(adjacent_vertex=True, trans_vertex=False),
    "SSSP": OperatorKinds(adjacent_vertex=True, trans_vertex=False),
    "PR": OperatorKinds(adjacent_vertex=True, trans_vertex=False),
}


def shortcut_plan(
    pgraph: PartitionedGraph,
    parent: NodePropMap,
    max_rounds: int = 100000,
) -> Plan:
    """Pointer jumping (Figure 8's compiled shortcut) as an operator plan,
    run until the forest is flat.

    Each round: a request operator over master nodes reads each node's
    parent and requests the grandparent; after request-sync, the shortcut
    operator min-reduces the grandparent onto the node. The first request
    ParFor of the naive compilation (requesting the node's own parent) is
    elided - master properties are always local.

    Rounds advance the cluster's global round counter, so crash injection
    targeting any round of a multi-loop algorithm (CC-SV, MSF) lands
    exactly once and recovery covers the shortcut loops too.
    """
    return Plan(
        name="shortcut",
        pgraph=pgraph,
        steps=[
            OperatorStep(
                Operator(
                    "shortcut:req",
                    "masters",
                    KeyRequest(keys=parent, of=parent),
                    kind=PhaseKind.REQUEST_COMPUTE,
                )
            ),
            SyncStep(parent, "request"),
            OperatorStep(
                Operator(
                    "shortcut",
                    "masters",
                    NodeGather(keys=parent, of=parent, target=parent, op=MIN),
                )
            ),
            SyncStep(parent, "reduce"),
            SyncStep(parent, "broadcast"),
        ],
        quiesce=(parent,),
        max_rounds=max_rounds,
        loop_label="shortcut",
    )


def left_sum(values: np.ndarray) -> float:
    """``values`` added strictly left to right (0.0 when empty): builtin
    ``sum`` compensates from Python 3.12 on, so its bits (and the report's)
    would depend on the interpreter."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def weighted_degrees(graph: Graph) -> np.ndarray:
    """Node strengths: row sums of the weighted adjacency (self-loops count)."""
    if graph.weights is None:
        return graph.out_degrees().astype(np.float64)
    strengths = np.zeros(graph.num_nodes)
    np.add.at(strengths, graph.edge_sources(), graph.weights)
    return strengths


def modularity(graph: Graph, labels: np.ndarray, gamma: float = 1.0) -> float:
    """Newman-Girvan modularity of a node -> community assignment.

    ``graph`` is symmetrized (every undirected edge stored twice), so the
    total directed weight is ``2m`` directly.
    """
    weights = graph.weights if graph.weights is not None else np.ones(graph.num_edges)
    two_m = float(weights.sum())
    if two_m == 0:
        return 0.0
    srcs = graph.edge_sources()
    internal = weights[labels[srcs] == labels[graph.indices]].sum()
    strengths = weighted_degrees(graph)
    totals: dict[int, float] = {}
    for node, strength in enumerate(strengths):
        label = int(labels[node])
        totals[label] = totals.get(label, 0.0) + float(strength)
    squares = np.fromiter((total * total for total in totals.values()), float)
    expected = left_sum(squares) / (two_m * two_m)
    return float(internal / two_m - gamma * expected)


def coarsen(
    graph: Graph, labels: np.ndarray, cluster: Cluster | None = None,
    pgraph: PartitionedGraph | None = None,
) -> tuple[Graph, np.ndarray]:
    """Aggregate nodes by label into a weighted coarse graph.

    Returns the coarse graph and, for each fine node, its coarse node id.
    Parallel directed edges are summed; intra-community edges become
    self-loops (keeping strengths exact for modularity at the next level).
    When a cluster is given, the per-edge aggregation work plus an
    all-to-all exchange of coarse edges is charged, mirroring how both Vite
    and Kimbap rebuild the coarse graph each phase.
    """
    unique_labels, coarse_of = np.unique(labels, return_inverse=True)
    num_coarse = unique_labels.size
    srcs = coarse_of[graph.edge_sources()]
    dsts = coarse_of[graph.indices]
    weights = graph.weights if graph.weights is not None else np.ones(graph.num_edges)
    keys = srcs * num_coarse + dsts
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    boundaries = np.ones(keys_sorted.size, dtype=bool)
    boundaries[1:] = keys_sorted[1:] != keys_sorted[:-1]
    group = np.cumsum(boundaries) - 1
    summed = np.zeros(int(group[-1]) + 1 if keys_sorted.size else 0)
    np.add.at(summed, group, weights[order])
    first = order[boundaries]
    coarse = Graph.from_arrays(num_coarse, srcs[first], dsts[first], summed)
    if cluster is not None and pgraph is not None:
        with cluster.phase(PhaseKind.REDUCE_COMPUTE, label="coarsen"):
            for part in pgraph.parts:
                cluster.counters(part.host_id).edge_iters += part.num_edges()
        with cluster.phase(PhaseKind.REDUCE_SYNC, label="coarsen"):
            per_host = coarse.num_edges // max(cluster.num_hosts, 1) + 1
            for src in range(cluster.num_hosts):
                for dst in range(cluster.num_hosts):
                    cluster.network.send(src, dst, 24 * per_host // cluster.num_hosts + 8)
    return coarse, coarse_of
