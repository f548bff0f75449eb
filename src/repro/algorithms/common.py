"""Shared pieces of the algorithm implementations.

Includes the result type, the Table 2 operator classification, the
pointer-jumping steps CC-SV, MSF, CC-SCLP and LD's connected split share,
and the one copy of each Louvain rule that Kimbap's LV/LD, Vite and
Galois share: the move choice, the graph coarsening step, the moving
cutoff, the Louvain and Leiden level loops, the next level's Leiden seeds
and the community result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

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
from repro.partition.policies import partition

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


def shortcut_steps(
    parent: NodePropMap, request_label: str, jump_label: str
) -> list[OperatorStep | SyncStep]:
    """Pointer jumping's steps, the one copy CC-SV, MSF, CC-SCLP and LD's
    connected split share: a request operator over master nodes reads
    each node's parent and requests the grandparent; after request-sync,
    the ``jump_label`` operator min-reduces the grandparent onto the node,
    then reduce-sync and broadcast. The first request ParFor of the naive
    compilation (requesting the node's own parent) is elided - master
    properties are always local."""
    return [
        OperatorStep(
            Operator(
                request_label,
                "masters",
                KeyRequest(keys=parent, of=parent),
                kind=PhaseKind.REQUEST_COMPUTE,
            )
        ),
        SyncStep(parent, "request"),
        OperatorStep(
            Operator(
                jump_label,
                "masters",
                NodeGather(keys=parent, of=parent, target=parent, op=MIN),
            )
        ),
        SyncStep(parent, "reduce"),
        SyncStep(parent, "broadcast"),
    ]


def shortcut_plan(
    pgraph: PartitionedGraph,
    parent: NodePropMap,
    max_rounds: int = 100000,
) -> Plan:
    """Pointer jumping (Figure 8's compiled shortcut,
    :func:`shortcut_steps`) as an operator plan, run until the forest is
    flat.

    Rounds advance the cluster's global round counter, so crash injection
    targeting any round of a multi-loop algorithm (CC-SV, MSF) lands
    exactly once and recovery covers the shortcut loops too.
    """
    return Plan(
        name="shortcut",
        pgraph=pgraph,
        steps=shortcut_steps(parent, "shortcut:req", "shortcut"),
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


def moving_cutoff_state(num_nodes: int) -> dict:
    """Fresh state of :func:`moving_converged` for a level of
    ``num_nodes`` nodes (plain values, so a loop's ``extra_snapshot`` of
    the dict holding it checkpoints it too)."""
    return {"previous_moves": num_nodes, "best_quality": -np.inf, "stalled": 0}


def moving_converged(
    state: dict,
    moves: int,
    graph: Graph,
    labels: Callable[[], np.ndarray],
    gamma: float,
) -> bool:
    """The local-moving cutoff of Kimbap's LV/LD and Vite, after a round
    that moved ``moves`` nodes.

    The level ends once fewer than 1% of the nodes moved in two
    consecutive rounds (the iteration cutoff every production Louvain
    uses; two, since parity gating halves each round) or when modularity
    has not improved for four rounds - synchronous moving on stale totals
    can cycle through a small set of configurations, and a stalled
    objective is the principled signal to stop. ``labels`` is called only
    when the move count does not end the level.
    """
    if moves + state["previous_moves"] < max(int(0.01 * graph.num_nodes), 1):
        return True
    state["previous_moves"] = moves
    quality = modularity(graph, labels(), gamma)
    if quality > state["best_quality"] + 1e-12:
        state["best_quality"] = quality
        state["stalled"] = 0
        return False
    state["stalled"] += 1
    return state["stalled"] >= 4


def choose_move(
    node: int,
    own_cluster: int,
    own_tot: float,
    weight_to: dict[int, float],
    strength: float,
    gamma: float,
    two_m: float,
    tot_of: Callable[[int], float],
    constraint: np.ndarray | None = None,
    target_size: Callable[[int], int] | None = None,
) -> int:
    """Louvain's move choice, the one copy Kimbap's LV/LD, Vite and Galois
    share: the cluster ``node`` moves to (``own_cluster``: stay).

    ``own_tot`` is the node's cluster total, its own ``strength``
    included; ``weight_to`` its edge weight per neighboring cluster,
    self-loops left out. A cluster scores its weight less
    ``gamma * tot * strength / two_m``; candidates scan in ascending id
    and a tie goes to the smaller id. ``tot_of(candidate)`` is called once
    per scored candidate (each system charges its own read); a candidate
    whose ``constraint`` differs from the node's (Leiden's refinement) is
    skipped. ``target_size``, given for a singleton node only, reads the
    chosen cluster's size: a singleton joins another singleton only when
    that has the smaller id (else synchronous rounds swap the pair forever).
    """
    best_cluster = own_cluster
    best_score = (
        weight_to.get(own_cluster, 0.0) - gamma * (own_tot - strength) * strength / two_m
    )
    for candidate, weight in sorted(weight_to.items()):
        if candidate == own_cluster:
            continue
        if constraint is not None and constraint[candidate] != constraint[node]:
            continue
        score = weight - gamma * tot_of(candidate) * strength / two_m
        if score > best_score or (score == best_score and candidate < best_cluster):
            best_cluster, best_score = candidate, score
    if (
        best_cluster != own_cluster
        and target_size is not None
        and target_size(best_cluster) == 1
        and best_cluster > own_cluster
    ):
        return own_cluster
    return best_cluster


def louvain_levels(
    cluster: Cluster,
    graph: Graph,
    pgraph: PartitionedGraph | None,
    move: Callable[[Graph, PartitionedGraph | None, int], tuple[np.ndarray, int]],
    gamma: float,
    min_gain: float,
    max_levels: int,
) -> tuple[np.ndarray, int, int]:
    """The Louvain level loop: ``move(level_graph, level_pgraph, level)``
    refines a level's partition, then the loop stops on no move or on a
    modularity gain below ``min_gain``, else coarsens and re-partitions.

    Returns each original node's community, the rounds summed over the
    levels, and the number of levels run. With ``pgraph=None`` (a
    shared-memory system) the coarse graphs are not partitioned and
    coarsening is not charged.
    """
    level_graph, level_pgraph = graph, pgraph
    node_to_coarse = np.arange(graph.num_nodes, dtype=np.int64)
    best_modularity = modularity(graph, np.arange(graph.num_nodes), gamma)
    total_rounds = levels = 0
    while levels < max_levels:
        labels, rounds = move(level_graph, level_pgraph, levels)
        total_rounds += rounds
        levels += 1
        level_modularity = modularity(level_graph, labels, gamma)
        moved = bool(np.any(labels != np.arange(level_graph.num_nodes)))
        if not moved or level_modularity < best_modularity + min_gain:
            node_to_coarse = labels[node_to_coarse]
            break
        best_modularity = level_modularity
        coarse_graph, coarse_of = coarsen(level_graph, labels, cluster, level_pgraph)
        # coarse_of[v] is the compacted cluster of level node v, so the
        # original -> coarse mapping composes directly (the cluster's
        # representative node may itself have moved elsewhere, so going
        # through `labels` again here would be wrong).
        node_to_coarse = coarse_of[node_to_coarse]
        if coarse_graph.num_nodes == level_graph.num_nodes:
            break
        level_graph = coarse_graph
        if pgraph is not None:
            level_pgraph = partition(coarse_graph, cluster.num_hosts, pgraph.policy)
    return node_to_coarse, total_rounds, levels


def leiden_levels(
    cluster: Cluster,
    graph: Graph,
    pgraph: PartitionedGraph | None,
    move: Callable[
        [Graph, PartitionedGraph | None, int, np.ndarray | None], tuple[np.ndarray, int]
    ],
    refine: Callable[[Graph, PartitionedGraph | None, int, np.ndarray], tuple[np.ndarray, int]],
    max_levels: int,
) -> tuple[np.ndarray, int, int]:
    """The Leiden level loop, the one copy Kimbap's LD and Galois share.

    ``move(level_graph, level_pgraph, level, seeds)`` runs local moving
    from ``seeds`` (None: singletons); ``refine(..., level, labels)``
    splits its clusters into the subclusters the level coarsens over; the
    next level starts from the *cluster* partition (:func:`cluster_seeds`),
    so loosely connected subclusters move as whole units. The loop stops
    once a level aggregates no node. Returns each original node's cluster
    after the last moving pass, the rounds of both passes summed over the
    levels, and the number of levels; ``pgraph=None`` as in
    :func:`louvain_levels`.
    """
    level_graph, level_pgraph = graph, pgraph
    node_to_coarse = np.arange(graph.num_nodes, dtype=np.int64)
    communities = node_to_coarse.copy()
    seeds: np.ndarray | None = None
    total_rounds = levels = 0
    while levels < max_levels:
        labels, rounds = move(level_graph, level_pgraph, levels, seeds)
        communities = labels[node_to_coarse]
        sub_labels, refine_rounds = refine(level_graph, level_pgraph, levels, labels)
        total_rounds += rounds + refine_rounds
        levels += 1
        coarse_graph, coarse_of = coarsen(level_graph, sub_labels, cluster, level_pgraph)
        if coarse_graph.num_nodes == level_graph.num_nodes:
            break
        seeds = cluster_seeds(labels, coarse_of, coarse_graph.num_nodes)
        node_to_coarse = coarse_of[node_to_coarse]
        level_graph = coarse_graph
        if pgraph is not None:
            level_pgraph = partition(coarse_graph, cluster.num_hosts, pgraph.policy)
    return communities, total_rounds, levels


def cluster_seeds(labels: np.ndarray, coarse_of: np.ndarray, num_coarse: int) -> np.ndarray:
    """Leiden's next-level seeds: each coarse node (a subcluster) starts
    in its parent *cluster*, labelled by the cluster's first coarse node."""
    parent_cluster = np.zeros(num_coarse, dtype=np.int64)
    parent_cluster[coarse_of] = labels
    _, first, inverse = np.unique(parent_cluster, return_index=True, return_inverse=True)
    return first[inverse].astype(np.int64)


def community_result(
    name: str, graph: Graph, labels: np.ndarray, rounds: int, levels: int, gamma: float
) -> AlgorithmResult:
    """A community detection result: ``labels`` per original node, with
    its modularity, level count and community count."""
    communities = {node: int(labels[node]) for node in range(graph.num_nodes)}
    return AlgorithmResult(
        name=name,
        values=communities,
        rounds=rounds,
        stats={
            "modularity": modularity(graph, labels, gamma),
            "levels": levels,
            "num_communities": len(set(communities.values())),
        },
    )
