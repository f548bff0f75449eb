"""LV: deterministic distributed Louvain community detection [13].

Two alternating phases, as in the paper's Section 6.1:

* **clustering refinement** (local moving) - every node scores the
  modularity gain of joining each neighbor's cluster. Cluster totals are
  stored on the cluster's representative node, so reading ``tot(cluster_of
  (neighbor))`` is a trans-vertex access: the request phase asks for the
  totals of dynamically computed node ids, which is exactly what
  adjacent-vertex frameworks cannot express.
* **graph coarsening** - clusters collapse into nodes and the process
  repeats on the coarse graph until modularity stops improving.

Determinism and convergence follow Vite/Grappolo's minimum-label
heuristics: ties go to the smaller cluster id, and a singleton node only
moves into another singleton's cluster when that cluster has the smaller
id (otherwise synchronous rounds make the pair swap forever).

Three node-property maps per level: cluster assignment, cluster total
strength, and cluster size.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import (
    OVERWRITE,
    AlgorithmResult,
    coarsen,
    modularity,
    resolve_executor,
    weighted_degrees,
)
from repro.cluster.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core.propmap import NodePropMap
from repro.core.reducers import ReduceOp
from repro.core.variants import RuntimeVariant
from repro.exec import (
    Executor,
    HostStep,
    Operator,
    OperatorStep,
    Plan,
    ScalarKernel,
    SyncStep,
)
from repro.partition.base import PartitionedGraph
from repro.partition.policies import partition


def local_moving(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant,
    gamma: float,
    max_rounds: int,
    name: str,
    initial_labels: np.ndarray | None = None,
    constraint: np.ndarray | None = None,
    min_moves_fraction: float = 0.01,
    executor: Executor | None = None,
) -> tuple[np.ndarray, int]:
    """The BSP local-moving phase shared by Louvain and Leiden.

    Returns the final node -> cluster labels and the number of BSP rounds.
    ``initial_labels`` seeds the partition (Leiden aggregates start from
    their parent clusters); ``constraint`` restricts moves to target
    clusters whose constraint matches the node's (Leiden's refinement).
    ``min_moves_fraction`` is the standard Louvain iteration cutoff (used
    by Vite/Grappolo too): stop refining once fewer than that fraction of
    nodes moved in a round - the long tail of single-node rounds costs
    full graph scans for negligible modularity.
    """
    executor = resolve_executor(cluster, executor)
    graph = pgraph.graph
    strengths = weighted_degrees(graph)
    two_m = float(strengths.sum())
    if two_m == 0:
        labels = initial_labels if initial_labels is not None else np.arange(graph.num_nodes)
        return labels.copy(), 0
    if initial_labels is None:
        initial_labels = np.arange(graph.num_nodes, dtype=np.int64)
    tot_init = np.zeros(graph.num_nodes)
    np.add.at(tot_init, initial_labels, strengths)
    size_init = np.bincount(initial_labels, minlength=graph.num_nodes)

    cluster_map = NodePropMap(cluster, pgraph, f"{name}_cluster", variant=variant)
    # One map holds the cluster's (total strength, size) pair, stored on
    # the cluster's representative node: one request wave and one
    # reduce-sync per round instead of two.
    info_map = NodePropMap(
        cluster, pgraph, f"{name}_info", variant=variant, value_nbytes=16
    )
    pair_sum = ReduceOp("pair_sum", lambda a, b: (a[0] + b[0], a[1] + b[1]))
    executor.init_map(
        cluster_map, elementwise=lambda node: int(initial_labels[node])
    )
    executor.init_map(
        info_map,
        elementwise=lambda node: (float(tot_init[node]), int(size_init[node])),
    )

    min_moves = max(int(min_moves_fraction * graph.num_nodes), 1)
    # Loop-private host state in one dict so crash recovery can snapshot
    # and restore it alongside the maps. Stall detection: synchronous
    # moving on stale totals can cycle through a small set of
    # configurations; the objective (modularity) then stops improving,
    # which is the principled signal to stop the level.
    state: dict = {
        "round": 0,
        "parity": 0,
        "moves": 0,
        "previous_moves": graph.num_nodes,
        "best_quality": -np.inf,
        "stalled": 0,
    }

    def start_round() -> None:
        # Parity gating: only half the nodes may move each round. The
        # standard synchronous-Louvain guard (used with coloring in
        # distributed implementations) against groups of nodes swapping
        # clusters in lockstep forever on stale totals.
        state["parity"] = state["round"] % 2
        state["round"] += 1
        state["moves"] = 0

    def request_totals(ctx) -> None:
        own_cluster = cluster_map.read_local(ctx.host, ctx.local)
        info_map.request(ctx.host, own_cluster)
        for edge in ctx.edges():
            neighbor_cluster = cluster_map.read_local(
                ctx.host, ctx.edge_dst_local(edge)
            )
            info_map.request(ctx.host, neighbor_cluster)

    def move(ctx) -> None:
        node = ctx.node
        if (node ^ state["parity"]) & 1:
            return
        own_cluster = cluster_map.read_local(ctx.host, ctx.local)
        strength = float(strengths[node])
        ctx.charge(2)
        weight_to: dict[int, float] = {}
        for edge in ctx.edges():
            dst_local = ctx.edge_dst_local(edge)
            dst = int(ctx.part.local_to_global[dst_local])
            if dst == node:
                continue  # self-loop weight is choice-invariant
            neighbor_cluster = cluster_map.read_local(ctx.host, dst_local)
            weight_to[neighbor_cluster] = (
                weight_to.get(neighbor_cluster, 0.0) + ctx.edge_weight(edge)
            )
        own_tot, own_size = info_map.read(ctx.host, own_cluster)
        own_tot -= strength
        stay_score = (
            weight_to.get(own_cluster, 0.0) - gamma * own_tot * strength / two_m
        )
        best_cluster = own_cluster
        best_score = stay_score
        for candidate, weight in sorted(weight_to.items()):
            if candidate == own_cluster:
                continue
            if constraint is not None and constraint[candidate] != constraint[node]:
                continue
            ctx.charge(2)
            candidate_tot, _ = info_map.read(ctx.host, candidate)
            score = weight - gamma * candidate_tot * strength / two_m
            if score > best_score or (
                score == best_score and candidate < best_cluster
            ):
                best_cluster = candidate
                best_score = score
        if best_cluster == own_cluster:
            return
        if own_size == 1:
            _, target_size = info_map.read(ctx.host, best_cluster)
            if target_size == 1 and best_cluster > own_cluster:
                # minimum-label heuristic: stops singleton pairs from
                # swapping clusters forever under synchronous rounds
                return
        state["moves"] += 1
        cluster_map.reduce(ctx.host, ctx.thread, node, best_cluster, OVERWRITE)
        info_map.reduce(ctx.host, ctx.thread, own_cluster, (-strength, -1), pair_sum)
        info_map.reduce(ctx.host, ctx.thread, best_cluster, (strength, 1), pair_sum)

    def converged() -> bool:
        # Runs only when the round was not quiescent (the executor checks
        # quiescence first), mirroring the legacy break order.
        if state["moves"] + state["previous_moves"] < min_moves:
            # The iteration cutoff every production Louvain uses (two
            # consecutive rounds, since parity gating halves each round);
            # the move count rides the same allreduce as the IsUpdated vote.
            return True
        state["previous_moves"] = state["moves"]
        snapshot = cluster_map.snapshot()
        current = np.asarray(
            [snapshot[node] for node in range(graph.num_nodes)], dtype=np.int64
        )
        quality = modularity(graph, current, gamma)
        if quality > state["best_quality"] + 1e-12:
            state["best_quality"] = quality
            state["stalled"] = 0
        else:
            state["stalled"] += 1
            if state["stalled"] >= 4:
                return True
        return False

    def restore_state(saved) -> None:
        state.clear()
        state.update(saved)

    plan = Plan(
        name=name,
        pgraph=pgraph,
        steps=[
            HostStep(f"{name}:parity", start_round),
            OperatorStep(
                Operator(
                    f"{name}:req",
                    "masters",
                    ScalarKernel(
                        request_totals,
                        read_names=(cluster_map.name, info_map.name),
                    ),
                    kind=PhaseKind.REQUEST_COMPUTE,
                )
            ),
            SyncStep(info_map, "request"),
            OperatorStep(
                Operator(
                    f"{name}:move",
                    "masters",
                    ScalarKernel(
                        move,
                        read_names=(cluster_map.name, info_map.name),
                        write_names=(
                            (cluster_map.name, OVERWRITE.name),
                            (info_map.name, pair_sum.name),
                        ),
                        ops=(pair_sum,),
                        # the body bumps the host-global move counter the
                        # convergence check reads: not per-host
                        # addressable, so this phase runs replicated
                        # under parallel execution
                        host_local=False,
                    ),
                )
            ),
            SyncStep(cluster_map, "reduce"),
            SyncStep(cluster_map, "broadcast"),
            SyncStep(info_map, "reduce"),
        ],
        quiesce=(cluster_map,),
        converged=converged,
        maps=(cluster_map, info_map),
        max_rounds=max_rounds,
        raise_on_max_rounds=False,
        loop_label=name,
        extra_snapshot=lambda: dict(state),
        extra_restore=restore_state,
        pins={cluster_map: "none"},
    )
    rounds = executor.run(plan)
    snapshot = cluster_map.snapshot()
    labels = np.asarray(
        [snapshot[node] for node in range(graph.num_nodes)], dtype=np.int64
    )
    return labels, rounds


def louvain(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    gamma: float = 1.0,
    min_gain: float = 1e-6,
    max_rounds_per_level: int = 40,
    max_levels: int = 12,
    executor: Executor | None = None,
) -> AlgorithmResult:
    """Run deterministic Louvain; values are community ids per original node."""
    executor = resolve_executor(cluster, executor)
    level_graph = pgraph.graph
    level_pgraph = pgraph
    node_to_coarse = np.arange(level_graph.num_nodes, dtype=np.int64)
    total_rounds = 0
    best_modularity = modularity(level_graph, np.arange(level_graph.num_nodes), gamma)
    levels = 0
    while levels < max_levels:
        labels, rounds = local_moving(
            cluster,
            level_pgraph,
            variant,
            gamma,
            max_rounds_per_level,
            name=f"lv{levels}",
            executor=executor,
        )
        total_rounds += rounds
        levels += 1
        level_modularity = modularity(level_graph, labels, gamma)
        moved = bool(np.any(labels != np.arange(level_graph.num_nodes)))
        if not moved or level_modularity < best_modularity + min_gain:
            best_modularity = max(best_modularity, level_modularity)
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
        level_pgraph = partition(coarse_graph, cluster.num_hosts, pgraph.policy)
    communities = {
        node: int(node_to_coarse[node]) for node in range(pgraph.graph.num_nodes)
    }
    final_labels = np.asarray(
        [communities[node] for node in range(pgraph.graph.num_nodes)], dtype=np.int64
    )
    return AlgorithmResult(
        name="LV",
        values=communities,
        rounds=total_rounds,
        stats={
            "modularity": modularity(pgraph.graph, final_labels, gamma),
            "levels": levels,
            "num_communities": len(set(communities.values())),
        },
    )
