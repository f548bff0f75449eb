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
    community_result,
    louvain_levels,
    moving_converged,
    moving_cutoff_state,
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


def local_moving(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant,
    gamma: float,
    max_rounds: int,
    name: str,
    initial_labels: np.ndarray | None = None,
    constraint: np.ndarray | None = None,
    executor: Executor | None = None,
) -> tuple[np.ndarray, int]:
    """The BSP local-moving phase shared by Louvain and Leiden.

    Returns the final node -> cluster labels and the number of BSP rounds.
    ``initial_labels`` seeds the partition (Leiden aggregates start from
    their parent clusters); ``constraint`` restricts moves to target
    clusters whose constraint matches the node's (Leiden's refinement).
    A level ends on :func:`~repro.algorithms.common.moving_converged`,
    Vite's cutoff too, or after ``max_rounds`` rounds.
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

    # Loop-private host state, the cutoff's included, in one dict so
    # crash recovery can snapshot and restore it alongside the maps.
    state: dict = {
        "round": 0,
        "parity": 0,
        "moves": 0,
        **moving_cutoff_state(graph.num_nodes),
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
        # The move count rides the same allreduce as the IsUpdated vote.
        return moving_converged(
            state, state["moves"], graph, cluster_map.snapshot_array, gamma
        )

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
                    ),
                )
            ),
            SyncStep(cluster_map, "reduce"),
            SyncStep(cluster_map, "broadcast"),
            SyncStep(info_map, "reduce"),
        ],
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
    return cluster_map.snapshot_array(), rounds


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

    def move(level_graph, level_pgraph, level):
        return local_moving(
            cluster,
            level_pgraph,
            variant,
            gamma,
            max_rounds_per_level,
            name=f"lv{level}",
            executor=executor,
        )

    communities, rounds, levels = louvain_levels(
        cluster, pgraph.graph, pgraph, move, gamma, min_gain, max_levels
    )
    return community_result("LV", pgraph.graph, communities, rounds, levels, gamma)
