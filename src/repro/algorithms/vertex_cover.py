"""2-approximate minimum vertex cover by distributed maximal matching.

The paper's introduction lists vertex covers among the problems needing
richer-than-adjacent operators in general; the classic 2-approximation -
take both endpoints of every edge of a *maximal matching* - decomposes
into an adjacent-vertex program with one two-hop (trans-style but
adjacent-key) check:

round:
  1. every unmatched node *picks* its highest-priority unmatched neighbor
     (deterministic hash priority) and publishes the pick on itself;
  2. a node whose pick picked it back is matched (mutual proposal) - the
     check reads ``pick(pick(n))``, where ``pick(n)`` is a neighbor, so
     the key stays adjacent and pinned mirrors serve it;
  3. matched nodes enter the cover and drop out.

Every round matches at least one edge in any neighborhood that still has
unmatched edges (the globally highest-priority unmatched node's pick is
mutual), so the loop terminates with a maximal matching; its endpoint set
is a vertex cover within 2x of optimal.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import OVERWRITE, AlgorithmResult, resolve_executor
from repro.algorithms.mis import _hash_priority
from repro.cluster.cluster import Cluster
from repro.core.propmap import NodePropMap
from repro.core.reducers import MAX
from repro.core.variants import RuntimeVariant
from repro.exec import Executor, Operator, OperatorStep, Plan, ScalarKernel, SyncStep
from repro.partition.base import PartitionedGraph

UNMATCHED = 0
MATCHED = 1
NO_PICK = -1


def vertex_cover_plan(
    pgraph: PartitionedGraph,
    state: NodePropMap,
    priority: NodePropMap,
    pick: NodePropMap,
) -> Plan:
    """One propose/match round as an operator plan."""

    def propose(ctx) -> None:
        if state.read_local(ctx.host, ctx.local) != UNMATCHED:
            return
        best_neighbor = NO_PICK
        best_priority = None
        for edge in ctx.edges():
            dst_local = ctx.edge_dst_local(edge)
            if dst_local == ctx.local:
                continue
            if state.read_local(ctx.host, dst_local) != UNMATCHED:
                continue
            neighbor_priority = priority.read_local(ctx.host, dst_local)
            if best_priority is None or neighbor_priority > best_priority:
                best_priority = neighbor_priority
                best_neighbor = ctx.edge_dst(edge)
        # single writer per key: a node publishes its own pick
        pick.reduce(ctx.host, ctx.thread, ctx.node, best_neighbor, OVERWRITE)

    def match(ctx) -> None:
        if state.read_local(ctx.host, ctx.local) != UNMATCHED:
            return
        my_pick = pick.read_local(ctx.host, ctx.local)
        if my_pick == NO_PICK:
            return
        # pick(n) is a neighbor, so its pick is a pinned-mirror read
        picked_back = pick.read(ctx.host, my_pick)
        if picked_back == ctx.node:
            state.reduce(ctx.host, ctx.thread, ctx.node, MATCHED, MAX)

    return Plan(
        name="vertex_cover",
        pgraph=pgraph,
        steps=[
            OperatorStep(
                Operator(
                    "vc:propose",
                    "masters",
                    ScalarKernel(
                        propose,
                        read_names=(state.name, priority.name),
                        write_names=((pick.name, OVERWRITE.name),),
                    ),
                )
            ),
            SyncStep(pick, "reduce"),
            SyncStep(pick, "broadcast"),
            OperatorStep(
                Operator(
                    "vc:match",
                    "masters",
                    ScalarKernel(
                        match,
                        read_names=(state.name, pick.name),
                        write_names=((state.name, MAX.name),),
                    ),
                )
            ),
            SyncStep(state, "reduce"),
            SyncStep(state, "broadcast"),
        ],
        quiesce=(state,),
        pins={priority: "none", state: "none", pick: "none"},
    )


def vertex_cover(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    executor: Executor | None = None,
) -> AlgorithmResult:
    """Run matching-based vertex cover; values are True for covered nodes.

    Requires an outgoing edge-cut (each node picks among *all* its
    neighbors, so its full edge list must sit at its master, as with LV).
    """
    executor = resolve_executor(cluster, executor)
    if cluster.num_hosts > 1 and pgraph.policy != "oec":
        raise ValueError(
            "vertex_cover picks among all neighbors at the master: "
            "partition with the outgoing edge-cut ('oec')"
        )
    priority = NodePropMap(
        cluster, pgraph, "vc_priority", variant=variant, value_nbytes=16
    )
    executor.init_map(
        priority, elementwise=lambda node: (_hash_priority(node), node)
    )
    state = NodePropMap(cluster, pgraph, "vc_state", variant=variant)
    executor.init_map(
        state, lambda nodes: np.full(nodes.size, UNMATCHED, dtype=np.int64)
    )
    pick = NodePropMap(cluster, pgraph, "vc_pick", variant=variant)
    executor.init_map(
        pick, lambda nodes: np.full(nodes.size, NO_PICK, dtype=np.int64)
    )
    rounds = executor.run(vertex_cover_plan(pgraph, state, priority, pick))
    matched = state.snapshot()
    values = {node: matched[node] == MATCHED for node in range(pgraph.num_nodes)}
    return AlgorithmResult(
        name="VERTEX-COVER",
        values=values,
        rounds=rounds,
        stats={"cover_size": float(sum(values.values()))},
    )
