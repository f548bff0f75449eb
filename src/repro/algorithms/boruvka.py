"""MSF: Boruvka's minimum spanning forest [15] (trans-vertex).

Classic parallel Boruvka through node-property maps, as in Section 6.1:
one map tracks each node's component parent (flattened by pointer jumping
each round); a second, per-round map receives each component's minimum
outgoing edge via a lexicographic min-reduction keyed by the component
root - a reduction onto a dynamically computed node, impossible in
adjacent-vertex frameworks. Components then hook along their chosen edges
(larger root onto smaller, which provably cannot form parent cycles) and
the chosen edges join the forest.

Ties are broken by (weight, min endpoint, max endpoint), a strict total
order, so mutual picks are identical edges and the forest stays acyclic
even with equal weights.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.common import AlgorithmResult, left_sum, resolve_executor, shortcut_plan
from repro.cluster.cluster import Cluster
from repro.core.bool_reducer import BoolReducer
from repro.core.propmap import NodePropMap
from repro.core.reducers import MIN, PAIR_MIN
from repro.core.variants import RuntimeVariant
from repro.exec import Executor, Operator, OperatorStep, Plan, ScalarKernel, SyncStep
from repro.partition.base import PartitionedGraph

SENTINEL = (math.inf, -1, -1, -1)


def boruvka_msf(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    executor: Executor | None = None,
) -> AlgorithmResult:
    """Run Boruvka MSF; values are component roots, extra["forest"] the edges."""
    executor = resolve_executor(cluster, executor)
    parent = NodePropMap(cluster, pgraph, "msf_parent", variant=variant)
    executor.init_map(parent, lambda nodes: nodes.copy())
    # The per-round minimum-outgoing-edge map (the paper's second map); it
    # is reset to the sentinel each Boruvka round rather than reallocated.
    best_edge = NodePropMap(
        cluster, pgraph, "msf_best", variant=variant, value_nbytes=32
    )
    work_done = BoolReducer(cluster, "msf_work")
    forest: set[tuple[int, int, float]] = set()

    def find_minimum(ctx) -> None:
        own_component = parent.read_local(ctx.host, ctx.local)
        for edge in ctx.edges():
            dst_local = ctx.edge_dst_local(edge)
            neighbor_component = parent.read_local(ctx.host, dst_local)
            if own_component == neighbor_component:
                continue
            node, dst = ctx.node, ctx.edge_dst(edge)
            candidate = (
                ctx.edge_weight(edge),
                min(node, dst),
                max(node, dst),
                neighbor_component,
            )
            best_edge.reduce(ctx.host, ctx.thread, own_component, candidate, PAIR_MIN)
            work_done.reduce(ctx.host, True)

    find_plan = Plan(
        name="msf:min",
        pgraph=pgraph,
        steps=[
            OperatorStep(
                Operator(
                    "msf:min",
                    "all",
                    ScalarKernel(
                        find_minimum,
                        read_names=(parent.name,),
                        write_names=((best_edge.name, PAIR_MIN.name),),
                        # the work-done vote's host flags are compute-phase
                        # effects too (host-shard execution ships them)
                        extra_effects=(work_done,),
                    ),
                )
            ),
            SyncStep(best_edge, "reduce"),
        ],
        once=True,
    )

    def hook(ctx) -> None:
        chosen = best_edge.read_local(ctx.host, ctx.local)
        if chosen == SENTINEL:
            return
        weight, endpoint_a, endpoint_b, other_component = chosen
        forest.add((endpoint_a, endpoint_b, weight))
        larger = max(ctx.node, other_component)
        smaller = min(ctx.node, other_component)
        parent.reduce(ctx.host, ctx.thread, larger, smaller, MIN)

    hook_plan = Plan(
        name="msf:hook",
        pgraph=pgraph,
        steps=[
            OperatorStep(
                Operator(
                    "msf:hook",
                    "masters",
                    ScalarKernel(
                        hook,
                        read_names=(best_edge.name,),
                        write_names=((parent.name, MIN.name),),
                        # the body appends chosen edges to the host-global
                        # forest set: not per-host addressable, so this
                        # phase runs replicated under parallel execution
                        host_local=False,
                    ),
                )
            ),
            SyncStep(parent, "reduce"),
        ],
        once=True,
    )

    flatten_plan = shortcut_plan(pgraph, parent)
    total_rounds = 0
    boruvka_round = 0
    while True:
        total_rounds += executor.run(flatten_plan)
        parent.pin_mirrors(invariant="none")
        best_edge.reset_values(lambda node: SENTINEL)
        work_done.set_all(False)
        executor.run(find_plan)
        work_done.sync()
        if not work_done.read():
            parent.unpin_mirrors()
            break
        executor.run(hook_plan)
        parent.unpin_mirrors()
        total_rounds += 1
        boruvka_round += 1
        if boruvka_round > pgraph.num_nodes:
            raise RuntimeError("Boruvka failed to converge")
    total_rounds += executor.run(flatten_plan)
    total_weight = left_sum(np.fromiter((weight for _, _, weight in forest), float))
    return AlgorithmResult(
        name="MSF",
        values=parent.snapshot(),
        rounds=total_rounds,
        stats={
            "forest_weight": total_weight,
            "forest_edges": float(len(forest)),
            "boruvka_rounds": boruvka_round,
        },
        extra={"forest": sorted(forest)},
    )
