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
from repro.exec import (
    Executor,
    HostStep,
    Operator,
    OperatorStep,
    Plan,
    ResetStep,
    ScalarKernel,
    SyncStep,
    Until,
)
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

    find_minimum_op = Operator(
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

    def hook(ctx) -> None:
        chosen = best_edge.read_local(ctx.host, ctx.local)
        if chosen == SENTINEL:
            return
        weight, endpoint_a, endpoint_b, other_component = chosen
        forest.add((endpoint_a, endpoint_b, weight))
        larger = max(ctx.node, other_component)
        smaller = min(ctx.node, other_component)
        parent.reduce(ctx.host, ctx.thread, larger, smaller, MIN)

    hook_op = Operator(
        "msf:hook",
        "masters",
        ScalarKernel(
            hook,
            read_names=(best_edge.name,),
            write_names=((parent.name, MIN.name),),
            # the body appends chosen edges to the host-global forest
            # set: not per-host addressable, so this phase runs
            # replicated under parallel execution
            host_local=False,
        ),
    )

    stats = {"boruvka_rounds": 0}

    def vote() -> None:
        work_done.sync()
        if work_done.read():
            stats["boruvka_rounds"] += 1

    flatten_plan = shortcut_plan(pgraph, parent)
    # parent is pinned for find and hook only, so the flatten loops see it
    # unpinned: the unpin opens each iteration and follows the loop, which
    # its Until leaves mid-iteration with parent still pinned.
    unpin = HostStep("msf:unpin", parent.unpin_mirrors)
    boruvka_loop = Plan(
        name="msf:boruvka",
        pgraph=pgraph,
        steps=[
            unpin,
            flatten_plan,
            HostStep("msf:pin", lambda: parent.pin_mirrors(invariant="none")),
            ResetStep(best_edge, lambda node: SENTINEL, elementwise=True),
            HostStep("msf:reset", lambda: work_done.set_all(False)),
            OperatorStep(find_minimum_op),
            SyncStep(best_edge, "reduce"),
            HostStep("msf:vote", vote),
            Until(lambda: not work_done.read()),
            OperatorStep(hook_op),
            SyncStep(parent, "reduce"),
        ],
        # Each hooking iteration merges at least two components.
        max_rounds=pgraph.num_nodes + 1,
        loop_label="boruvka",
    )
    plan = Plan(
        name="MSF", pgraph=pgraph, steps=[boruvka_loop, unpin, flatten_plan]
    )
    # Each hooking iteration counts as a round of its own.
    total_rounds = executor.run(plan) + stats["boruvka_rounds"]
    total_weight = left_sum(np.fromiter((weight for _, _, weight in forest), float))
    return AlgorithmResult(
        name="MSF",
        values=parent.snapshot(),
        rounds=total_rounds,
        stats={
            "forest_weight": total_weight,
            "forest_edges": float(len(forest)),
            "boruvka_rounds": stats["boruvka_rounds"],
        },
        extra={"forest": sorted(forest)},
    )
