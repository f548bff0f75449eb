"""MIS: priority-based maximal independent set (adjacent-vertex only).

Following the priority MIS of Burtscher et al. [17]: each node's priority
is its global degree, tie-broken by a hash of its id, giving a strict total
order. Every round:

1. *blocked* - for every edge between two undecided nodes where the
   neighbor is stronger, the weaker node's ``blocked`` property is
   max-reduced with the round number (round-stamping doubles as a free
   per-round reset);
2. *select* - an undecided master not blocked this round joins the set;
3. *exclude* - neighbors of IN nodes become OUT.

The strict total order guarantees every neighborhood's strongest undecided
node is selected each round, so the loop always progresses. Two persistent
node-property maps (state, priority) are used, matching the paper; the
round-stamped blocked map is the auxiliary reduction target.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import AlgorithmResult, resolve_executor
from repro.cluster.cluster import Cluster
from repro.core.propmap import NodePropMap
from repro.core.reducers import MAX
from repro.core.variants import RuntimeVariant
from repro.exec import (
    CmpFilter,
    DegreeReduce,
    EdgePush,
    Executor,
    HostStep,
    Operator,
    OperatorStep,
    Plan,
    ResetStep,
    ScalarKernel,
    SyncStep,
)
from repro.partition.base import PartitionedGraph

UNDECIDED = 0
IN_SET = 1
OUT = 2


def _hash_priority(node: int) -> int:
    """Deterministic id scrambling so ties don't follow node order."""
    mixed = (node * 2654435761) & 0xFFFFFFFF
    return mixed ^ (mixed >> 16)


def mis_plan(
    pgraph: PartitionedGraph,
    state: NodePropMap,
    priority: NodePropMap,
    blocked: NodePropMap,
) -> Plan:
    """One blocked/select/exclude round as an operator plan.

    The round counter is a plain closure, deliberately *not* part of the
    recovery snapshot: stamps are monotone, so stale blocked stamps from
    before a crash can never equal a replayed round's fresh stamp.
    """
    round_number = [-1]

    def bump_round() -> None:
        round_number[0] += 1

    def mark_blocked(ctx) -> None:
        if state.read_local(ctx.host, ctx.local) != UNDECIDED:
            return
        my_priority = priority.read_local(ctx.host, ctx.local)
        for edge in ctx.edges():
            dst_local = ctx.edge_dst_local(edge)
            if state.read_local(ctx.host, dst_local) != UNDECIDED:
                continue
            if priority.read_local(ctx.host, dst_local) > my_priority:
                blocked.reduce(ctx.host, ctx.thread, ctx.node, round_number[0], MAX)
                break

    def select(ctx) -> None:
        if state.read_local(ctx.host, ctx.local) != UNDECIDED:
            return
        if blocked.read_local(ctx.host, ctx.local) != round_number[0]:
            state.reduce(ctx.host, ctx.thread, ctx.node, IN_SET, MAX)

    return Plan(
        name="mis",
        pgraph=pgraph,
        steps=[
            HostStep("mis:round", bump_round),
            OperatorStep(
                Operator(
                    "mis:blocked",
                    "all",
                    ScalarKernel(
                        mark_blocked,
                        read_names=(state.name, priority.name),
                        write_names=((blocked.name, MAX.name),),
                    ),
                )
            ),
            SyncStep(blocked, "reduce"),
            OperatorStep(
                Operator(
                    "mis:select",
                    "masters",
                    ScalarKernel(
                        select,
                        read_names=(state.name, blocked.name),
                        write_names=((state.name, MAX.name),),
                    ),
                )
            ),
            SyncStep(state, "reduce"),
            SyncStep(state, "broadcast"),
            OperatorStep(
                Operator(
                    "mis:exclude",
                    "all",
                    EdgePush(
                        target=state,
                        op=MAX,
                        source=state,
                        skip_zero_degree=False,
                        # Declarative: only IN nodes push the exclusion
                        # (serializes; compiles to a mask under codegen).
                        value_filter=CmpFilter("eq", IN_SET),
                        const_value=OUT,
                    ),
                )
            ),
            SyncStep(state, "reduce"),
            SyncStep(state, "broadcast"),
        ],
        quiesce=(state,),
    )


def mis(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    executor: Executor | None = None,
) -> AlgorithmResult:
    """Run priority MIS; values are IN_SET(1)/OUT(2) states per node."""
    executor = resolve_executor(cluster, executor)
    # Global degrees: each host SUM-reduces its local out-degree share
    # (under a vertex-cut no single host knows a node's full degree).
    degree = NodePropMap(cluster, pgraph, "mis_degree", variant=variant)
    executor.init_map(degree, lambda nodes: np.zeros(nodes.size, dtype=np.int64))
    priority = NodePropMap(
        cluster, pgraph, "mis_priority", variant=variant, value_nbytes=24
    )
    state = NodePropMap(cluster, pgraph, "mis_state", variant=variant)
    blocked = NodePropMap(cluster, pgraph, "mis_blocked", variant=variant)

    degrees: dict[int, int] = {}
    # Each map is pinned right after its initialization - priority's
    # before state's, state's before blocked's - which takes one plan level
    # per pin: the phase order every MIS report is priced in.
    pin_state = Plan(
        name="mis:pin-state",
        pgraph=pgraph,
        steps=[
            ResetStep(blocked, lambda nodes: np.full(nodes.size, -1, dtype=np.int64)),
            mis_plan(pgraph, state, priority, blocked),
        ],
        pins={state: "none"},
    )
    pin_priority = Plan(
        name="mis:pin-priority",
        pgraph=pgraph,
        steps=[
            ResetStep(state, lambda nodes: np.full(nodes.size, UNDECIDED, dtype=np.int64)),
            pin_state,
        ],
        pins={priority: "none"},
    )
    plan = Plan(
        name="MIS",
        pgraph=pgraph,
        steps=[
            OperatorStep(Operator("mis:deg", "all", DegreeReduce(degree))),
            SyncStep(degree, "reduce"),
            HostStep("mis:degrees", lambda: degrees.update(degree.snapshot())),
            ResetStep(
                priority,
                lambda node: (degrees[node], _hash_priority(node), node),
                elementwise=True,
            ),
            pin_priority,
        ],
    )
    rounds = executor.run(plan)
    values = state.snapshot()
    return AlgorithmResult(
        name="MIS",
        values=values,
        rounds=rounds,
        stats={"set_size": sum(1 for v in values.values() if v == IN_SET)},
    )
