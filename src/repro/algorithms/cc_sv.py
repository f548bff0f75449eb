"""CC-SV: Shiloach-Vishkin connected components (trans-vertex).

The running example of the paper (Figures 1, 4, 8). Alternates:

* **hook** - for each edge ``n -> m``, if ``parent(n) > parent(m)``,
  min-reduce ``parent(m)`` onto ``parent(parent(n))``. The reduction
  target ``parent(n)`` is a dynamically computed node id: this cannot be
  expressed in adjacent-vertex frameworks.
* **shortcut** - pointer jumping: ``parent(n) <- parent(parent(n))``.

Converges in O(log n) pointer-jumping rounds, making it much faster than
CC-LP on high-diameter graphs.
"""

from __future__ import annotations

from repro.algorithms.common import AlgorithmResult, resolve_executor, shortcut_plan
from repro.cluster.cluster import Cluster
from repro.core.propmap import NodePropMap
from repro.core.reducers import MIN
from repro.core.variants import RuntimeVariant
from repro.exec import (
    Executor,
    NeighborReduceToKey,
    Operator,
    OperatorStep,
    Plan,
    SyncStep,
)
from repro.partition.base import PartitionedGraph
from repro.runtime.bool_reducer import BoolReducer


def cc_sv_hook_plan(
    pgraph: PartitionedGraph, parent: NodePropMap, work_done: BoolReducer
) -> Plan:
    """The hook loop (run until quiescent between shortcut phases)."""
    return Plan(
        name="cc_sv:hook",
        pgraph=pgraph,
        steps=[
            OperatorStep(
                Operator(
                    "hook",
                    "all",
                    # parent(n) > parent(m): vote work_done and min-reduce
                    # parent(m) onto parent(parent(n)).
                    NeighborReduceToKey(
                        source=parent,
                        target=parent,
                        op=MIN,
                        cmp="gt",
                        flag=work_done,
                    ),
                )
            ),
            SyncStep(parent, "reduce"),
            SyncStep(parent, "broadcast"),
        ],
        quiesce=(parent,),
    )


def cc_sv(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    executor: Executor | None = None,
) -> AlgorithmResult:
    """Run Shiloach-Vishkin; values are the minimum node id per component."""
    executor = resolve_executor(cluster, executor)
    parent = NodePropMap(cluster, pgraph, "sv_parent", variant=variant)
    executor.init_map(parent, lambda nodes: nodes.copy())
    work_done = BoolReducer(cluster, "sv_work")
    hook_plan = cc_sv_hook_plan(pgraph, parent, work_done)
    flatten_plan = shortcut_plan(pgraph, parent)

    total_rounds = 0
    outer_rounds = 0
    while True:
        work_done.set_all(False)
        # Hook reads the active node and its neighbors only (writes go
        # anywhere), so the compiler pins mirrors and elides requests.
        parent.pin_mirrors(invariant="none")
        total_rounds += executor.run(hook_plan)
        work_done.sync()
        parent.unpin_mirrors()
        total_rounds += executor.run(flatten_plan)
        outer_rounds += 1
        if not work_done.read():
            break
    return AlgorithmResult(
        name="CC-SV",
        values=parent.snapshot(),
        rounds=total_rounds,
        stats={"outer_rounds": outer_rounds},
    )
