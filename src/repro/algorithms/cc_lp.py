"""CC-LP: connected components by label propagation (adjacent-vertex only).

Each node carries a component label (initially its own id); every round,
each node push-reduces its label onto its neighbors with ``min``. The only
reads are of the active node itself, so the compiler's adjacent-neighbors
analysis pins mirrors with the ``push`` invariant and elides all request
phases - this is the algorithm the paper uses to show Kimbap matches Gluon
on adjacent-vertex programs (Figures 9c/10c).

Converges in O(diameter) rounds: fast on power-law graphs, slow on road
networks (the motivation for CC-SV / CC-SCLP).
"""

from __future__ import annotations

from repro.algorithms.common import AlgorithmResult, resolve_executor
from repro.cluster.cluster import Cluster
from repro.core.propmap import NodePropMap
from repro.core.reducers import MIN
from repro.core.variants import RuntimeVariant
from repro.exec import (
    ActiveFilter,
    EdgePush,
    Executor,
    Operator,
    OperatorStep,
    Plan,
    ResidualDecl,
    SyncStep,
)
from repro.partition.base import PartitionedGraph


def cc_lp_plan(pgraph: PartitionedGraph, label: NodePropMap) -> Plan:
    """One CC-LP round as an operator plan.

    Push-style: proxies without local out-edges do nothing (and under the
    push invariant their mirror values are never fed); data-driven
    activity keeps per-round work proportional to the frontier (Gluon's
    worklist execution).
    """
    return Plan(
        name="cc_lp",
        pgraph=pgraph,
        steps=[
            OperatorStep(
                Operator(
                    "cc_lp",
                    "all",
                    EdgePush(
                        target=label,
                        op=MIN,
                        source=label,
                        # Declarative frontier: labels that improved last
                        # round (serializes in the plan; compiles to a
                        # frontier-aware kernel under codegen).
                        require_active=ActiveFilter(label),
                        charge_per_source=1,
                        # Async eligibility: labels improve monotonically
                        # under MIN (the classic asynchronous-safe program),
                        # so the priority/delta engine propagates the
                        # smallest labels first with no global barrier.
                        residual=ResidualDecl(mode="monotone"),
                    ),
                )
            ),
            SyncStep(label, "reduce"),
            SyncStep(label, "broadcast"),
        ],
        quiesce=(label,),
    )


def cc_lp(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    executor: Executor | None = None,
) -> AlgorithmResult:
    """Run label-propagation connected components; values are component ids."""
    executor = resolve_executor(cluster, executor)
    label = NodePropMap(cluster, pgraph, "cc_label", variant=variant)
    executor.init_map(label, lambda nodes: nodes.copy())
    label.pin_mirrors(invariant="push")
    rounds = executor.run(cc_lp_plan(pgraph, label))
    label.unpin_mirrors()
    return AlgorithmResult(name="CC-LP", values=label.snapshot(), rounds=rounds)
