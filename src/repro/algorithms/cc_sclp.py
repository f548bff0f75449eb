"""CC-SCLP: shortcutting label propagation (Stergiou et al. [78]).

Label propagation interleaved with pointer jumping: each round first
min-reduces neighbor labels (adjacent-vertex), then shortcuts each node's
label to its label's label (trans-vertex). The shortcut lets labels leap
across many hops per round, which is why the paper measures ~14x over
plain CC-LP on the high-diameter road graph.
"""

from __future__ import annotations

from repro.algorithms.common import AlgorithmResult, resolve_executor, shortcut_steps
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
    SyncStep,
)
from repro.partition.base import PartitionedGraph


def cc_sclp_plan(pgraph: PartitionedGraph, label: NodePropMap) -> Plan:
    """One propagate + shortcut round as an operator plan."""
    return Plan(
        name="cc_sclp",
        pgraph=pgraph,
        steps=[
            # Propagation step (adjacent): push my label to neighbors;
            # data-driven, only changed labels push.
            OperatorStep(
                Operator(
                    "sclp:prop",
                    "all",
                    EdgePush(
                        target=label,
                        op=MIN,
                        source=label,
                        # Declarative frontier: only labels that changed
                        # last round push (compiled under codegen).
                        require_active=ActiveFilter(label),
                        skip_zero_degree=False,
                        charge_per_source=1,
                    ),
                )
            ),
            SyncStep(label, "reduce"),
            SyncStep(label, "broadcast"),
            # Shortcut step (trans): label <- label(label).
            *shortcut_steps(label, "sclp:req", "sclp:short"),
        ],
        quiesce=(label,),
        pins={label: "none"},
    )


def cc_sclp(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    executor: Executor | None = None,
) -> AlgorithmResult:
    """Run shortcutting label propagation; values are component ids."""
    executor = resolve_executor(cluster, executor)
    label = NodePropMap(cluster, pgraph, "sclp_label", variant=variant)
    executor.init_map(label, lambda nodes: nodes.copy())
    rounds = executor.run(cc_sclp_plan(pgraph, label))
    return AlgorithmResult(name="CC-SCLP", values=label.snapshot(), rounds=rounds)
