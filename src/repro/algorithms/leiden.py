"""LD: deterministic distributed Leiden community detection [79].

The paper's LD is the first distributed Leiden implementation; this module
reproduces its structure:

1. **local moving** - same modularity-gain moving as Louvain
   (:func:`repro.algorithms.louvain.local_moving`);
2. **refinement** - each cluster is split into subclusters: a constrained
   local-moving pass merges nodes only within their cluster (using its own
   tot/size maps), then an intra-cluster label-propagation + shortcut pass
   splits every refined group into connected pieces. This enforces
   Leiden's headline guarantee: every community is internally connected;
3. **aggregation** - the graph is coarsened over *subclusters*, but the
   next level's local moving starts from the *cluster* partition, so
   loosely connected subclusters can move to neighboring clusters as
   whole units - exactly the paper's description of LD. The level loop
   is :func:`~repro.algorithms.common.leiden_levels`, Galois' LD's too.

This uses five persistent node-property maps per level (cluster, cluster
tot, cluster size, refinement cluster/tot/size share the same three map
shapes, plus the subcluster map), matching the paper's "five node property
maps for cluster and subcluster information".
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import (
    AlgorithmResult,
    community_result,
    leiden_levels,
    resolve_executor,
    shortcut_steps,
)
from repro.algorithms.louvain import local_moving
from repro.cluster.cluster import Cluster
from repro.core.propmap import NodePropMap
from repro.core.reducers import MIN
from repro.core.variants import RuntimeVariant
from repro.exec import (
    DstCmpFilter,
    EdgePush,
    Executor,
    Operator,
    OperatorStep,
    Plan,
    SyncStep,
)
from repro.partition.base import PartitionedGraph


def connected_split_plan(
    pgraph: PartitionedGraph, sub: NodePropMap, group_of: np.ndarray, name: str
) -> Plan:
    """One intra-group LP + shortcut round as an operator plan."""
    return Plan(
        name=name,
        pgraph=pgraph,
        steps=[
            OperatorStep(
                Operator(
                    f"{name}:prop",
                    "all",
                    EdgePush(
                        target=sub,
                        op=MIN,
                        source=sub,
                        skip_zero_degree=False,
                        charge_per_edge=1,
                        # Declarative: only intra-group edges propagate
                        # (serializes; compiles to a mask under codegen).
                        edge_filter=DstCmpFilter("eq", group_of),
                    ),
                )
            ),
            SyncStep(sub, "reduce"),
            SyncStep(sub, "broadcast"),
            *shortcut_steps(sub, f"{name}:req", f"{name}:short"),
        ],
        quiesce=(sub,),
        loop_label=name,
        pins={sub: "none"},
    )


def connected_split(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant,
    group_of: np.ndarray,
    name: str,
    executor: Executor | None = None,
) -> tuple[np.ndarray, int]:
    """Split each group into connected subgroups (min-label LP + shortcut).

    Only edges internal to a group propagate labels, so the result labels
    connected components of each group's induced subgraph. The shortcut
    step is the same trans-vertex pointer jumping as CC-SCLP.
    """
    executor = resolve_executor(cluster, executor)
    sub = NodePropMap(cluster, pgraph, name, variant=variant)
    executor.init_map(sub, lambda nodes: nodes.copy())
    rounds = executor.run(connected_split_plan(pgraph, sub, group_of, name))
    return sub.snapshot_array(), rounds


def leiden(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    gamma: float = 1.0,
    max_rounds_per_level: int = 40,
    max_levels: int = 12,
    executor: Executor | None = None,
) -> AlgorithmResult:
    """Run deterministic Leiden; values are community ids per original node.

    Communities are guaranteed internally connected (Leiden's property that
    Louvain lacks) because aggregation always happens over connected
    subclusters.
    """
    executor = resolve_executor(cluster, executor)

    def move(level_graph, level_pgraph, level, seeds):
        return local_moving(
            cluster, level_pgraph, variant, gamma, max_rounds_per_level,
            name=f"ld{level}m", initial_labels=seeds, executor=executor,
        )

    def refine(level_graph, level_pgraph, level, labels):
        # Constrained moving inside clusters, then a split into connected
        # pieces so aggregated communities stay connected. (These plans
        # number the levels from 1.)
        refined, refine_rounds = local_moving(
            cluster, level_pgraph, variant, gamma, max_rounds_per_level,
            name=f"ld{level + 1}r", constraint=labels, executor=executor,
        )
        sub_labels, split_rounds = connected_split(
            cluster, level_pgraph, variant, refined, name=f"ld{level + 1}s",
            executor=executor,
        )
        return sub_labels, refine_rounds + split_rounds

    communities, total_rounds, levels = leiden_levels(
        cluster, pgraph.graph, pgraph, move, refine, max_levels
    )

    # Guarantee the headline Leiden property on the *output*: if the last
    # moving pass left any community disconnected on the original graph,
    # split it into its connected pieces (this never lowers modularity).
    final_labels, cleanup_rounds = connected_split(
        cluster, pgraph, variant, communities, name="ld_final",
        executor=executor,
    )
    total_rounds += cleanup_rounds
    return community_result("LD", pgraph.graph, final_labels, total_rounds, levels, gamma)
