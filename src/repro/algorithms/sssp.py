"""SSSP / BFS: data-driven Bellman-Ford (adjacent-vertex).

Part of the standard distributed-graph suite (Gluon's evaluation runs
bfs/cc/pr/sssp); included here as additional adjacent-vertex programs on
the node-property map. Push-style: a node whose distance improved last
round relaxes its out-edges (``dist(dst) <- min(dist(dst), dist(src) +
w)``). The activity tracker keeps per-round work proportional to the
frontier, and BFS is the unit-weight special case whose round count equals
the eccentricity of the source.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.common import AlgorithmResult, resolve_executor
from repro.cluster.cluster import Cluster
from repro.core.propmap import NodePropMap
from repro.core.reducers import MIN
from repro.core.variants import RuntimeVariant
from repro.exec import (
    ActiveFilter,
    CmpFilter,
    EdgePush,
    Executor,
    Operator,
    OperatorStep,
    Plan,
    ResidualDecl,
    SyncStep,
)
from repro.partition.base import PartitionedGraph

UNREACHED = math.inf


def sssp_plan(
    pgraph: PartitionedGraph, dist: NodePropMap, unit_weights: bool = False
) -> Plan:
    """One Bellman-Ford relaxation round as an operator plan."""
    return Plan(
        name="sssp",
        pgraph=pgraph,
        steps=[
            OperatorStep(
                Operator(
                    "sssp",
                    "all",
                    EdgePush(
                        target=dist,
                        op=MIN,
                        source=dist,
                        # Declarative filters: the frontier (distances
                        # that improved last round) and the reachability
                        # predicate serialize in the plan.
                        require_active=ActiveFilter(dist),
                        charge_per_source=1,
                        value_filter=CmpFilter("ne", UNREACHED),
                        with_weight="add",
                        unit_weights=unit_weights,
                        # Async eligibility: distances improve monotonically
                        # under MIN, so label-correcting relaxation with a
                        # largest-improvement-first queue reaches the same
                        # shortest paths without round barriers.
                        residual=ResidualDecl(mode="monotone"),
                    ),
                )
            ),
            SyncStep(dist, "reduce"),
            SyncStep(dist, "broadcast"),
        ],
        quiesce=(dist,),
        pins={dist: "none"},
    )


def sssp(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    source: int = 0,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    unit_weights: bool = False,
    executor: Executor | None = None,
) -> AlgorithmResult:
    """Single-source shortest paths; values are distances (inf = unreached)."""
    executor = resolve_executor(cluster, executor)
    if not 0 <= source < pgraph.num_nodes:
        raise ValueError(f"source {source} out of range")
    dist = NodePropMap(cluster, pgraph, "sssp_dist", variant=variant)
    executor.init_map(dist, lambda nodes: np.where(nodes == source, 0.0, UNREACHED))
    rounds = executor.run(sssp_plan(pgraph, dist, unit_weights=unit_weights))
    values = dist.snapshot()
    reached = sum(1 for v in values.values() if v != UNREACHED)
    return AlgorithmResult(
        name="SSSP",
        values=values,
        rounds=rounds,
        stats={"reached": float(reached)},
    )


def bfs(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    source: int = 0,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    executor: Executor | None = None,
) -> AlgorithmResult:
    """BFS levels from ``source``: unit-weight SSSP with integer levels."""
    executor = resolve_executor(cluster, executor)
    result = sssp(
        cluster,
        pgraph,
        source=source,
        variant=variant,
        unit_weights=True,
        executor=executor,
    )
    levels = {
        node: (int(value) if value != UNREACHED else UNREACHED)
        for node, value in result.values.items()
    }
    return AlgorithmResult(
        name="BFS", values=levels, rounds=result.rounds, stats=dict(result.stats)
    )
