"""k-core decomposition by distributed H-index iteration (adjacent-vertex).

An extension application beyond the paper's seven (its introduction
motivates clustering-style problems as exactly this kind of workload):
core numbers via the Montresor-De Pellegrini-Miorandi scheme. Every
node's estimate starts at its degree; each round it lowers the estimate to
the H-index of its neighbors' estimates (the largest h such that at least
h neighbors have estimate >= h). The sequence is monotone non-increasing
and converges to the exact core numbers.

The H-index of a node's *full* neighbor multiset does not decompose over
partial views, so the operator must see all of a node's out-edges at its
master: the algorithm requires an outgoing edge-cut (like LV/LD in the
paper, which are also run on edge-cuts). All reads are of the active node
and its neighbors - adjacent-vertex, mirrors pinned, no request phases.
"""

from __future__ import annotations

from repro.algorithms.common import AlgorithmResult, resolve_executor
from repro.cluster.cluster import Cluster
from repro.core.propmap import NodePropMap
from repro.core.reducers import MIN
from repro.core.variants import RuntimeVariant
from repro.exec import Executor, Operator, OperatorStep, Plan, ScalarKernel, SyncStep
from repro.partition.base import PartitionedGraph


def h_index(values: list[int]) -> int:
    """Largest h with at least h entries >= h."""
    best = 0
    for index, value in enumerate(sorted(values, reverse=True), start=1):
        if value >= index:
            best = index
        else:
            break
    return best


def k_core_plan(pgraph: PartitionedGraph, estimate: NodePropMap) -> Plan:
    """One H-index lowering round as an operator plan."""

    def operator(ctx) -> None:
        current = estimate.read_local(ctx.host, ctx.local)
        if current == 0:
            return
        neighbor_estimates = []
        for edge in ctx.edges():
            dst_local = ctx.edge_dst_local(edge)
            if dst_local == ctx.local:
                continue  # self-loops never support a core
            neighbor_estimates.append(estimate.read_local(ctx.host, dst_local))
        bound = h_index(neighbor_estimates)
        ctx.charge(len(neighbor_estimates))
        if bound < current:
            estimate.reduce(ctx.host, ctx.thread, ctx.node, bound, MIN)

    return Plan(
        name="k_core",
        pgraph=pgraph,
        steps=[
            OperatorStep(
                Operator(
                    "core",
                    "masters",
                    ScalarKernel(
                        operator,
                        read_names=(estimate.name,),
                        write_names=((estimate.name, MIN.name),),
                    ),
                )
            ),
            SyncStep(estimate, "reduce"),
            SyncStep(estimate, "broadcast"),
        ],
        quiesce=(estimate,),
        pins={estimate: "none"},
    )


def k_core(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    executor: Executor | None = None,
) -> AlgorithmResult:
    """Compute core numbers; values are exact k-core indices per node."""
    executor = resolve_executor(cluster, executor)
    if cluster.num_hosts > 1 and pgraph.policy != "oec":
        raise ValueError(
            "k-core's H-index needs every node's full edge list at its "
            "master: partition with the outgoing edge-cut ('oec')"
        )
    estimate = NodePropMap(cluster, pgraph, "core_estimate", variant=variant)
    executor.init_map(estimate, elementwise=lambda node: pgraph.graph.degree(node))
    rounds = executor.run(k_core_plan(pgraph, estimate))
    values = {k: int(v) for k, v in estimate.snapshot().items()}
    return AlgorithmResult(
        name="K-CORE",
        values=values,
        rounds=rounds,
        stats={"max_core": max(values.values(), default=0)},
    )
