"""PageRank: topology-driven power iteration (adjacent-vertex).

Residual-free formulation: every round each node pushes
``d * rank / out_degree`` to its neighbors (a SUM reduction into a fresh
contribution map) and the owner rebuilds ``rank = (1 - d) / N +
contribution``. Dangling mass is redistributed uniformly, keeping the
ranks a probability distribution (sum == 1), which is also the invariant
the tests check against networkx.

Under vertex cuts a node's out-degree spans hosts, so the global degrees
are themselves computed by a SUM reduction first - the same warm-up as
MIS and k-core.

The whole run is one ``repro.exec`` plan - the degree warm-up, then the
round loop (push, dangling redistribution, rebuild, delta check); the
executor picks the scalar or vectorized backend with byte-identical
counters, modeled time, and rank values.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.common import OVERWRITE, AlgorithmResult, left_sum, resolve_executor
from repro.cluster.cluster import Cluster
from repro.core.propmap import NodePropMap
from repro.core.reducers import SUM
from repro.core.variants import RuntimeVariant
from repro.exec import (
    DegreeReduce,
    EdgePush,
    Executor,
    HostStep,
    NodeUpdate,
    Operator,
    OperatorStep,
    Plan,
    ResetStep,
    ResidualDecl,
    SyncStep,
)
from repro.partition.base import PartitionedGraph


def pagerank(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    damping: float = 0.85,
    tolerance: float = 1e-9,
    max_rounds: int = 100,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    executor: Executor | None = None,
) -> AlgorithmResult:
    """Compute PageRank; values sum to 1 over all nodes."""
    executor = resolve_executor(cluster, executor)
    if not 0 < damping < 1:
        raise ValueError("damping must be in (0, 1)")
    num_nodes = pgraph.num_nodes
    if num_nodes == 0:
        return AlgorithmResult(name="PR", values={}, rounds=0)

    degree = NodePropMap(cluster, pgraph, "pr_degree", variant=variant)
    executor.init_map(degree, lambda nodes: np.zeros(nodes.size, dtype=np.int64))
    rank = NodePropMap(cluster, pgraph, "pr_rank", variant=variant)
    contribution = NodePropMap(cluster, pgraph, "pr_contrib", variant=variant)
    degrees = None  # the global out-degrees, once the warm-up has run

    def start() -> None:
        # After the degree warm-up: the global degrees, then the ranks.
        nonlocal degrees
        degrees = degree.snapshot_array()
        executor.init_map(rank, lambda nodes: np.full(nodes.size, 1.0 / num_nodes))

    base = (1.0 - damping) / num_nodes
    # Loop-private state lives in one dict so crash recovery can snapshot
    # and restore it alongside the maps (the recoverable-loop contract).
    state: dict = {"previous": np.full(num_nodes, 1.0 / num_nodes), "delta": math.inf}

    def redistribute_dangling() -> None:
        # Dangling nodes' mass redistributes uniformly (host-side scalar,
        # one allreduce worth of traffic rides the contribution sync).
        dangling = left_sum(state["previous"][degrees == 0])
        state["uniform"] = base + damping * dangling / num_nodes
        state["contributions"] = contribution.snapshot_array()

    def update_delta() -> None:
        current = rank.snapshot_array()
        state["delta"] = left_sum(np.abs(current - state["previous"]))
        state["previous"] = current

    def restore_state(saved) -> None:
        state.clear()
        state.update(saved)

    loop = Plan(
        name="pagerank",
        pgraph=pgraph,
        steps=[
            ResetStep(contribution, lambda nodes: np.zeros(nodes.size)),
            OperatorStep(
                Operator(
                    "pr:push",
                    "all",
                    EdgePush(
                        target=contribution,
                        op=SUM,
                        source=rank,
                        charge_per_source=2,
                        transform=lambda values, nodes: (
                            damping * values / degrees[nodes]
                        ),
                        # Async eligibility: delta-PageRank mass propagation.
                        # Each node holds a residual of un-pushed mass
                        # (initially the teleport share); processing folds it
                        # into the rank and pushes transform(residual, node)
                        # along the out-edges, with dangling mass pooled and
                        # flushed uniformly - the same fixed point as the
                        # power iteration, reached highest-residual-first.
                        residual=ResidualDecl(
                            mode="accumulate",
                            tolerance=tolerance,
                            value=rank,
                            dangling="uniform",
                            dangling_scale=damping,
                            init_value=lambda nodes: np.zeros(nodes.size),
                            init_residual=lambda nodes: np.full(
                                nodes.size, base
                            ),
                        ),
                    ),
                )
            ),
            SyncStep(contribution, "reduce"),
            HostStep("pr:dangling", redistribute_dangling),
            OperatorStep(
                Operator(
                    "pr:rebuild",
                    "masters",
                    NodeUpdate(
                        target=rank,
                        op=OVERWRITE,
                        value=lambda nodes: (
                            state["uniform"] + state["contributions"][nodes]
                        ),
                        charge_per_node=2,
                        read_names=("pr_contrib",),
                    ),
                )
            ),
            SyncStep(rank, "reduce"),
            SyncStep(rank, "broadcast"),
            HostStep("pr:delta", update_delta),
        ],
        converged=lambda: state["delta"] < tolerance,
        maps=(rank, contribution),
        max_rounds=max_rounds,
        raise_on_max_rounds=False,
        loop_label="pagerank",
        extra_snapshot=lambda: dict(state),
        extra_restore=restore_state,
        pins={rank: "none"},
    )
    warmup = [
        OperatorStep(Operator("pr:deg", "all", DegreeReduce(degree))),
        SyncStep(degree, "reduce"),
        HostStep("pr:start", start),
    ]
    rounds = executor.run(Plan(name="PR", pgraph=pgraph, steps=[*warmup, loop]))
    if rounds:
        values = rank.snapshot()
    else:
        values = {node: value for node, value in enumerate(state["previous"].tolist())}
    return AlgorithmResult(
        name="PR",
        values=values,
        rounds=rounds,
        stats={"delta": state["delta"], "mass": left_sum(np.fromiter(values.values(), float))},
    )
