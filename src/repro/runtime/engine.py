"""Compute-phase drivers: ParFor over partitions and the KimbapWhile loop.

``par_for`` is the runtime realization of the paper's ParFor: it visits the
chosen iteration set on every host, dealing items to virtual threads with
OpenMP-static chunking, and charges one ``node_iters`` event per active
node. The operator body receives an :class:`OperatorContext` exposing
host/thread/partition plus convenience edge iteration that charges
``edge_iters``.

``kimbap_while`` realizes the quiescence loop: repeat the round body until
none of the given node-property maps changed in a round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core.propmap import NodePropMap
from repro.partition.base import LocalPartition, PartitionedGraph

ITERATION_MODES = ("masters", "all")


class NonQuiescenceError(RuntimeError):
    """A quiescence loop hit its round cap without converging.

    Subclasses ``RuntimeError`` for backward compatibility; carries the
    rounds executed and the names of the maps that kept updating so
    ``eval.harness`` can record the failure as a structured run outcome
    (like the paper's OOM cells) instead of crashing.
    """

    def __init__(self, rounds: int, map_names: Sequence[str], loop: str = "KimbapWhile") -> None:
        names = ", ".join(map_names) or "<none>"
        super().__init__(
            f"{loop} did not quiesce in {rounds} rounds (maps: {names})"
        )
        self.rounds = rounds
        self.map_names = list(map_names)
        self.loop = loop


@dataclass
class OperatorContext:
    """Everything an operator body may touch for one active node."""

    cluster: Cluster
    part: LocalPartition
    host: int
    thread: int
    local: int  # active node, local id
    node: int  # active node, global id

    def edges(self) -> Iterator[int]:
        """Local edge indices of the active node; charges per edge."""
        counters = self.cluster.counters(self.host)
        for edge in self.part.edge_range(self.local):
            counters.edge_iters += 1
            yield edge

    def edge_dst_local(self, edge: int) -> int:
        return self.part.edge_dst(edge)

    def edge_dst(self, edge: int) -> int:
        """Global id of the edge's destination."""
        return int(self.part.local_to_global[self.part.edge_dst(edge)])

    def edge_weight(self, edge: int) -> float:
        return self.part.edge_weight(edge)

    def charge(self, ops: int = 1) -> None:
        """Charge generic operator-body ALU work."""
        self.cluster.counters(self.host).local_ops += ops


def _iteration_set(part: LocalPartition, mode: str) -> range:
    if mode == "masters":
        return range(part.num_masters)
    if mode == "all":
        return range(part.num_local)
    raise ValueError(f"unknown iteration mode {mode!r}; have {ITERATION_MODES}")


def par_for(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    mode: str,
    body: Callable[[OperatorContext], None],
    kind: PhaseKind = PhaseKind.REDUCE_COMPUTE,
    label: str = "",
    hosts: Sequence[int] | None = None,
) -> None:
    """Run ``body`` once per active node on every host, inside one phase.

    ``hosts`` restricts the visit to a subset of hosts (ascending order
    expected): the host-shard execution of ``repro.exec.pool``, where each
    worker process drives only the hosts it owns. Per-host work is
    independent inside a phase (the BSP contract), so the restricted visit
    produces exactly the serial per-host effects for the visited hosts.
    """
    operator = label or getattr(body, "__qualname__", getattr(body, "__name__", ""))
    with cluster.phase(kind, label=label, operator=operator):
        for host in range(cluster.num_hosts) if hosts is None else hosts:
            part = pgraph.parts[host]
            items = _iteration_set(part, mode)
            total = len(items)
            counters = cluster.counters(host)
            for index, local in enumerate(items):
                counters.node_iters += 1
                thread = cluster.thread_of(index, total)
                body(
                    OperatorContext(
                        cluster=cluster,
                        part=part,
                        host=host,
                        thread=thread,
                        local=local,
                        node=int(part.local_to_global[local]),
                    )
                )


def kimbap_while(
    maps: Sequence[NodePropMap] | NodePropMap,
    round_body: Callable[[], None],
    max_rounds: int = 100000,
) -> int:
    """Repeat ``round_body`` until none of ``maps`` updated; returns rounds.

    ``round_body`` is one full BSP round: compute phases plus the sync
    collectives (which is where the maps' updated flags get set).

    The loop is the recoverable driver (``repro.faults.recovery``), which
    stamps every phase of an iteration with its BSP round id. Without a
    fault injector on the cluster that is all it adds; with one it
    checkpoints the maps every ``checkpoint_interval`` rounds and, on an
    injected host crash, restores the last checkpoint and replays to an
    identical fixed point.
    """
    from repro.faults.recovery import run_recoverable_loop

    if isinstance(maps, NodePropMap):
        maps = [maps]
    return run_recoverable_loop(
        maps[0].cluster,
        maps,
        round_body,
        before_round=lambda: [m.reset_updated() for m in maps],
        converged=lambda: not any(m.is_updated() for m in maps),
        max_rounds=max_rounds,
        advance_rounds=True,
        on_max_rounds=lambda rounds: NonQuiescenceError(
            rounds, [m.name for m in maps]
        ),
    )
