"""Vite-like distributed Louvain (Ghosh et al. [38]).

Same deterministic synchronous Louvain as :mod:`repro.algorithms.louvain`
(the move choice, level loop and moving cutoff of
:mod:`repro.algorithms.common`, so labels and rounds match Kimbap's LV
exactly), but executed the way Vite executes it:

* **single-threaded inspection phase** per refinement round: one thread
  per host walks its edges to build the shared cluster-info map
  (``parallel=False`` - this serial section is why SGR-only beats Vite by
  ~3x in Figure 11);
* **execution phase**: all threads perform atomic reductions on the one
  shared map - concurrent same-cluster updates conflict, which is what CF
  avoids (hub-heavy graphs suffer most);
* **SGR communication**: one partial-update message per host pair, plus a
  mirror broadcast of changed cluster assignments (edge-cut only, as Vite
  supports only edge-cuts);
* optional **early termination**: skip a node with 75% probability once
  its cluster survived 4 consecutive rounds (the application-specific
  heuristic the paper deliberately did not port to Kimbap).

Computation and communication overlap in Vite, so per the paper we report
a single fused time; the cost model's compute/comm split is still recorded
for the curious.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import (
    AlgorithmResult,
    choose_move,
    community_result,
    louvain_levels,
    moving_converged,
    moving_cutoff_state,
    weighted_degrees,
)
from repro.cluster.cluster import Cluster, static_thread
from repro.cluster.metrics import PhaseKind
from repro.partition.base import PartitionedGraph


def _vite_moving_round(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    labels: np.ndarray,
    tots: np.ndarray,
    sizes: np.ndarray,
    strengths: np.ndarray,
    two_m: float,
    gamma: float,
    skip_mask: np.ndarray,
    round_parity: int,
) -> list[tuple[int, int, int]]:
    """One synchronous round; returns the (node, old, new) moves."""
    moves: list[tuple[int, int, int]] = []

    # Inspection: one thread per host builds the shared map of cluster info
    # (a slot per node plus a half-pass over the edges to size the
    # neighbor-cluster entries).
    with cluster.phase(PhaseKind.SERIAL, parallel=False, label="vite:inspect"):
        for part in pgraph.parts:
            counters = cluster.counters(part.host_id)
            counters.node_iters += part.num_masters
            counters.edge_iters += part.num_edges() // 2

    # Execution: all threads, atomic reductions into the shared map.
    with cluster.phase(PhaseKind.REDUCE_COMPUTE, label="vite:execute"):
        for part in pgraph.parts:
            counters = cluster.counters(part.host_id)

            def tot_of(candidate: int) -> float:
                # a scored candidate: one probe of the shared map
                counters.local_ops += 2
                counters.hash_probes += 1
                return float(tots[candidate])

            writers: dict[int, set[int]] = {}
            map_writers: set[int] = set()
            write_count = 0
            num_masters = part.num_masters
            for index in range(num_masters):
                node = int(part.local_to_global[index])
                counters.node_iters += 1
                if skip_mask[node]:
                    continue
                if (node ^ round_parity) & 1:
                    # same parity gating as Kimbap's LV (both implement the
                    # same deterministic algorithm, Section 6.1)
                    continue
                thread = static_thread(index, num_masters, cluster.threads_per_host)
                own_cluster = int(labels[node])
                strength = float(strengths[node])
                weight_to: dict[int, float] = {}
                for edge in part.edge_range(index):
                    counters.edge_iters += 1
                    dst = int(part.local_to_global[part.edge_dst(edge)])
                    if dst == node:
                        continue
                    neighbor_cluster = int(labels[dst])
                    weight_to[neighbor_cluster] = (
                        weight_to.get(neighbor_cluster, 0.0) + part.edge_weight(edge)
                    )
                    # The per-neighbor-cluster weight accumulates in the
                    # *shared* map the inspection phase built (Kimbap's CF
                    # keeps this in thread-local maps instead): one atomic
                    # RMW per edge, with structural map contention.
                    counters.cas_attempts += 1
                    map_writers.add(thread)
                    write_count += 1
                    if len(map_writers) > 1:
                        counters.cas_conflicts += write_count % 2

                best_cluster = choose_move(
                    node, own_cluster, float(tots[own_cluster]), weight_to, strength,
                    gamma, two_m, tot_of,
                    target_size=sizes.__getitem__ if sizes[own_cluster] == 1 else None,
                )
                if best_cluster == own_cluster:
                    continue
                moves.append((node, own_cluster, best_cluster))
                # Atomic updates to the shared map: tot/size of both
                # clusters. Cross-thread same-key updates conflict, and the
                # shared concurrent map also contends structurally (same
                # 1-in-2 model as SharedMapReduction).
                for key in (own_cluster, best_cluster):
                    counters.cas_attempts += 2  # tot and size
                    key_writers = writers.setdefault(key, set())
                    key_writers.add(thread)
                    if len(key_writers) > 1:
                        counters.cas_conflicts += 2
                    map_writers.add(thread)
                    write_count += 2
                    if len(map_writers) > 1:
                        counters.cas_conflicts += write_count % 2

    # SGR: partial updates to owners, one message per host pair; changed
    # assignments broadcast to mirror hosts.
    with cluster.phase(PhaseKind.REDUCE_SYNC, label="vite:sgr"):
        per_pair = max(len(moves) // max(cluster.num_hosts, 1), 1)
        for src in range(cluster.num_hosts):
            for dst in range(cluster.num_hosts):
                cluster.network.send(src, dst, 24 * per_pair)
        cluster.network.allreduce(1)

    # Apply synchronously (the BSP step boundary).
    for node, old, new in moves:
        labels[node] = new
        tots[old] -= strengths[node]
        tots[new] += strengths[node]
        sizes[old] -= 1
        sizes[new] += 1
    return moves


def _vite_level(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    gamma: float,
    max_rounds: int,
    early_termination: bool,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    graph = pgraph.graph
    strengths = weighted_degrees(graph)
    two_m = float(strengths.sum())
    labels = np.arange(graph.num_nodes, dtype=np.int64)
    if two_m == 0:
        return labels, 0
    tots = strengths.copy()
    sizes = np.ones(graph.num_nodes, dtype=np.int64)
    stable_rounds = np.zeros(graph.num_nodes, dtype=np.int64)
    # Vite's footprint: the single shared map holds (label, tot, size) per
    # node plus per-host mirrored label copies - no thread-local maps.
    for part in pgraph.parts:
        cluster.track_memory(
            part.host_id, "vite", 3 * part.num_masters + part.num_mirrors
        )
    cutoff = moving_cutoff_state(graph.num_nodes)
    rounds = 0
    while rounds < max_rounds:
        if early_termination:
            eligible = stable_rounds >= 4
            skip_mask = eligible & (rng.random(graph.num_nodes) < 0.75)
        else:
            skip_mask = np.zeros(graph.num_nodes, dtype=bool)
        moves = _vite_moving_round(
            cluster, pgraph, labels, tots, sizes, strengths, two_m, gamma, skip_mask,
            round_parity=rounds % 2,
        )
        moved_nodes = {node for node, _, _ in moves}
        stable_rounds += 1
        if moved_nodes:
            stable_rounds[list(moved_nodes)] = 0
        rounds += 1
        # the same cutoff as Kimbap's LV (Vite/Grappolo use one too)
        if moving_converged(cutoff, len(moves), graph, lambda: labels, gamma):
            break
    return labels, rounds


def vite_louvain(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    gamma: float = 1.0,
    min_gain: float = 1e-6,
    max_rounds_per_level: int = 40,
    max_levels: int = 12,
    early_termination: bool = False,
    seed: int = 0,
) -> AlgorithmResult:
    """Run Vite-style distributed Louvain; values are community ids."""
    if pgraph.policy not in ("oec", "iec"):
        raise ValueError("Vite supports edge-cut partitioning only")
    rng = np.random.default_rng(seed)

    def move(level_graph, level_pgraph, level):
        return _vite_level(
            cluster, level_pgraph, gamma, max_rounds_per_level, early_termination, rng
        )

    communities, rounds, levels = louvain_levels(
        cluster, pgraph.graph, pgraph, move, gamma, min_gain, max_levels
    )
    return community_result("Vite-LV", pgraph.graph, communities, rounds, levels, gamma)
