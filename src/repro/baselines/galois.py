"""Galois-like single-host shared-memory asynchronous runtime [64].

Galois runs vertex operators asynchronously: updates are applied in place
with atomics and become visible immediately, so value-propagating
algorithms converge in a handful of sweeps instead of O(log n) BSP rounds
- no per-round request/materialize/sync machinery at all. That is exactly
why Table 3 shows Galois beating Kimbap-on-1-host for MSF and CC-SV
(pointer jumping), while losing badly on LD, where many threads contend on
the same subcluster properties through atomics (Kimbap's thread-local maps
avoid those conflicts entirely).

Conflict accounting:

* value-changing atomic reductions (min/max/labels) charge a conflict only
  when a cross-thread update actually changes the slot - benign retries of
  idempotent reductions are free, as on real hardware;
* Leiden's subcluster total updates are read-modify-write accumulations
  (sums), where *every* cross-thread same-slot update pays the cache-line
  transfer - the SharedMap regime.
"""

from __future__ import annotations


import numpy as np

from repro.algorithms.common import (
    AlgorithmResult,
    choose_move,
    community_result,
    leiden_levels,
    left_sum,
    louvain_levels,
    modularity,
    weighted_degrees,
)
from repro.cluster.cluster import Cluster, static_thread
from repro.cluster.metrics import PhaseKind
from repro.graph.csr import Graph


# Galois's speculative task scheduler costs a few dozen ns per activity
# (worklist push/pop + commit bookkeeping); charged per node task.
TASK_OVERHEAD_UNITS = 2


class _AtomicSlots:
    """Per-sweep conflict accounting for in-place atomic updates."""

    def __init__(self, cluster: Cluster, heavy: bool = False) -> None:
        self.cluster = cluster
        self.heavy = heavy
        self._last_writer: dict[int, int] = {}
        self._writers: dict[int, set[int]] = {}

    def update(self, thread: int, key: int, changed: bool) -> None:
        counters = self.cluster.counters(0)
        counters.cas_attempts += 1
        if self.heavy:
            # Read-modify-write accumulation: every concurrent writer to a
            # hot slot pays a cache-line transfer + retry per competitor
            # (the retry-storm regime; value-blind, unlike min/max).
            writers = self._writers.setdefault(key, set())
            writers.add(thread)
            counters.cas_conflicts += len(writers) - 1
            return
        if changed:
            previous = self._last_writer.get(key)
            if previous is not None and previous != thread:
                counters.cas_conflicts += 1
            self._last_writer[key] = thread

    def new_sweep(self) -> None:
        self._last_writer.clear()
        self._writers.clear()


def _check_single_host(cluster: Cluster) -> None:
    if cluster.num_hosts != 1:
        raise ValueError("Galois is a shared-memory (single host) system")


# ------------------------------------------------------------ CC algorithms


def galois_cc_sv(cluster: Cluster, graph: Graph) -> AlgorithmResult:
    """Asynchronous hook + inline path compression."""
    _check_single_host(cluster)
    parent = np.arange(graph.num_nodes, dtype=np.int64)
    slots = _AtomicSlots(cluster)
    sweeps = 0
    changed = True
    while changed:
        changed = False
        slots.new_sweep()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE, label="galois_sv"):
            counters = cluster.counters(0)
            for node in range(graph.num_nodes):
                counters.node_iters += 1
                counters.local_ops += TASK_OVERHEAD_UNITS
                thread = static_thread(node, graph.num_nodes, cluster.threads_per_host)
                # inline compression: immediately visible to later reads
                while parent[parent[node]] != parent[node]:
                    counters.vector_reads += 2
                    parent[node] = parent[parent[node]]
                    slots.update(thread, node, True)
                    changed = True
                own = int(parent[node])
                counters.vector_reads += 1
                for edge in graph.edge_range(node):
                    counters.edge_iters += 1
                    neighbor = int(parent[graph.edge_dst(edge)])
                    counters.vector_reads += 1
                    low, high = min(own, neighbor), max(own, neighbor)
                    if low < high and parent[high] > low:
                        parent[high] = min(int(parent[high]), low)
                        slots.update(thread, high, True)
                        changed = True
                        own = int(parent[node])
        sweeps += 1
    # final flatten
    with cluster.phase(PhaseKind.REDUCE_COMPUTE, label="galois_sv:flat"):
        counters = cluster.counters(0)
        for node in range(graph.num_nodes):
            while parent[parent[node]] != parent[node]:
                parent[node] = parent[parent[node]]
                counters.vector_reads += 2
    values = {node: int(parent[node]) for node in range(graph.num_nodes)}
    return AlgorithmResult(name="Galois-CC-SV", values=values, rounds=sweeps)


def galois_cc_lp(cluster: Cluster, graph: Graph) -> AlgorithmResult:
    """Label propagation with asynchronous visibility."""
    _check_single_host(cluster)
    label = np.arange(graph.num_nodes, dtype=np.int64)
    slots = _AtomicSlots(cluster)
    sweeps = 0
    changed = True
    while changed:
        changed = False
        slots.new_sweep()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE, label="galois_lp"):
            counters = cluster.counters(0)
            for node in range(graph.num_nodes):
                counters.node_iters += 1
                counters.local_ops += TASK_OVERHEAD_UNITS
                thread = static_thread(node, graph.num_nodes, cluster.threads_per_host)
                own = int(label[node])
                counters.vector_reads += 1
                for edge in graph.edge_range(node):
                    counters.edge_iters += 1
                    dst = graph.edge_dst(edge)
                    if label[dst] > own:
                        label[dst] = own
                        slots.update(thread, dst, True)
                        changed = True
                    counters.vector_reads += 1
        sweeps += 1
    values = {node: int(label[node]) for node in range(graph.num_nodes)}
    return AlgorithmResult(name="Galois-CC-LP", values=values, rounds=sweeps)


# ------------------------------------------------------------------ MSF


def galois_msf(cluster: Cluster, graph: Graph) -> AlgorithmResult:
    """Asynchronous Boruvka with union-find path compression."""
    _check_single_host(cluster)
    parent = np.arange(graph.num_nodes, dtype=np.int64)
    slots = _AtomicSlots(cluster)
    forest: set[tuple[int, int, float]] = set()
    rounds = 0

    def find(node: int, counters) -> int:
        root = node
        while parent[root] != root:
            counters.vector_reads += 1
            root = int(parent[root])
        while parent[node] != root:  # compress
            parent[node], node = root, int(parent[node])
            counters.vector_reads += 1
        return root

    while True:
        slots.new_sweep()
        best: dict[int, tuple[float, int, int, int]] = {}
        with cluster.phase(PhaseKind.REDUCE_COMPUTE, label="galois_msf:min"):
            counters = cluster.counters(0)
            for node in range(graph.num_nodes):
                counters.node_iters += 1
                counters.local_ops += TASK_OVERHEAD_UNITS
                thread = static_thread(node, graph.num_nodes, cluster.threads_per_host)
                own_root = find(node, counters)
                for edge in graph.edge_range(node):
                    counters.edge_iters += 1
                    dst = graph.edge_dst(edge)
                    dst_root = find(dst, counters)
                    if own_root == dst_root:
                        continue
                    candidate = (
                        graph.edge_weight(edge),
                        min(node, dst),
                        max(node, dst),
                        dst_root,
                    )
                    current = best.get(own_root)
                    if current is None or candidate < current:
                        best[own_root] = candidate
                        slots.update(thread, own_root, True)
                    else:
                        slots.update(thread, own_root, False)
        if not best:
            break
        with cluster.phase(PhaseKind.REDUCE_COMPUTE, label="galois_msf:hook"):
            counters = cluster.counters(0)
            for root, (weight, endpoint_a, endpoint_b, other_root) in best.items():
                counters.local_ops += 1
                root_now = find(root, counters)
                other_now = find(other_root, counters)
                if root_now == other_now:
                    continue
                forest.add((endpoint_a, endpoint_b, weight))
                high, low = max(root_now, other_now), min(root_now, other_now)
                parent[high] = low
        rounds += 1
    with cluster.phase(PhaseKind.REDUCE_COMPUTE, label="galois_msf:flat"):
        counters = cluster.counters(0)
        for node in range(graph.num_nodes):
            find(node, counters)
    values = {node: int(parent[node]) for node in range(graph.num_nodes)}
    total_weight = left_sum(np.fromiter((weight for _, _, weight in forest), float))
    return AlgorithmResult(
        name="Galois-MSF",
        values=values,
        rounds=rounds,
        stats={"forest_weight": total_weight, "forest_edges": float(len(forest))},
        extra={"forest": sorted(forest)},
    )


# ------------------------------------------------------------------ MIS


def galois_mis(cluster: Cluster, graph: Graph) -> AlgorithmResult:
    """Priority MIS (same priority order as the distributed version)."""
    from repro.algorithms.mis import IN_SET, OUT, UNDECIDED, _hash_priority

    _check_single_host(cluster)
    degrees = graph.out_degrees()
    priority = [
        (int(degrees[node]), _hash_priority(node), node)
        for node in range(graph.num_nodes)
    ]
    state = np.full(graph.num_nodes, UNDECIDED, dtype=np.int64)
    sweeps = 0
    changed = True
    while changed:
        changed = False
        with cluster.phase(PhaseKind.REDUCE_COMPUTE, label="galois_mis"):
            counters = cluster.counters(0)
            for node in range(graph.num_nodes):
                counters.node_iters += 1
                counters.local_ops += TASK_OVERHEAD_UNITS
                if state[node] != UNDECIDED:
                    continue
                blocked = False
                for edge in graph.edge_range(node):
                    counters.edge_iters += 1
                    dst = graph.edge_dst(edge)
                    counters.vector_reads += 1
                    if state[dst] == UNDECIDED and priority[dst] > priority[node]:
                        blocked = True
                        break
                    if state[dst] == IN_SET:
                        state[node] = OUT
                        blocked = True
                        changed = True
                        break
                if not blocked:
                    state[node] = IN_SET
                    changed = True
                    counters.cas_attempts += 1
                    for edge in graph.edge_range(node):
                        counters.edge_iters += 1
                        dst = graph.edge_dst(edge)
                        if state[dst] == UNDECIDED:
                            state[dst] = OUT
                            counters.cas_attempts += 1
        sweeps += 1
    values = {node: int(state[node]) for node in range(graph.num_nodes)}
    return AlgorithmResult(
        name="Galois-MIS",
        values=values,
        rounds=sweeps,
        stats={"set_size": sum(1 for v in values.values() if v == IN_SET)},
    )


# ----------------------------------------------------------- LV / LD


def _galois_moving(
    cluster: Cluster,
    graph: Graph,
    gamma: float,
    max_sweeps: int,
    heavy_conflicts: bool,
    constraint: np.ndarray | None = None,
    initial: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Local moving with in-place atomic accumulations.

    The move choice (:func:`~repro.algorithms.common.choose_move`) and
    parity gating are those of Kimbap's LV; the execution substrate
    differs - direct array reads and atomic in-place updates instead of
    request phases and thread-local maps - and so does the result: a move
    is visible to the rest of its sweep, there is no singleton guard, and
    the move cutoff counts one sweep, not two."""
    strengths = weighted_degrees(graph)
    two_m = float(strengths.sum())
    labels = (initial if initial is not None else np.arange(graph.num_nodes)).astype(
        np.int64
    ).copy()
    if two_m == 0:
        return labels, 0
    tots = np.zeros(graph.num_nodes)
    np.add.at(tots, labels, strengths)
    sizes = np.bincount(labels, minlength=graph.num_nodes)
    slots = _AtomicSlots(cluster, heavy=heavy_conflicts)
    min_moves = max(int(0.01 * graph.num_nodes), 1)
    best_quality = -np.inf
    stalled_sweeps = 0
    sweeps = 0
    changed = True
    while changed and sweeps < max_sweeps:
        changed = False
        moves_this_sweep = 0
        slots.new_sweep()
        round_parity = sweeps % 2
        with cluster.phase(PhaseKind.REDUCE_COMPUTE, label="galois_moving"):
            counters = cluster.counters(0)

            def tot_of(candidate: int) -> float:
                # a scored candidate reads its cluster's total in place
                counters.local_ops += 2
                counters.vector_reads += 1
                return float(tots[candidate])

            for node in range(graph.num_nodes):
                counters.node_iters += 1
                counters.local_ops += TASK_OVERHEAD_UNITS
                if (node ^ round_parity) & 1:
                    continue
                thread = static_thread(node, graph.num_nodes, cluster.threads_per_host)
                own_cluster = int(labels[node])
                strength = float(strengths[node])
                weight_to: dict[int, float] = {}
                for edge in graph.edge_range(node):
                    counters.edge_iters += 1
                    dst = graph.edge_dst(edge)
                    if dst == node:
                        continue
                    counters.vector_reads += 1
                    neighbor_cluster = int(labels[dst])
                    weight_to[neighbor_cluster] = (
                        weight_to.get(neighbor_cluster, 0.0) + graph.edge_weight(edge)
                    )
                    if heavy_conflicts:
                        # LD refinement accumulates subcluster connectivity
                        # in place per edge - the atomic updates the paper
                        # blames for Galois' LD timeout.
                        slots.update(thread, neighbor_cluster, True)
                best_cluster = choose_move(
                    node, own_cluster, float(tots[own_cluster]), weight_to, strength,
                    gamma, two_m, tot_of, constraint,
                )
                if best_cluster == own_cluster:
                    continue
                # async move: apply immediately with atomic accumulations
                labels[node] = best_cluster
                tots[own_cluster] -= strength
                tots[best_cluster] += strength
                sizes[own_cluster] -= 1
                sizes[best_cluster] += 1
                for key in (own_cluster, best_cluster):
                    slots.update(thread, key, True)
                    slots.update(thread, key, True)  # tot and size
                changed = True
                moves_this_sweep += 1
        sweeps += 1
        if changed and moves_this_sweep < min_moves:
            break
        if changed:
            quality = modularity(graph, labels, gamma)
            if quality > best_quality + 1e-12:
                best_quality = quality
                stalled_sweeps = 0
            else:
                stalled_sweeps += 1
                if stalled_sweeps >= 4:
                    break
    return labels, sweeps


def galois_louvain(
    cluster: Cluster,
    graph: Graph,
    gamma: float = 1.0,
    min_gain: float = 1e-6,
    max_sweeps_per_level: int = 40,
    max_levels: int = 12,
) -> AlgorithmResult:
    _check_single_host(cluster)

    def move(level_graph, level_pgraph, level):
        return _galois_moving(
            cluster, level_graph, gamma, max_sweeps_per_level, heavy_conflicts=False
        )

    # No partition: the coarse graphs stay whole and coarsening is free.
    communities, sweeps, levels = louvain_levels(
        cluster, graph, None, move, gamma, min_gain, max_levels
    )
    return community_result("Galois-LV", graph, communities, sweeps, levels, gamma)


def galois_leiden(
    cluster: Cluster,
    graph: Graph,
    gamma: float = 1.0,
    max_sweeps_per_level: int = 40,
    max_levels: int = 12,
) -> AlgorithmResult:
    """Leiden with in-place atomics: the subcluster refinement's property
    updates contend heavily (the paper's explanation for Galois timing out
    on LD), charged via the heavy-conflict regime."""
    _check_single_host(cluster)

    def move(level_graph, level_pgraph, level, seeds):
        return _galois_moving(
            cluster, level_graph, gamma, max_sweeps_per_level, heavy_conflicts=False,
            initial=seeds,
        )

    def refine(level_graph, level_pgraph, level, labels):
        # Refinement with atomics on subcluster properties: heavy conflicts.
        return _galois_moving(
            cluster, level_graph, gamma, max_sweeps_per_level, heavy_conflicts=True,
            constraint=labels,
        )

    communities, sweeps, levels = leiden_levels(
        cluster, graph, None, move, refine, max_levels
    )
    return community_result("Galois-LD", graph, communities, sweeps, levels, gamma)
