"""Asynchronous execution baseline: the design Kimbap rejected (Section 4.1).

"An asynchronous execution model may hide communication overheads, but may
generate a large number of messages, generate duplicate messages, and
yield high materialization overheads. Kimbap instead batches and
de-duplicates messages..."

This module implements that rejected alternative for label-propagation
connected components, faithfully to the quote:

* every reduction that improves a remote node's value sends an *immediate*
  message to the owner (no per-round batching: one message per update);
* the owner eagerly forwards every accepted update to all mirror hosts
  (again one message per mirror per update - duplicates included, since
  the same label can be forwarded repeatedly along different paths);
* each received update pays a materialization cost on arrival (no bulk
  sorted-array construction to amortize into).

Asynchrony converges in fewer sweeps (updates are visible immediately),
but the per-update messaging dwarfs the savings - which is the paper's
argument. `benchmarks/bench_engine_comparison.py` measures it as the
third row next to BSP and the engine layer's async engine, and
`benchmarks/bench_ablations.py` as its execution-model ablation.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import AlgorithmResult
from repro.cluster.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.faults.recovery import run_recoverable_loop
from repro.partition.base import PartitionedGraph

UPDATE_BYTES = 16  # key + value, one per message


def async_cc_lp(cluster: Cluster, pgraph: PartitionedGraph) -> AlgorithmResult:
    """Asynchronous label propagation with eager per-update messaging.

    The sweep loop rides on the shared :func:`run_recoverable_loop`
    skeleton (the same driver the engine layer uses) rather than a private
    ``while changed`` loop; ``advance_rounds=False`` keeps the emitted
    phases byte-identical to the historical baseline.
    """
    graph = pgraph.graph
    # canonical labels at owners; each host also has a local cache of every
    # proxy it hosts
    labels = np.arange(graph.num_nodes, dtype=np.int64)
    caches = [
        {int(g): int(g) for g in part.local_to_global} for part in pgraph.parts
    ]
    owner = pgraph.owner
    state = {"changed": True}

    def sweep() -> None:
        changed = False
        with cluster.phase(PhaseKind.REDUCE_COMPUTE, label="async_lp"):
            for part in pgraph.parts:
                host = part.host_id
                counters = cluster.counters(host)
                cache = caches[host]
                for local in range(part.num_local):
                    node = int(part.local_to_global[local])
                    counters.node_iters += 1
                    node_label = cache[node]
                    for edge in part.edge_range(local):
                        counters.edge_iters += 1
                        dst = int(part.local_to_global[part.edge_dst(edge)])
                        if cache[dst] <= node_label:
                            continue
                        # immediate message to the destination's owner
                        dst_owner = int(owner[dst])
                        cluster.network.send(host, dst_owner, UPDATE_BYTES)
                        counters.local_ops += 1
                        if labels[dst] > node_label:
                            labels[dst] = node_label
                            changed = True
                            caches[dst_owner][dst] = node_label
                            cluster.counters(dst_owner).materialize_ops += 1
                            # eager forwarding to every mirror host; the
                            # same node's label may be forwarded many times
                            # per sweep (the duplicate messages the paper
                            # warns about)
                            for mirror_part in pgraph.parts:
                                if mirror_part.host_id == dst_owner:
                                    continue
                                if dst in mirror_part.global_to_local:
                                    cluster.network.send(
                                        dst_owner, mirror_part.host_id, UPDATE_BYTES
                                    )
                                    caches[mirror_part.host_id][dst] = node_label
                                    cluster.counters(
                                        mirror_part.host_id
                                    ).materialize_ops += 1
                        cache[dst] = min(cache[dst], node_label)
        state["changed"] = changed

    sweeps = run_recoverable_loop(
        cluster,
        [],
        sweep,
        converged=lambda: not state["changed"],
        advance_rounds=False,
    )
    values = {node: int(labels[node]) for node in range(graph.num_nodes)}
    return AlgorithmResult(name="Async-LP", values=values, rounds=sweeps)
