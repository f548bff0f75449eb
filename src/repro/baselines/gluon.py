"""Gluon-like adjacent-vertex engine (Dathathri et al. [27]): CC-LP, SSSP, BFS.

Gluon's execution differs from Kimbap's in how reductions are absorbed
(Section 4.1): mirrors are always cached and operators reduce *directly
into the cached values with atomics* during compute - no thread-local maps
and no combining step. Atomic min/max reductions rarely retry in practice
(a failed CAS whose value is already better simply drops out), so the
conflict accounting here only charges when a cross-thread update actually
changes the slot. Communication uses the partitioning-invariant elisions:
only updated values are reduced to masters (temporal invariant), and
broadcast is elided for mirrors a push-style operator never reads.
Gluon runs Kimbap's own SSSP and CC-LP plans
(:func:`~repro.algorithms.sssp.sssp_plan`,
:func:`~repro.algorithms.cc_lp.cc_lp_plan`) on maps wired this way, so
the two systems differ in the substrate only.

The paper's claim to reproduce: Kimbap's CC-LP is *comparable* to Gluon's
(Figures 9c/10c) - the compiler's pinned-mirror specialization closes the
gap that request/response would otherwise open.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.algorithms.cc_lp import cc_lp_plan
from repro.algorithms.common import AlgorithmResult
from repro.algorithms.sssp import sssp_plan
from repro.cluster.cluster import Cluster
from repro.core.propmap import NodePropMap
from repro.core.reducers import ReduceOp
from repro.core.reduction import dict_arrays
from repro.core.variants import RuntimeVariant
from repro.exec import Executor
from repro.partition.base import PartitionedGraph


class GluonAtomicReduction:
    """In-place atomic reductions into the cached proxy values.

    Unlike :class:`~repro.core.reduction.SharedMapReduction` (whose hash
    map slots ping-pong on every cross-thread touch), Gluon reduces into a
    dense per-proxy array with compare-exchange loops; an attempt whose
    value no longer improves the slot costs nothing extra. Conflicts are
    therefore charged only for cross-thread updates that *change* the
    value - the reason Gluon stays fast on power-law graphs.
    """

    conflict_free = False

    def __init__(self, cluster: Cluster, host_id: int) -> None:
        self.cluster = cluster
        self.host_id = host_id
        self.map: dict[int, Any] = {}
        self._last_writer: dict[int, int] = {}

    def reduce(self, thread: int, key: int, value: Any, op: ReduceOp) -> None:
        counters = self.cluster.counters(self.host_id)
        counters.cas_attempts += 1
        old = self.map.get(key)
        new = value if old is None else op(old, value)
        if new != old:
            previous_writer = self._last_writer.get(key)
            if previous_writer is not None and previous_writer != thread:
                counters.cas_conflicts += 1
            self.map[key] = new
            self._last_writer[key] = thread

    def pending(self) -> int:
        return len(self.map)

    def collect(self, op: ReduceOp) -> dict[int, Any]:
        del op
        combined = self.map
        self.map = {}
        self._last_writer.clear()
        return combined

    def collect_arrays(self, op: ReduceOp) -> tuple[np.ndarray, list[Any]]:
        """The reduce-sync collect: the proxies reduced into this round, as
        ascending keys and a plain list of values (the owner applies them
        by the per-key scalar rule)."""
        return dict_arrays(self.collect(op))


def make_gluon_map(
    cluster: Cluster, pgraph: PartitionedGraph, name: str, value_nbytes: int = 8
) -> NodePropMap:
    """A node-property map wired the Gluon way: GAR-style storage (Gluon
    also keeps masters + mirrors in dense local arrays) with in-place
    atomic reduction instead of thread-local maps."""
    prop = NodePropMap(
        cluster, pgraph, name, variant=RuntimeVariant.KIMBAP, value_nbytes=value_nbytes
    )
    prop.reductions = [
        GluonAtomicReduction(cluster, host) for host in range(cluster.num_hosts)
    ]
    return prop


def gluon_sssp(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    source: int = 0,
    unit_weights: bool = False,
) -> AlgorithmResult:
    """Gluon's data-driven SSSP (push-style Bellman-Ford on atomics)."""
    dist = make_gluon_map(cluster, pgraph, "gluon_dist")
    dist.set_initial(lambda node: 0.0 if node == source else math.inf)
    # The scalar executor: the atomic reduction has no bulk entry point.
    rounds = Executor(cluster).run(sssp_plan(pgraph, dist, unit_weights))
    return AlgorithmResult(name="Gluon-SSSP", values=dist.snapshot(), rounds=rounds)


def gluon_bfs(
    cluster: Cluster, pgraph: PartitionedGraph, source: int = 0
) -> AlgorithmResult:
    result = gluon_sssp(cluster, pgraph, source=source, unit_weights=True)
    levels = {
        node: (int(v) if v != math.inf else math.inf)
        for node, v in result.values.items()
    }
    return AlgorithmResult(name="Gluon-BFS", values=levels, rounds=result.rounds)


def gluon_cc_lp(cluster: Cluster, pgraph: PartitionedGraph) -> AlgorithmResult:
    """Gluon's label-propagation connected components."""
    label = make_gluon_map(cluster, pgraph, "gluon_label")
    label.set_initial(lambda node: node)
    rounds = Executor(cluster).run(cc_lp_plan(pgraph, label))
    return AlgorithmResult(name="Gluon-LP", values=label.snapshot(), rounds=rounds)
