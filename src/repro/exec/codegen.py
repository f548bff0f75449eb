"""Plan-to-kernel code generation: the compiled per-round execution path.

Given a :class:`~repro.exec.plan.Plan` and a concrete ``(cluster,
backend)`` binding, :func:`compile_plan` lowers the plan's step walk into
a :class:`CompiledPlan` - a flat list of prebound entries the executor
replays each round with no per-round ``isinstance`` dispatch and no
per-round kernel-closure construction. There is one implementation per
kernel form and backend: the scalar backend binds the reference
``par_for`` bodies (the oracle), the bulk backend binds the compiled
kernels below.

* **Dispatch caching** - every step's backend decision (``par_for`` vs
  :func:`run_hosted`, kernel body, reset/host callables) is made at
  compile time, once per ``(plan, executor)`` binding.
* **Compiled kernels** - each declarative kernel form
  (:class:`~repro.exec.plan.EdgePush`, :class:`~repro.exec.plan.NodeUpdate`,
  :class:`~repro.exec.plan.DegreeReduce`, and the trans-vertex
  :class:`~repro.exec.plan.KeyRequest`, :class:`~repro.exec.plan.NodeGather`,
  :class:`~repro.exec.plan.NeighborReduceToKey`) is built per host into a
  straight-line numpy runner over *preassembled* CSR slices: the degree
  filter, edge expansion (``source_pos``/``edge_ids``), thread dealing,
  destination gather, weights, and constant pushes are computed once and
  frozen; each round only reads the live property values, applies the
  baked transform, and reduces. Charge constants (``charge_per_source *
  |sel|``, thread boundaries) are baked at build time. The per-round work
  drops from the full O(E) expansion pipeline to a gather + a reduce.
* **One EdgePush kernel** - :class:`PreparedFrontierPush` serves every
  push. What cannot be frozen is the *selection*: each round it gathers
  the frontier (the ``require_active`` map's dense activity mask; a host
  with no active copy leaves before the gather), shrinks it with the
  value filter, and expands each surviving source's run of edges into
  positions in the frozen expansion - one formulation at every density
  (DESIGN.md, "Why there is one frontier gather"). Filters are mask
  calls - declarative specs (:class:`~repro.exec.plan.CmpFilter`,
  :class:`~repro.exec.plan.DstCmpFilter`) and opaque array-style
  callables share the spec call signature - and a filter-free push is the
  full-frontier case of the same kernel.

One compute phase is one entry, one :class:`PhaseRecord` and one driver
call; adjacent operator steps are legal and simply run as consecutive
phases (DESIGN.md, "Why there is no fusion or deferral").

The byte-identity contract is the one the bulk backend honors against the
scalar oracle: a compiled run's ``RunResult.to_dict()`` - counters,
conflicts, modeled seconds, trace rows - matches the scalar run exactly
(the conformance table, ``tests/test_conformance.py``).
The compiled kernels run everywhere - under fault injection and memory
limits too - because they preserve the exact per-host event sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core.reducers import SUM
from repro.core.reduction import _frozen
from repro.exec.plan import (
    DegreeReduce,
    EdgePush,
    HostStep,
    KeyRequest,
    NeighborReduceToKey,
    NodeGather,
    NodeUpdate,
    Operator,
    OperatorStep,
    Plan,
    ResetStep,
    ScalarKernel,
    SyncStep,
    Until,
    apply_value_filter,
)
from repro.partition.base import LocalPartition, PartitionedGraph

# Compiled-entry tags: a compute phase and a prebound zero-argument
# callable (sync collective / reset / host step) - the closed dispatch set
# of repro.exec.executor.run_entry - plus, in outer loops only, a sub-plan
# and an Until predicate, which the engine's outer loop handles itself.
ENTRY_OPERATOR = 0
ENTRY_EXEC = 1
ENTRY_PLAN = 2
ENTRY_UNTIL = 3


# ------------------------------------------------------- specialized kernels


class _SpecializedKernel:
    """A bulk kernel compiled per host on first visit, then replayed.

    Subclasses build one zero-argument runner closure per host over the
    host's static arrays; ``run_host`` is called inside an open phase with
    ``node_iters`` already charged (by :func:`run_hosted`).
    """

    def __init__(self, kernel: Any, space: str) -> None:
        self.kernel = kernel
        self.space = space
        self._runners: dict[int, Callable[[], None]] = {}

    def run_host(self, cluster: Cluster, part: Any, host: int) -> None:
        runner = self._runners.get(host)
        if runner is None:
            runner = self._build(cluster, part, host)
            self._runners[host] = runner
        runner()

    def _build(self, cluster: Cluster, part: Any, host: int):
        raise NotImplementedError


def _noop() -> None:
    return None


def _per_node(values: Any, nodes: np.ndarray, what: str, target: Any) -> np.ndarray:
    """A plan callable's result as it enters a compiled kernel: one value
    per node it was handed. Returning a whole per-node array instead of
    ``array[nodes]``, or a scalar meant to broadcast, is the plausible
    mistake - and the push indexes the result before the reduce could
    notice, so it is caught here."""
    values = np.asarray(values)
    if values.shape != nodes.shape:
        raise ValueError(
            f"{what} into map {target.name!r} returned shape {values.shape} "
            f"for {nodes.size} node(s); it must return one value per node, "
            f"shape {nodes.shape}"
        )
    return values


class PreparedFrontierPush(_SpecializedKernel):
    """The compiled EdgePush: the static decomposition frozen at build,
    the per-round selection applied as numpy masks.

    The partition-derived pipeline - degree selection, CSR expansion
    (``source_pos``/destinations/threads/weights), charge constants - is
    computed once per host. What cannot be frozen is the *selection*: the
    active set changes every round, and value/edge filters depend on live
    values. Each round the kernel gathers the frontier once (the
    nonzero positions of a gather from the map's dense activity mask -
    skipped, after the static per-source charge, on a host the map
    reports idle), shrinks it with the value-filter mask, and takes the
    survivors' edges out of the frozen expansion. The index array
    has two sources and no density test: every candidate survived - the
    frozen full arrays; otherwise the *run expansion* - an ``arange``
    over the frontier's edges plus one ``np.repeat`` of each run's
    offset into the frozen expansion, O(frontier edges), with the pushes
    one ``np.repeat`` of the values. Both are the ascending positions
    the scalar oracle's source-by-source walk visits, so counters,
    read/reduce accounting and folded values stay byte-identical to it.
    A push with no filter at all is the degenerate case: every round is
    a full frontier. The reduce is one call either way: the target's
    prepared batch over the frozen expansion, whole (``idx=None``) or at
    the round's ascending positions.
    """

    def _build(self, cluster: Cluster, part: Any, host: int):
        k = self.kernel
        total = len(_iteration_set(part, self.space))
        indptr = part.indptr
        local_ids = np.arange(total, dtype=np.int64)
        degrees = indptr[local_ids + 1] - indptr[local_ids]
        sel = np.flatnonzero(degrees > 0) if k.skip_zero_degree else local_ids
        if sel.size == 0:
            return _noop
        charge_src = int(k.charge_per_source * sel.size)
        node_sel = _frozen(part.local_to_global[sel])
        starts = indptr[sel]
        counts = indptr[sel + 1] - starts
        edge_total = int(counts.sum())
        # The full expansion over every candidate source, frozen; rounds
        # index into it instead of re-deriving it. (All arrays may be
        # empty when skip_zero_degree=False leaves only 0-degree nodes.)
        source_pos_full = np.repeat(np.arange(sel.size, dtype=np.int64), counts)
        offsets = _frozen(np.cumsum(counts) - counts)
        edge_ids_full = (
            np.arange(edge_total, dtype=np.int64)
            - np.repeat(offsets, counts)
            + np.repeat(starts, counts)
        )
        threads_full = _frozen(cluster.threads_of(total)[sel][source_pos_full])
        dst_full = _frozen(part.local_to_global[part.indices[edge_ids_full]])
        src_full = (
            _frozen(node_sel[source_pos_full]) if k.edge_filter is not None else None
        )
        weights_full = None
        if k.with_weight == "add":
            if k.unit_weights or part.weights is None:
                weights_full = np.ones(edge_total, dtype=np.float64)
            else:
                weights_full = np.asarray(part.weights[edge_ids_full])
            weights_full = _frozen(weights_full)
        const_full = None
        if k.const_value is not None:
            const_full = _frozen(np.full(edge_total, k.const_value))
        counts = _frozen(counts)
        all_pos = _frozen(np.arange(sel.size, dtype=np.int64))
        all_edges = _frozen(np.arange(edge_total, dtype=np.int64))
        source_pos_full = _frozen(source_pos_full)
        sel = _frozen(sel)
        num_candidates = sel.size
        # The frontier map's activity mask, when it keeps one (a GAR map;
        # any other reports every node active: the full candidate list).
        require_active = k.require_active
        if require_active is not None and not require_active.variant.uses_gar:
            require_active = None
        source, target, op = k.source, k.target, k.op
        value_filter, transform, edge_filter = (
            k.value_filter,
            k.transform,
            k.edge_filter,
        )
        filter_nodes = getattr(value_filter, "needs_nodes", False)
        prepared = target.prepare_reduce_bulk(host, threads_full, dst_full)
        charge_per_edge = k.charge_per_edge

        # The round body calls ndarray methods (``nonzero``, ``repeat``,
        # ``cumsum``) where the numpy functions would only add a Python
        # wrapper frame each, round after round.
        def run() -> None:
            counters = cluster.counters(host)
            if charge_src:
                counters.local_ops += charge_src
            # Frontier gather: one uncharged activity probe over the
            # frozen candidate list (a gather from the map's activity
            # mask), skipped outright on a host no copy changed on.
            sel_pos = all_pos
            if require_active is not None:
                active = require_active.active_mask(host)
                if active is None:
                    return
                sel_pos = active[node_sel].nonzero()[0]
                if sel_pos.size == 0:
                    return
            values = None
            if source is not None:
                values = source.read_local_bulk(host, sel[sel_pos])
                if value_filter is not None:
                    nodes = node_sel[sel_pos] if filter_nodes else None
                    keep_v = np.asarray(apply_value_filter(value_filter, values, nodes))
                    if not keep_v.all():
                        sel_pos = sel_pos[keep_v]
                        values = values[keep_v]
                        if sel_pos.size == 0:
                            return
                if transform is not None:
                    nodes = node_sel[sel_pos]
                    values = _per_node(
                        transform(values, nodes), nodes, "EdgePush.transform", target
                    )
            counts_k = counts[sel_pos]
            n_edges = int(counts_k.sum())
            counters.edge_iters += n_edges
            if charge_per_edge:
                counters.local_ops += charge_per_edge * n_edges
            if n_edges == 0:
                return
            # The frontier's ascending positions in the frozen expansion:
            # all of it, or each surviving source's run of edges - an
            # arange shifted, run by run, from where the run sits among
            # the frontier's edges to where it sits among all of them.
            if sel_pos.size == num_candidates:
                idx = all_edges
                pushes = values[source_pos_full] if const_full is None else const_full
            else:
                idx = (offsets[sel_pos] - (counts_k.cumsum() - counts_k)).repeat(counts_k)
                idx += all_edges[:n_edges]
                if const_full is None:
                    pushes = values.repeat(counts_k)
                else:
                    pushes = const_full[:n_edges]
            if edge_filter is not None:
                keep_e = np.asarray(edge_filter(src_full[idx], dst_full[idx]))
                if not np.all(keep_e):
                    pushes = pushes[keep_e]
                    idx = idx[keep_e]
                    if idx.size == 0:
                        return
            if weights_full is not None:
                pushes = pushes + weights_full[idx]
            target.reduce_bulk_prepared(
                host, prepared, pushes, op, None if idx.size == edge_total else idx
            )

        return run


class SpecializedNodeUpdate(_SpecializedKernel):
    """A NodeUpdate with node ids, thread dealing, and the per-node charge
    baked; per round only the value callable and the reduce run."""

    def _build(self, cluster: Cluster, part: Any, host: int):
        k = self.kernel
        total = len(_iteration_set(part, self.space))
        charge_node = int(k.charge_per_node * total)
        if total == 0:
            return _noop
        node_ids = part.local_to_global[:total]
        value, target, op = k.value, k.target, k.op
        prepared = target.prepare_reduce_bulk(host, cluster.threads_of(total), node_ids)

        def run() -> None:
            if charge_node:
                cluster.counters(host).local_ops += charge_node
            values = _per_node(value(node_ids), node_ids, "NodeUpdate.value", target)
            target.reduce_bulk_prepared(host, prepared, values, op)

        return run


class SpecializedDegreeReduce(_SpecializedKernel):
    """A DegreeReduce is fully static: degrees never change, so the whole
    selection and value vector is precomputed and only the reduce runs."""

    def _build(self, cluster: Cluster, part: Any, host: int):
        k = self.kernel
        total = len(_iteration_set(part, self.space))
        local_ids = np.arange(total, dtype=np.int64)
        indptr = part.indptr
        degs = indptr[local_ids + 1] - indptr[local_ids]
        sel = np.flatnonzero(degs > 0)
        if sel.size == 0:
            return _noop
        threads_sel = _frozen(cluster.threads_of(total)[sel])
        node_sel = _frozen(part.local_to_global[sel])
        degs_sel = _frozen(degs[sel])
        target = k.target
        prepared = target.prepare_reduce_bulk(host, threads_sel, node_sel)

        def run() -> None:
            target.reduce_bulk_prepared(host, prepared, degs_sel, SUM)

        return run


class SpecializedKeyRequest(_SpecializedKernel):
    """A KeyRequest with the local ids frozen: per round one bulk own
    read and one bulk request."""

    def _build(self, cluster: Cluster, part: Any, host: int):
        total = len(_iteration_set(part, self.space))
        if total == 0:
            return _noop
        local_ids = _frozen(np.arange(total, dtype=np.int64))
        keys, of = self.kernel.keys, self.kernel.of

        def run() -> None:
            of.request_bulk(host, keys.read_local_bulk(host, local_ids))

        return run


class SpecializedNodeGather(_SpecializedKernel):
    """A NodeGather with local ids, node ids and thread dealing frozen:
    per round one bulk own read, one keyed bulk read, a compare and one
    reduce over the nodes whose gathered value differs."""

    def _build(self, cluster: Cluster, part: Any, host: int):
        k = self.kernel
        total = len(_iteration_set(part, self.space))
        if total == 0:
            return _noop
        local_ids = _frozen(np.arange(total, dtype=np.int64))
        node_ids = _frozen(part.local_to_global[:total])
        threads = cluster.threads_of(total)
        keys, of, target, op = k.keys, k.of, k.target, k.op

        def run() -> None:
            own = keys.read_local_bulk(host, local_ids)
            gathered = of.read_bulk(host, own)
            hits = np.flatnonzero(own != gathered)
            target.reduce_bulk(
                host, threads[hits], node_ids[hits], gathered[hits], op
            )

        return run


class SpecializedNeighborReduceToKey(_SpecializedKernel):
    """A NeighborReduceToKey with the CSR expansion frozen (per-edge
    destination local ids, per-edge source threads, per-node degrees):
    per round two bulk reads, one ``np.repeat`` compare, one counted vote
    and one generic reduce - the reduce keys are property values, so
    there is no static batch to prepare a fold for."""

    def _build(self, cluster: Cluster, part: Any, host: int):
        k = self.kernel
        total = len(_iteration_set(part, self.space))
        if total == 0:
            return _noop
        local_ids = _frozen(np.arange(total, dtype=np.int64))
        degrees = _frozen(np.diff(part.indptr[: total + 1]))
        num_edges = int(part.indptr[total])
        dst_locals = _frozen(np.asarray(part.indices[:num_edges], dtype=np.int64))
        edge_threads = _frozen(np.repeat(cluster.threads_of(total), degrees))
        source, target, op, flag, compare = k.source, k.target, k.op, k.flag, k.compare

        def run() -> None:
            own = source.read_local_bulk(host, local_ids)
            cluster.counters(host).edge_iters += num_edges
            other = source.read_local_bulk(host, dst_locals)
            own_per_edge = np.repeat(own, degrees)
            hits = np.flatnonzero(compare(own_per_edge, other))
            flag.reduce_count(host, int(hits.size))
            target.reduce_bulk(
                host, edge_threads[hits], own_per_edge[hits], other[hits], op
            )

        return run


# ------------------------------------------------------------- the drivers


@dataclass
class OperatorContext:
    """Everything a scalar operator body may touch for one active node."""

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


ITERATION_MODES = ("masters", "all")


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
    """The scalar driver (the paper's ParFor): run ``body`` once per
    active node on every host, inside one phase, dealing items to virtual
    threads with OpenMP-static chunking and charging one ``node_iters``
    per node.

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


def run_hosted(
    cluster: Cluster,
    pgraph: Any,
    mode: str,
    body: _SpecializedKernel,
    kind: Any,
    label: str = "",
    hosts: Any | None = None,
) -> None:
    """The compiled-kernel driver (the bulk ParFor): one phase, one
    aggregate ``node_iters`` charge and one ``run_host`` call per host.
    Signature-compatible with ``par_for`` and the pool's ``run_sharded``
    driver slot (``hosts`` restricts the visit to a shard)."""
    operator = label or type(body).__name__
    masters = mode == "masters"  # a kernel's build rejects any mode but the two
    with cluster.phase(kind, label=label, operator=operator) as record:
        counters = record.counters
        for host in range(cluster.num_hosts) if hosts is None else hosts:
            part = pgraph.parts[host]
            counters[host].node_iters += part.num_masters if masters else part.num_local
            body.run_host(cluster, part, host)


# ----------------------------------------------------------- compiled steps


class CompiledOperator:
    """One compute phase with its backend dispatch decided at compile time:
    the driver (``par_for`` / :func:`run_hosted`) and the bound kernel
    body, reused every round. ``specialized`` marks a compiled bulk kernel
    (as opposed to a scalar reference loop)."""

    __slots__ = ("operator", "driver", "body", "specialized")

    def __init__(self, operator: Operator, driver, body, specialized: bool) -> None:
        self.operator = operator
        self.driver = driver
        self.body = body
        self.specialized = specialized


class CompiledPlan:
    """A plan lowered to a flat entry list the executor replays per round."""

    __slots__ = ("plan", "entries")

    def __init__(self, plan: Plan, entries: list[tuple]) -> None:
        self.plan = plan
        self.entries = entries


# ----------------------------------------------------------------- compiler


# Per declarative form: the compiled kernel class and the name of the
# executor method that derives the scalar oracle body.
_SPECIALIZED_FORMS = {
    EdgePush: (PreparedFrontierPush, "_edge_push_scalar"),
    NodeUpdate: (SpecializedNodeUpdate, "_node_update_scalar"),
    DegreeReduce: (SpecializedDegreeReduce, "_degree_reduce_scalar"),
    KeyRequest: (SpecializedKeyRequest, "_key_request_scalar"),
    NodeGather: (SpecializedNodeGather, "_node_gather_scalar"),
    NeighborReduceToKey: (
        SpecializedNeighborReduceToKey,
        "_neighbor_reduce_to_key_scalar",
    ),
}


def _compile_operator(executor, operator: Operator) -> CompiledOperator:
    kernel = operator.kernel
    if isinstance(kernel, ScalarKernel):
        # Reference-loop semantics on both backends (executor module doc).
        return CompiledOperator(operator, par_for, kernel.body, False)
    specialized, scalar_body = _SPECIALIZED_FORMS[type(kernel)]
    if executor.bulk:
        body = specialized(kernel, operator.space)
        return CompiledOperator(operator, run_hosted, body, True)
    return CompiledOperator(
        operator, par_for, getattr(executor, scalar_body)(kernel), False
    )


def _compile_reset(executor, step: ResetStep) -> Callable[[], None]:
    if step.elementwise:
        return lambda: step.map.reset_values(step.values)
    if executor.bulk:
        bulk_values = lambda nodes: np.asarray(step.values(nodes))  # noqa: E731
        return lambda: step.map.reset_values_bulk(bulk_values)
    from repro.exec.executor import _elementwise

    elementwise = _elementwise(step.values)
    return lambda: step.map.reset_values(elementwise)


def compile_plan(executor, plan: Plan) -> CompiledPlan:
    """Lower one plan for one executor binding into a :class:`CompiledPlan`."""
    entries: list[tuple] = []
    for step in plan.steps:
        if isinstance(step, OperatorStep):
            entries.append(
                (ENTRY_OPERATOR, _compile_operator(executor, step.operator))
            )
        elif isinstance(step, SyncStep):
            # Every process of a jobs=N run replays every collective whole;
            # the pool only ever exchanges compute effects.
            entries.append((ENTRY_EXEC, getattr(step.map, f"{step.action}_sync")))
        elif isinstance(step, ResetStep):
            entries.append((ENTRY_EXEC, _compile_reset(executor, step)))
        elif isinstance(step, HostStep):
            entries.append((ENTRY_EXEC, step.fn))
        elif isinstance(step, Plan):
            # Compiled on its own when the engine first drives it.
            entries.append((ENTRY_PLAN, step))
        elif isinstance(step, Until):
            entries.append((ENTRY_UNTIL, step.predicate))
        else:  # pragma: no cover - the step union is closed
            raise TypeError(f"unknown plan step {step!r}")
    return CompiledPlan(plan, entries)


__all__ = [
    "ENTRY_OPERATOR",
    "ENTRY_EXEC",
    "ENTRY_PLAN",
    "ENTRY_UNTIL",
    "CompiledOperator",
    "CompiledPlan",
    "OperatorContext",
    "PreparedFrontierPush",
    "SpecializedDegreeReduce",
    "SpecializedKeyRequest",
    "SpecializedNeighborReduceToKey",
    "SpecializedNodeGather",
    "SpecializedNodeUpdate",
    "compile_plan",
    "par_for",
    "run_hosted",
]
