"""Plan-to-kernel code generation: the compiled per-round execution path.

Given a :class:`~repro.exec.plan.Plan` and a concrete ``(cluster,
backend)`` binding, :func:`compile_plan` lowers the plan's step walk into
a :class:`CompiledPlan` - a flat list of prebound entries the executor
replays each round with no per-round ``isinstance`` dispatch and no
per-round kernel-closure construction. There is one implementation per
kernel form and backend: the scalar backend binds the reference
``par_for`` bodies (the oracle), the bulk backend binds the compiled
kernels below.

* **Dispatch caching** - every step's dispatch is made at compile time,
  once per ``(plan, executor)`` binding. The backend decides only an
  operator's driver and kernel body (``par_for`` vs :func:`run_hosted`);
  syncs, resets and host callables bind the same way on both backends.
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

One compute phase is one entry, one row of the phase log and one driver
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

    The partition-derived pipeline - degree selection, CSR expansion, the
    target's prepared fold, charge constants - is computed once per host.
    What cannot be frozen is the *selection*: the active set changes every
    round, and value/edge filters depend on live values. Each round the
    kernel gathers the frontier once (the nonzero positions of a gather
    from the map's dense activity mask - skipped, after the static
    per-source charge, on a host the map reports idle), shrinks it with
    the value-filter mask, and pushes ``np.repeat`` of the values by run
    length. The edge positions have two forms and no density test: every
    candidate survived - the whole expansion, no index; otherwise the
    *run expansion* - an ``arange`` over the frontier's edges plus one
    ``np.repeat`` of each run's offset into the expansion, O(frontier
    edges). Both are the ascending positions the scalar oracle's
    source-by-source walk visits, so counters, read/reduce accounting and
    folded values stay byte-identical to it. A push with no filter at all
    is the degenerate case: every round is a full frontier. Per edge the
    kernel keeps only what a round computes with - the fold's slot
    column, a weighted push's weights, an edge filter's two ends; unit
    weights and a constant are broadcast views (DESIGN.md, "Why a
    compiled kernel keeps one array per edge").
    """

    def _build(self, cluster: Cluster, part: Any, host: int):
        k = self.kernel
        total = len(_iteration_set(part, self.space))
        indptr = part.indptr
        degrees = np.diff(indptr[: total + 1])
        sel = np.flatnonzero(degrees > 0) if k.skip_zero_degree else np.arange(total)
        if sel.size == 0:
            return _noop
        charge_src = int(k.charge_per_source * sel.size)
        node_sel = _frozen(part.local_to_global[sel])
        # The full expansion over every candidate source. The candidates
        # ascend and a 0-degree one adds no edge, so it is the CSR's first
        # ``indptr[total]`` edges in order: expansion position = edge id,
        # and each candidate's run starts at its ``indptr`` entry. (All
        # arrays may be empty when skip_zero_degree=False leaves only
        # 0-degree nodes.) Its threads and destinations live until ranked.
        offsets = _frozen(indptr[sel])
        counts = _frozen(indptr[sel + 1] - offsets)
        edge_total = int(indptr[total])
        dst = part.local_to_global[part.indices[:edge_total]]
        prepared = k.target.prepare_reduce_bulk(
            host, cluster.threads_of(total)[sel].repeat(counts), dst
        )
        src_full = dst_full = None
        if k.edge_filter is not None:
            src_full, dst_full = _frozen(node_sel.repeat(counts)), _frozen(dst)
        weights_full = const_full = None  # unit weights, a constant: broadcast views
        if k.with_weight == "add" and (k.unit_weights or part.weights is None):
            weights_full = np.broadcast_to(1.0, edge_total)
        elif k.with_weight == "add":
            weights_full = _frozen(part.weights[:edge_total])
        if k.const_value is not None:
            const_full = np.broadcast_to(k.const_value, edge_total)
        all_pos = _frozen(np.arange(sel.size, dtype=np.int64))
        sel = _frozen(sel)
        ramp = None  # 0, 1, 2, ... over the edges, built at the first partial round
        # The frontier map's activity mask, when it keeps one (a GAR map;
        # any other reports every node active: the full candidate list).
        require_active = k.require_active
        if require_active is not None and not require_active.variant.uses_gar:
            require_active = None
        source, target, op = k.source, k.target, k.op
        value_filter, transform, edge_filter = k.value_filter, k.transform, k.edge_filter
        filter_nodes = getattr(value_filter, "needs_nodes", False)
        charge_per_edge = k.charge_per_edge

        # The round body calls ndarray methods (``nonzero``, ``repeat``,
        # ``cumsum``) where the numpy functions would only add a Python
        # wrapper frame each, round after round.
        def run() -> None:
            nonlocal ramp
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
            # The frontier's ascending positions in the expansion: all of it
            # (``idx`` None: no candidate left out has an edge), or each run
            # of edges - an arange shifted, run by run, from where the run
            # sits among the frontier's edges to where it sits among all.
            idx = None
            if n_edges != edge_total:
                if ramp is None:
                    ramp = _frozen(np.arange(edge_total, dtype=np.int64))
                idx = (offsets[sel_pos] - (counts_k.cumsum() - counts_k)).repeat(counts_k)
                idx += ramp[:n_edges]
            pushes = values.repeat(counts_k) if const_full is None else const_full[:n_edges]
            if edge_filter is not None:
                ends = (src_full, dst_full) if idx is None else (src_full[idx], dst_full[idx])
                keep_e = np.asarray(edge_filter(*ends))
                if not np.all(keep_e):
                    pushes = pushes[keep_e]
                    idx = keep_e.nonzero()[0] if idx is None else idx[keep_e]
                    if idx.size == 0:
                        return
            if weights_full is not None:
                pushes = pushes + (weights_full if idx is None else weights_full[idx])
            target.reduce_bulk_prepared(host, prepared, pushes, op, idx)

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
        degs = np.diff(part.indptr[: total + 1])
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
    destination local ids, per-edge source threads, per-node degrees)
    and both reads' master counts taken at build: per round two bulk
    reads, one ``repeat`` compare, one counted vote and one generic
    reduce - the reduce keys are property values, so there is no static
    batch to prepare a fold for. (``repeat`` of the own values by degree
    reads them once per edge at half the cost of a gather through a
    per-edge source index.)"""

    def _build(self, cluster: Cluster, part: Any, host: int):
        k = self.kernel
        total = len(_iteration_set(part, self.space))
        if total == 0:
            return _noop
        local_ids = _frozen(np.arange(total, dtype=np.int64))
        own_masters = min(total, part.num_masters)
        degrees = _frozen(np.diff(part.indptr[: total + 1]))
        num_edges = int(part.indptr[total])
        dst_locals = _frozen(np.asarray(part.indices[:num_edges], dtype=np.int64))
        dst_masters = int(np.count_nonzero(dst_locals < part.num_masters))
        edge_threads = _frozen(np.repeat(cluster.threads_of(total), degrees))
        source, target, op, flag, compare = k.source, k.target, k.op, k.flag, k.compare

        def run() -> None:
            own = source.read_local_bulk(host, local_ids, own_masters)
            cluster.counters(host).edge_iters += num_edges
            other = source.read_local_bulk(host, dst_locals, dst_masters)
            own_per_edge = own.repeat(degrees)
            hits = compare(own_per_edge, other).nonzero()[0]
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


def _compile_reset(step: ResetStep) -> Callable[[], None]:
    """A reset is the same on both backends, like ``Executor.init_map``."""
    if step.elementwise:
        return lambda: step.map.reset_values(step.values)
    bulk_values = lambda nodes: np.asarray(step.values(nodes))  # noqa: E731
    return lambda: step.map.reset_values_bulk(bulk_values)


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
            entries.append((ENTRY_EXEC, _compile_reset(step)))
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
