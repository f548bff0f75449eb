"""The plan executor: one algorithm spec, two execution backends.

``Executor`` runs :class:`repro.exec.plan.Plan` objects. Construction
picks the backend: ``bulk=False`` executes operator kernels with the
scalar reference ``par_for`` loops defined here (the readable oracle),
``bulk=True`` with the compiled array kernels of
:mod:`repro.exec.codegen`. Both follow the same canonical metering
pipeline, so an algorithm expressed once as a plan is byte-identical
across backends (counters, conflicts, modeled seconds, values) - a contract
of the conformance table (``tests/test_conformance.py``) for every
application.

``jobs=N`` composes with either kernel backend: each plan run forks
``N - 1`` worker processes that replay the same plan loop over disjoint
host shards and exchange per-phase effect bundles with the coordinator
(see :mod:`repro.exec.pool`), merged in fixed host order so the run
stays byte-identical to ``jobs=1`` - another column of the same
table.

:class:`~repro.exec.plan.ScalarKernel` bodies run as the same scalar
loop on both backends (the way the MC runtime variant degrades to the
scalar path by design): byte-identity is structural, and such kernels
opt into vectorization by being rewritten as one of the declarative
forms (adjacent-vertex or trans-vertex).

The drive loop itself lives in the engine layer (:mod:`repro.exec.engine`):
``engine="bsp"`` (the default and the byte-identity oracle) runs the
bulk-synchronous round loop through ``repro.faults.run_recoverable_loop``,
so every plan - not just PageRank's tolerance loop - gets
checkpoint/recovery when a fault injector is installed, and
round/operator trace attribution for free. Without an injector the
driver is exactly the legacy loop (zero overhead). ``engine="async"``
schedules residual-declared plans with the barrier-free priority/delta
scheduler instead; its results are value-equivalent (not byte-identical)
to the BSP oracle.

Each ``run`` executes through a compiled form of the plan
(:mod:`repro.exec.codegen`): the per-step backend dispatch - scalar vs
bulk driver, kernel-closure construction, reset binding - is decided
once per ``(plan, executor)`` binding and cached, and the per-round loop
replays a flat list of prebound entries instead of re-walking the step
list with ``isinstance`` checks.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.propmap import NodePropMap
from repro.core.reducers import SUM
from repro.exec.codegen import (
    ENTRY_OPERATOR,
    ENTRY_SYNC,
    CompiledOperator,
    CompiledPlan,
    compile_plan,
)
from repro.exec.engine import BSPEngine, Engine, UnsupportedPlanError, make_engine
from repro.exec.plan import (
    DegreeReduce,
    EdgePush,
    KeyRequest,
    NeighborReduceToKey,
    NodeGather,
    NodeUpdate,
    Plan,
    apply_value_filter,
)
from repro.exec.pool import HostShardPool, create_pool
from repro.runtime.engine import OperatorContext


def _scalar(value: Any) -> Any:
    """Strip numpy wrappers so the scalar backend stores the same plain
    Python scalars the hand-written reference kernels did."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray) and value.ndim == 0:
        return value.item()
    return value


def _elementwise(values: Callable[[np.ndarray], Any]) -> Callable[[int], Any]:
    """Derive the per-node form of an array-style value function."""

    def one(node: int) -> Any:
        return _scalar(np.asarray(values(np.asarray([node], dtype=np.int64)))[0])

    return one


class Executor:
    """Dispatches operator plans to the scalar or bulk backend."""

    def __init__(
        self,
        cluster: Cluster,
        bulk: bool = False,
        observer: Callable[[Plan], None] | None = None,
        jobs: int = 1,
        engine: str | Engine = "bsp",
    ) -> None:
        self.cluster = cluster
        self.bulk = bool(bulk)
        # Compiled plans, keyed by plan id; each holds its plan, so a
        # slot whose id was reused after GC is detected and recompiled.
        self._compiled_plans: dict[int, CompiledPlan] = {}
        self.observer = observer
        # jobs > 1 fans shardable compute phases out to jobs processes
        # (coordinator included); merge order keeps results byte-identical.
        self.jobs = max(1, int(jobs))
        self._pool: HostShardPool | None = None
        # The drive loop lives in the engine layer (repro.exec.engine);
        # "bsp" is the byte-identity oracle, "async" the barrier-free
        # priority/delta scheduler. Pool workers always replay the BSP
        # loop (see _drive), so the async engine excludes jobs>1.
        self._bsp_engine = BSPEngine(self)
        if isinstance(engine, Engine):
            self.engine = engine
        else:
            self.engine = make_engine(self, engine)
        if self.engine.name != "bsp" and self.jobs > 1:
            raise UnsupportedPlanError(
                f"engine {self.engine.name!r} does not compose with jobs="
                f"{self.jobs}; host-shard parallelism replays the BSP loop"
            )

    # ------------------------------------------------------ map lifecycle

    def init_map(
        self,
        prop: NodePropMap,
        values: Callable[[np.ndarray], np.ndarray] | None = None,
        *,
        elementwise: Callable[[int], Any] | None = None,
    ) -> None:
        """Backend-dispatched ``set_initial``: array-style ``values`` uses
        the bulk path under ``bulk=True``; ``elementwise`` initializers
        (needed for non-numeric values) run identically on both backends."""
        if elementwise is not None:
            prop.set_initial(elementwise)
        elif self.bulk:
            prop.set_initial_bulk(lambda nodes: np.asarray(values(nodes)))
        else:
            prop.set_initial(_elementwise(values))

    # -------------------------------------------------------- loop driver

    def run(self, plan: Plan) -> int:
        """Execute a plan; returns completed rounds (0 for ``once`` plans).

        The engine owns the drive loop (round/chunk scheduling,
        convergence, quiesce, checkpoint hooks); the executor stays the
        kernel-dispatch surface the engine calls back into."""
        if self.observer is not None:
            self.observer(plan)
        return self.engine.run(plan)

    def _ensure_pool(self, plan: Plan):
        """The executor-lifetime pool endpoint (or None while parallelism
        cannot apply: ``jobs=1``, no fork, or no plan so far with a
        shardable phase - a later plan may still create it). It holds
        the decision tables and counters; workers live for one run."""
        if self.jobs <= 1 or self._pool is not None:
            return self._pool
        self._pool = create_pool(self, plan)
        return self._pool

    def close(self) -> None:
        """Reap the worker pool.

        Idempotent; harness and tests call it (or rely on ``__del__``)
        once the run is over. Worker processes never call it - they exit
        via ``os._exit``.
        """
        pool = self._pool
        if pool is not None and not pool.is_worker:
            self._pool = None
            pool.shutdown()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def parallel_stats(self) -> dict[str, int] | None:
        """Exchange instrumentation of the parallel backend (None when no
        pool was ever built): bytes exchanged, forks (one per sharded run),
        and the supervisor's death and diagnostic counts."""
        return None if self._pool is None else self._pool.stats()

    def _drive(self, plan: Plan) -> int:
        """The BSP plan loop, replayed identically by every process of a
        parallel run (the pool endpoint decides shard vs replicated work
        per phase inside :meth:`_run_compiled_operator`). Pool workers call
        this directly - worker replay is a BSP-loop concept, so this always
        drives through the BSP engine regardless of the selected engine."""
        return self._bsp_engine.drive(plan)

    def compiled(self, plan: Plan) -> CompiledPlan:
        """The cached compiled form of ``plan`` for this binding."""
        cached = self._compiled_plans.get(id(plan))
        if cached is None or cached.plan is not plan:
            cached = self._compiled_plans[id(plan)] = compile_plan(self, plan)
        return cached

    def run_round(self, plan: Plan) -> None:
        """One pass over the plan's compiled entries (one BSP round)."""
        for tag, payload in self.compiled(plan).entries:
            if tag == ENTRY_OPERATOR:
                self._run_compiled_operator(plan.pgraph, payload)
            elif tag == ENTRY_SYNC:
                # Every process of a jobs=N run replays every collective
                # whole; the pool only ever exchanges compute effects.
                if payload.action == "request":
                    payload.map.request_sync()
                elif payload.action == "reduce":
                    payload.map.reduce_sync()
                else:
                    payload.map.broadcast_sync()
            else:  # ENTRY_EXEC: a prebound reset or host callable
                payload()

    # --------------------------------------------------- kernel dispatch

    def _run_compiled_operator(self, pgraph, compiled: CompiledOperator) -> None:
        operator = compiled.operator
        pool = self._pool
        if pool is not None and pool.active and pool.shardable(operator):
            pool.run_sharded(
                self.cluster, compiled.driver, pgraph, operator, compiled.body
            )
            return
        # Serial run, or a phase the plan metadata cannot prove shardable:
        # every process executes every host (replicated - state stays
        # identical across the group with no exchange).
        compiled.driver(
            self.cluster,
            pgraph,
            operator.space,
            compiled.body,
            kind=operator.kind,
            label=operator.label,
        )

    # ------------------------------- the scalar oracle bodies, per form

    def _edge_push_scalar(self, k: EdgePush) -> Callable[[OperatorContext], None]:
        def body(ctx: OperatorContext) -> None:
            if k.skip_zero_degree and ctx.part.degree(ctx.local) == 0:
                return
            if k.charge_per_source:
                ctx.charge(k.charge_per_source)
            if k.require_active is not None and not k.require_active.is_active(
                ctx.host, ctx.node
            ):
                return
            value = None
            if k.source is not None:
                value = k.source.read_local(ctx.host, ctx.local)
                if k.value_filter is not None and not bool(
                    apply_value_filter(k.value_filter, value, ctx.node)
                ):
                    return
            if k.const_value is not None:
                push = k.const_value
            elif k.transform is not None:
                push = _scalar(k.transform(value, ctx.node))
            else:
                push = value
            for edge in ctx.edges():
                if k.charge_per_edge:
                    ctx.charge(k.charge_per_edge)
                dst = ctx.edge_dst(edge)
                if k.edge_filter is not None and not bool(
                    k.edge_filter(ctx.node, dst)
                ):
                    continue
                message = push
                if k.with_weight == "add":
                    weight = 1.0 if k.unit_weights else ctx.edge_weight(edge)
                    message = push + weight
                k.target.reduce(ctx.host, ctx.thread, dst, message, k.op)

        return body

    def _node_update_scalar(self, k: NodeUpdate) -> Callable[[OperatorContext], None]:
        value_of = _elementwise(k.value)

        def body(ctx: OperatorContext) -> None:
            if k.charge_per_node:
                ctx.charge(k.charge_per_node)
            k.target.reduce(ctx.host, ctx.thread, ctx.node, value_of(ctx.node), k.op)

        return body

    def _degree_reduce_scalar(
        self, k: DegreeReduce
    ) -> Callable[[OperatorContext], None]:
        def body(ctx: OperatorContext) -> None:
            local_degree = ctx.part.degree(ctx.local)
            if local_degree:
                k.target.reduce(ctx.host, ctx.thread, ctx.node, local_degree, SUM)

        return body

    def _key_request_scalar(self, k: KeyRequest) -> Callable[[OperatorContext], None]:
        def body(ctx: OperatorContext) -> None:
            k.of.request(ctx.host, k.keys.read_local(ctx.host, ctx.local))

        return body

    def _node_gather_scalar(self, k: NodeGather) -> Callable[[OperatorContext], None]:
        def body(ctx: OperatorContext) -> None:
            key = k.keys.read_local(ctx.host, ctx.local)
            gathered = k.of.read(ctx.host, key)
            if key != gathered:
                k.target.reduce(ctx.host, ctx.thread, ctx.node, gathered, k.op)

        return body

    def _neighbor_reduce_to_key_scalar(
        self, k: NeighborReduceToKey
    ) -> Callable[[OperatorContext], None]:
        def body(ctx: OperatorContext) -> None:
            own = k.source.read_local(ctx.host, ctx.local)
            for edge in ctx.edges():
                other = k.source.read_local(ctx.host, ctx.edge_dst_local(edge))
                if k.compare(own, other):
                    k.flag.reduce(ctx.host, True)
                    k.target.reduce(ctx.host, ctx.thread, own, other, k.op)

        return body


__all__ = ["Executor"]
