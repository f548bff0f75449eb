"""IR interpreter: executes CompiledLoops on the simulated cluster.

The interpreter walks the statement IR per active node, charging the same
metrics as the hand-written kernels: ALU work per evaluated expression,
``edge_iters`` per edge, map reads through the exact same NodePropMap
paths (dense-vector for local masters and pinned mirrors, binary search /
hash probes for requested remotes).

:func:`build_plan` lowers a compiled program - one loop, or several run
in sequence each round with host steps between them - onto one
:class:`~repro.exec.plan.Plan`, which the executor's BSP engine drives
like every other loop.
"""

from __future__ import annotations

import operator
from typing import Any, Mapping, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.compiler.compile import CompiledLoop
from repro.compiler.ir import (
    ActiveNode,
    Assign,
    BinOp,
    Const,
    EdgeDst,
    EdgeWeight,
    Expr,
    ForEdges,
    If,
    MapRead,
    MapReduce,
    MapRequest,
    MapSet,
    Not,
    ReducerReduce,
    Stmt,
    Var,
)
from repro.compiler.ir import walk
from repro.core.bool_reducer import BoolReducer
from repro.core.propmap import NodePropMap
from repro.exec import (
    Operator,
    OperatorContext,
    OperatorStep,
    Plan,
    ScalarKernel,
    SyncStep,
)
from repro.exec.plan import Step
from repro.partition.base import PartitionedGraph

_BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
    "min": min,
    "max": max,
}


class _Executor:
    """Per-run interpreter state (maps, reducers, external constants)."""

    def __init__(
        self,
        cluster: Cluster,
        pgraph: PartitionedGraph,
        maps: Mapping[str, NodePropMap],
        reducers: Mapping[str, BoolReducer] | None = None,
        extern: Mapping[str, Any] | None = None,
    ) -> None:
        self.cluster = cluster
        self.pgraph = pgraph
        self.maps = dict(maps)
        self.reducers = dict(reducers or {})
        # Held, not copied: host steps of the plan rebind constants per round.
        self.extern = extern if extern is not None else {}

    # -- expression evaluation ------------------------------------------------

    def eval(self, expr: Expr, ctx: OperatorContext, env: dict[str, Any]) -> Any:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Var):
            if expr.name in env:
                return env[expr.name]
            if expr.name in self.extern:
                return self.extern[expr.name]
            raise NameError(f"unbound variable {expr.name!r}")
        if isinstance(expr, ActiveNode):
            return ctx.node
        if isinstance(expr, EdgeDst):
            return ctx.edge_dst(env[expr.edge_var])
        if isinstance(expr, EdgeWeight):
            return ctx.edge_weight(env[expr.edge_var])
        if isinstance(expr, BinOp):
            ctx.charge(1)
            return _BINOPS[expr.op](
                self.eval(expr.left, ctx, env), self.eval(expr.right, ctx, env)
            )
        if isinstance(expr, Not):
            return not self.eval(expr.expr, ctx, env)
        raise TypeError(f"unknown expression {expr!r}")

    def _read_map(self, stmt: MapRead, ctx: OperatorContext, env: dict[str, Any]) -> Any:
        prop = self.maps[stmt.map]
        # Local-id fast paths mirror the hand-written kernels, so compiled
        # and manual code charge identical read costs.
        if isinstance(stmt.key, ActiveNode):
            if ctx.part.is_master_local(ctx.local) or prop.pinned:
                return prop.read_local(ctx.host, ctx.local)
            return prop.read(ctx.host, ctx.node)
        if isinstance(stmt.key, EdgeDst):
            dst_local = ctx.edge_dst_local(env[stmt.key.edge_var])
            if ctx.part.is_master_local(dst_local) or prop.pinned:
                return prop.read_local(ctx.host, dst_local)
            return prop.read(ctx.host, int(ctx.part.local_to_global[dst_local]))
        return prop.read(ctx.host, self.eval(stmt.key, ctx, env))

    # -- statement execution ---------------------------------------------------

    def run_body(
        self, body: tuple[Stmt, ...], ctx: OperatorContext, env: dict[str, Any]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, Assign):
                env[stmt.var] = self.eval(stmt.expr, ctx, env)
            elif isinstance(stmt, MapRead):
                env[stmt.var] = self._read_map(stmt, ctx, env)
            elif isinstance(stmt, MapRequest):
                self.maps[stmt.map].request(
                    ctx.host, self.eval(stmt.key, ctx, env)
                )
            elif isinstance(stmt, MapReduce):
                self.maps[stmt.map].reduce(
                    ctx.host,
                    ctx.thread,
                    self.eval(stmt.key, ctx, env),
                    self.eval(stmt.value, ctx, env),
                    stmt.op,
                )
            elif isinstance(stmt, MapSet):
                self.maps[stmt.map].set(
                    ctx.host, self.eval(stmt.key, ctx, env), self.eval(stmt.value, ctx, env)
                )
            elif isinstance(stmt, ReducerReduce):
                self.reducers[stmt.reducer].reduce(
                    ctx.host, bool(self.eval(stmt.value, ctx, env))
                )
            elif isinstance(stmt, If):
                if self.eval(stmt.cond, ctx, env):
                    self.run_body(stmt.then, ctx, env)
                else:
                    self.run_body(stmt.orelse, ctx, env)
            elif isinstance(stmt, ForEdges):
                for edge in ctx.edges():
                    env[stmt.edge_var] = edge
                    self.run_body(stmt.body, ctx, env)
            else:  # pragma: no cover - IR is closed
                raise TypeError(f"unknown statement {stmt!r}")


def _body_reads_writes(
    body: tuple[Stmt, ...],
) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Derive ScalarKernel reads/writes metadata by walking the IR."""
    reads: list[str] = []
    writes: list[tuple[str, str]] = []
    for stmt in walk(body):
        if isinstance(stmt, (MapRead, MapRequest)) and stmt.map not in reads:
            reads.append(stmt.map)
        elif isinstance(stmt, MapReduce) and (stmt.map, stmt.op.name) not in writes:
            writes.append((stmt.map, stmt.op.name))
        elif isinstance(stmt, MapSet) and (stmt.map, "set") not in writes:
            writes.append((stmt.map, "set"))
        elif isinstance(stmt, ReducerReduce) and (stmt.reducer, "bool_or") not in writes:
            writes.append((stmt.reducer, "bool_or"))
    return tuple(reads), tuple(writes)


def _loop_steps(
    loop: CompiledLoop, interp: _Executor, maps: Mapping[str, NodePropMap]
) -> list[Step]:
    """One round of a compiled loop as plan steps: each statement body
    becomes a :class:`ScalarKernel` operator (the interpreter walks the IR
    per node, so both executor backends run the same reference loop), and
    the phase structure and sync collectives map 1:1 onto steps."""

    def kernel_for(par_for_ir) -> ScalarKernel:
        reads, writes = _body_reads_writes(par_for_ir.body)
        return ScalarKernel(
            lambda ctx, body=par_for_ir.body: interp.run_body(body, ctx, {}),
            read_names=reads,
            write_names=writes,
        )

    steps: list[Step] = []
    for phase in loop.request_phases:
        steps.append(
            OperatorStep(
                Operator(
                    f"{loop.name}:req:{'+'.join(phase.maps)}",
                    phase.par_for.iterator if phase.par_for.iterator == "masters" else "all",
                    kernel_for(phase.par_for),
                    kind=PhaseKind.REQUEST_COMPUTE,
                )
            )
        )
        for map_name in phase.maps:
            steps.append(SyncStep(maps[map_name], "request"))
    steps.append(
        OperatorStep(
            Operator(
                loop.name,
                loop.body.iterator if loop.body.iterator == "masters" else "all",
                kernel_for(loop.body),
            )
        )
    )
    for map_name in loop.reduce_maps:
        steps.append(SyncStep(maps[map_name], "reduce"))
    for map_name in loop.reduce_maps:
        # No-op unless the map is currently pinned; checked at runtime so
        # composed apps that pin around a multi-operator loop still get
        # their mirrors refreshed after every reduce.
        steps.append(SyncStep(maps[map_name], "broadcast"))
    return steps


def build_plan(
    program: CompiledLoop | Sequence[CompiledLoop | Step],
    pgraph: PartitionedGraph,
    props: Mapping[str, NodePropMap],
    reducers: Mapping[str, BoolReducer] | None = None,
    extern: dict[str, Any] | None = None,
    **fields: Any,
) -> Plan:
    """Lower a compiled program onto the operator-plan layer; ``props``
    binds the program's map names.

    ``program`` is one compiled loop, or a sequence of compiled loops with
    plan steps (host steps, resets, sub-plans, ``Until``) between them -
    the way the paper's generated code composes several KimbapWhile
    operators into one loop. All loops share one interpreter, so a host
    step that rebinds an ``extern`` constant is seen by every later
    operator. ``fields`` are further :class:`Plan` fields (``name``,
    ``max_rounds``, ``quiesce``, ``converged``, ``pins``, ...); by default
    the plan quiesces on its loops' quiesce maps and pins the mirrors
    their compilation pinned. This is what gives compiled programs the
    same metering/trace/fault semantics as the hand-written algorithm
    plans.
    """
    if isinstance(program, CompiledLoop):
        program = (program,)
    interp = _Executor(None, pgraph, props, reducers, extern)
    loops = [item for item in program if isinstance(item, CompiledLoop)]
    steps: list[Step] = []
    for item in program:
        if isinstance(item, CompiledLoop):
            steps.extend(_loop_steps(item, interp, props))
        else:
            steps.append(item)
    fields.setdefault("name", "compiled:" + "+".join(loop.name for loop in loops))
    fields.setdefault(
        "quiesce",
        tuple(dict.fromkeys(props[m] for loop in loops for m in loop.quiesce_maps)),
    )
    fields.setdefault(
        "pins",
        {props[m]: inv for loop in loops for m, inv in loop.pinned.items()},
    )
    fields.setdefault("loop_label", fields["name"])
    return Plan(pgraph=pgraph, steps=steps, **fields)
