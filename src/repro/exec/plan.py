"""Operator plans: the declarative algorithm specification layer.

A plan describes an algorithm as data - a sequence of steps (operators,
sync collectives, map resets, host-side scalar code, nested sub-plans)
plus the loop/convergence driver - so a single
:class:`repro.exec.executor.Executor` can run it on either the scalar
reference backend (``par_for``) or the compiled bulk backend
(``repro.exec.codegen`` + ``reduce_bulk``) with byte-identical metrics.

Operator bodies come in seven *kernel forms* - six declarative ones, each
with one scalar oracle body (``repro.exec.executor``) and one compiled
per-host kernel (``repro.exec.codegen``), and the opaque fallback:

* :class:`EdgePush` - the adjacent-vertex push: each active source sends
  a value along its out-edges into a target map under a reducer. This is
  the fully declarative form (the executor owns the scalar loop, the
  code generator the vectorized kernel).
* :class:`NodeUpdate` - a per-node recompute reduced onto the node itself
  (e.g. PageRank's rebuild).
* :class:`DegreeReduce` - the shared warm-up that SUM-reduces each host's
  local out-degree share onto the node (PR / MIS global degrees).
* :class:`KeyRequest`, :class:`NodeGather`, :class:`NeighborReduceToKey` -
  the *trans-vertex* forms (the paper's Section 3.1): request, read, or
  reduce into the property of a node whose id is itself a property
  value. Pointer jumping is ``KeyRequest`` + ``NodeGather``; CC-SV's hook
  is ``NeighborReduceToKey``.
* :class:`ScalarKernel` - an opaque per-node body with declared
  reads/writes metadata, for bodies no declarative form expresses yet.
  Both backends execute it as the same scalar reference loop (like the MC
  runtime variant, which degrades to the scalar path by design), so
  byte-identity is structural.
"""

from __future__ import annotations

import math
import operator as _operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence, Union

import numpy as np

from repro.cluster.metrics import PhaseKind
from repro.core.bool_reducer import BoolReducer
from repro.core.propmap import NodePropMap
from repro.core.reducers import SUM, ReduceOp
from repro.partition.base import PartitionedGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.codegen import OperatorContext

PLAN_SCHEMA = "repro-exec-plan/v1.3"


# ------------------------------------------------------------- filter specs
#
# Declarative predicates for EdgePush. A plain callable remains a legal
# value/edge filter, but it is opaque: the plan cannot serialize it
# (``repro plan --json`` reports a refusal). The spec forms below are
# data - an operator name plus operands - so they serialize (since schema
# v1.2). Each spec is itself callable with the legacy filter signature, so
# the scalar oracle, the compiled kernel
# (repro.exec.codegen.PreparedFrontierPush), and the async engine run the
# exact same predicate without knowing it is declarative.

_CMP_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "eq": _operator.eq,
    "ne": _operator.ne,
    "lt": _operator.lt,
    "le": _operator.le,
    "gt": _operator.gt,
    "ge": _operator.ge,
}


def _const_json(value: Any) -> Any:
    """A filter constant in JSON-portable form (inf/nan become strings)."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _array_json(array: Any) -> dict:
    """Shape-level description of a per-node operand array (the values
    themselves are graph-sized; the plan records provenance, not data)."""
    arr = np.asarray(array)
    return {"len": int(arr.shape[0]), "dtype": str(arr.dtype)}


@dataclass(frozen=True)
class ActiveFilter:
    """Declarative activity filter: keep sources whose ``map`` copy
    changed last round (the data-driven frontier). ``EdgePush``
    normalizes this to its ``require_active`` map, so downstream layers
    (reads metadata, both backends) see the map they
    always did; declaring the spec documents intent and keeps algorithm
    code fully declarative."""

    map: NodePropMap

    def summary(self) -> dict:
        return {"kind": "active", "map": self.map.name}


@dataclass(frozen=True)
class CmpFilter:
    """Declarative value filter: ``values OP const`` or, with ``other``
    (an array indexed by global node id), ``values OP other[nodes]``.

    Callable with the legacy ``value_filter(values)`` signature (numpy
    semantics, scalars included); the ``other`` form needs the node ids,
    which both backends provide via :func:`apply_value_filter`.
    """

    op: str
    const: Any = None
    other: Any = None  # per-node operand array (global node id indexed)

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise ValueError(
                f"unknown comparison {self.op!r}; use one of {sorted(_CMP_OPS)}"
            )
        if (self.const is None) == (self.other is None):
            raise ValueError("CmpFilter takes exactly one of const= or other=")

    @property
    def needs_nodes(self) -> bool:
        return self.other is not None

    def __call__(self, values: Any, nodes: Any = None) -> Any:
        if self.other is not None:
            if nodes is None:
                raise TypeError(
                    "CmpFilter(other=...) needs the node ids; call via "
                    "apply_value_filter"
                )
            return _CMP_OPS[self.op](values, self.other[nodes])
        return _CMP_OPS[self.op](values, self.const)

    def summary(self) -> dict:
        out: dict = {"kind": "cmp", "op": self.op}
        if self.other is not None:
            out["other"] = _array_json(self.other)
        else:
            out["const"] = _const_json(self.const)
        return out


@dataclass(frozen=True)
class DstCmpFilter:
    """Declarative edge filter over a per-node operand array: keep edges
    with ``array[src] OP array[dst]`` (or ``array[dst] OP const`` when
    ``const`` is given). Callable with the legacy ``edge_filter(src,
    dst)`` signature; array-style like every plan callable."""

    op: str
    array: Any  # per-node operand array (global node id indexed)
    const: Any = None

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise ValueError(
                f"unknown comparison {self.op!r}; use one of {sorted(_CMP_OPS)}"
            )

    def __call__(self, src: Any, dst: Any) -> Any:
        if self.const is not None:
            return _CMP_OPS[self.op](self.array[dst], self.const)
        return _CMP_OPS[self.op](self.array[src], self.array[dst])

    def summary(self) -> dict:
        out: dict = {
            "kind": "dst-cmp",
            "op": self.op,
            "array": _array_json(self.array),
        }
        if self.const is not None:
            out["const"] = _const_json(self.const)
        return out


def filter_summary(fn: Any) -> dict:
    """Machine-readable form of one filter: the spec's own summary, or
    the schema v1.2 refusal record for an opaque callable (still a legal
    filter - the plan just cannot serialize it)."""
    if isinstance(fn, (CmpFilter, DstCmpFilter)):
        return fn.summary()
    name = getattr(fn, "__qualname__", None) or type(fn).__name__
    return {
        "kind": "opaque",
        "callable": name,
        "message": (
            "opaque callable filters are not serializable; declare "
            "CmpFilter/DstCmpFilter"
        ),
    }


def apply_value_filter(vf: Callable, values: Any, nodes: Any) -> Any:
    """Evaluate a value filter, passing the node ids only to specs that
    compare against a per-node operand (plain callables keep their
    one-argument contract)."""
    if getattr(vf, "needs_nodes", False):
        return vf(values, nodes)
    return vf(values)


# ------------------------------------------------------- residual contracts


@dataclass(frozen=True)
class ResidualDecl:
    """How an :class:`EdgePush` kernel's updates translate to residuals.

    The declaration is what makes a plan eligible for the asynchronous
    priority/delta engine (:class:`repro.exec.engine.AsyncEngine`): it
    tells the engine how much "unprocessed change" a node carries, so the
    scheduler can process highest-residual nodes first without any round
    barrier. BSP execution ignores it entirely.

    ``mode``:

    * ``"monotone"`` - the push target improves monotonically under the
      kernel's reducer, which must be ``MIN`` (SSSP's distances, CC-LP's
      and BFS's labels): the engine applies it inline and refuses any
      other. A node's residual is the size of its last improvement;
      processing a node relaxes its out-edges exactly as the kernel
      describes.
    * ``"accumulate"`` - delta-style mass propagation (PageRank): each
      node holds a residual of un-pushed mass; processing moves the
      residual into ``value`` and pushes ``transform(residual, node)``
      along the out-edges. ``init_value``/``init_residual`` give the
      starting arrays; ``dangling="uniform"`` redistributes
      ``dangling_scale * residual`` of zero-out-degree nodes uniformly.

    ``tolerance`` is the accumulate-mode stop threshold: the engine stops
    once the total remaining residual mass falls below it.
    """

    mode: str  # "monotone" | "accumulate"
    tolerance: float = 1e-9
    value: NodePropMap | None = None  # accumulate: the map holding results
    dangling: str | None = None  # accumulate: None | "uniform"
    dangling_scale: float = 1.0
    init_value: Callable[[Any], Any] | None = None  # nodes -> values
    init_residual: Callable[[Any], Any] | None = None  # nodes -> residuals

    def __post_init__(self) -> None:
        if self.mode not in ("monotone", "accumulate"):
            raise ValueError(f"unknown residual mode {self.mode!r}")
        if self.mode == "accumulate" and (
            self.value is None
            or self.init_value is None
            or self.init_residual is None
        ):
            raise ValueError(
                "accumulate residuals need value, init_value and init_residual"
            )

    def summary(self) -> dict:
        """Machine-readable form (rides ``operator_summary``)."""
        out: dict = {"mode": self.mode, "tolerance": self.tolerance}
        if self.value is not None:
            out["value"] = self.value.name
        if self.dangling is not None:
            out["dangling"] = self.dangling
            out["dangling_scale"] = self.dangling_scale
        return out


# ------------------------------------------------------------- kernel forms


@dataclass
class EdgePush:
    """Push a per-source value along every out-edge into ``target``.

    The canonical pipeline (fixed so both backends meter identically):
    degree filter -> ``charge_per_source`` -> activity filter -> source
    read -> ``value_filter`` -> ``transform`` -> edge expansion (charges
    ``edge_iters`` plus ``charge_per_edge``) -> ``edge_filter`` -> weight
    combine -> reduce. All callables are written array-style (numpy
    semantics); the executor derives the per-node scalar form.

    Filters come in two strengths. Declarative specs -
    :class:`ActiveFilter` (normalized into ``require_active``),
    :class:`CmpFilter` for ``value_filter``, :class:`DstCmpFilter` for
    ``edge_filter`` - serialize in the plan schema. Plain callables stay
    legal but opaque: they run as mask calls inside the same compiled
    kernel (``repro.exec.codegen.PreparedFrontierPush``) and
    ``repro plan`` reports a refusal record in their place.
    """

    target: NodePropMap
    op: ReduceOp
    source: NodePropMap | None = None
    require_active: NodePropMap | ActiveFilter | None = None
    skip_zero_degree: bool = True
    charge_per_source: int = 0
    charge_per_edge: int = 0
    value_filter: Callable[[Any], Any] | None = None
    transform: Callable[[Any, Any], Any] | None = None  # (values, nodes)
    const_value: Any = None
    with_weight: str | None = None  # None | "add" (value + edge weight)
    unit_weights: bool = False
    edge_filter: Callable[[Any, Any], Any] | None = None  # (src, dst) nodes
    # Residual/delta declaration for the asynchronous engine; None means
    # the kernel is only eligible for BSP execution.
    residual: ResidualDecl | None = None

    def __post_init__(self) -> None:
        # ActiveFilter is declarative sugar over the require_active map:
        # normalize here so every downstream layer (reads metadata, both
        # backends) handles one form.
        if isinstance(self.require_active, ActiveFilter):
            self.require_active = self.require_active.map

    @property
    def form(self) -> str:
        return "edge-push"

    def reads(self) -> tuple[str, ...]:
        names = []
        if self.require_active is not None:
            names.append(self.require_active.name)
        if self.source is not None and self.source.name not in names:
            names.append(self.source.name)
        return tuple(names)

    def writes(self) -> tuple[tuple[str, str], ...]:
        return ((self.target.name, self.op.name),)


@dataclass
class NodeUpdate:
    """Reduce ``value(node_ids)`` onto each iterated node itself."""

    target: NodePropMap
    op: ReduceOp
    value: Callable[[Any], Any]  # array of global node ids -> values
    charge_per_node: int = 0
    read_names: tuple[str, ...] = ()

    @property
    def form(self) -> str:
        return "node-update"

    def reads(self) -> tuple[str, ...]:
        return self.read_names

    def writes(self) -> tuple[tuple[str, str], ...]:
        return ((self.target.name, self.op.name),)


@dataclass
class DegreeReduce:
    """SUM-reduce each host's local out-degree share onto the node."""

    target: NodePropMap

    @property
    def form(self) -> str:
        return "degree-reduce"

    def reads(self) -> tuple[str, ...]:
        return ()

    def writes(self) -> tuple[tuple[str, str], ...]:
        return ((self.target.name, SUM.name),)


@dataclass
class KeyRequest:
    """Request ``of[keys[n]]`` for every iterated node ``n`` (a
    ``REQUEST_COMPUTE`` step; the request-sync that follows serves it).

    The canonical pipeline: node visit -> own read of ``keys`` (by local
    id) -> one ``of.request`` per node (``local_ops``; deduplicated
    through the host's request bitset, skipping keys that are already
    readable - own masters and pinned mirrors). The request bits are the
    kernel's only effect and are not a reduction, so ``writes()`` is
    empty.
    """

    keys: NodePropMap
    of: NodePropMap

    @property
    def form(self) -> str:
        return "key-request"

    def reads(self) -> tuple[str, ...]:
        return (self.keys.name,)

    def writes(self) -> tuple[tuple[str, str], ...]:
        return ()


@dataclass
class NodeGather:
    """After request-sync: ``k = keys[n]; g = of.read(k)``, and when
    ``k != g`` reduce ``g`` onto ``n`` itself in ``target`` under ``op``.

    The canonical pipeline: node visit -> own read of ``keys`` (by local
    id) -> keyed read of ``of`` (by global id: own master, broadcast
    pinned mirror, or the requested-remote cache - whichever
    ``NodePropMap.read`` would charge) -> compare -> reduce, thread = the
    node's thread. Pointer jumping is ``keys is of is target`` with MIN.
    """

    keys: NodePropMap
    of: NodePropMap
    target: NodePropMap
    op: ReduceOp

    @property
    def form(self) -> str:
        return "node-gather"

    def reads(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys((self.keys.name, self.of.name)))

    def writes(self) -> tuple[tuple[str, str], ...]:
        return ((self.target.name, self.op.name),)


@dataclass
class NeighborReduceToKey:
    """Per local edge ``n -> m``: when ``source[n] CMP source[m]``, vote
    ``flag`` and reduce ``source[m]`` into ``target[source[n]]`` - a
    reduction whose destination is a dynamically computed node id
    (CC-SV's hook: ``cmp="gt"``, MIN).

    The canonical pipeline: node visit -> own read of ``source`` (by
    local id, edgeless nodes included) -> ``edge_iters`` -> destination
    read (by local id) -> compare -> vote (one ``flag.reduce`` per hit)
    -> reduce, thread = the source node's thread. ``cmp`` names a
    comparison as :class:`CmpFilter` does.
    """

    source: NodePropMap
    target: NodePropMap
    op: ReduceOp
    cmp: str
    flag: BoolReducer

    def __post_init__(self) -> None:
        if self.cmp not in _CMP_OPS:
            raise ValueError(
                f"unknown comparison {self.cmp!r}; use one of {sorted(_CMP_OPS)}"
            )

    @property
    def form(self) -> str:
        return "neighbor-reduce-to-key"

    def compare(self, own: Any, other: Any) -> Any:
        """``own CMP other`` (numpy semantics, scalars included)."""
        return _CMP_OPS[self.cmp](own, other)

    def reads(self) -> tuple[str, ...]:
        return (self.source.name,)

    def writes(self) -> tuple[tuple[str, str], ...]:
        return ((self.target.name, self.op.name),)


@dataclass
class ScalarKernel:
    """An opaque per-node body run as the scalar reference loop on both
    backends. ``read_names``/``write_names`` declare the maps touched so
    plans stay introspectable (``repro plan``) even for opaque bodies.

    Under ``jobs=N`` a scalar body runs replicated on every process, like
    every phase but the adjacent-vertex forms on thread-local maps
    (``repro.exec.pool``): it needs no declaration of what it mutates.
    """

    body: Callable[[OperatorContext], None]
    read_names: tuple[str, ...] = ()
    write_names: tuple[tuple[str, str], ...] = ()

    @property
    def form(self) -> str:
        return "scalar"

    def reads(self) -> tuple[str, ...]:
        return self.read_names

    def writes(self) -> tuple[tuple[str, str], ...]:
        return self.write_names


Kernel = Union[
    EdgePush,
    NodeUpdate,
    DegreeReduce,
    KeyRequest,
    NodeGather,
    NeighborReduceToKey,
    ScalarKernel,
]


# ------------------------------------------------------------------- steps


@dataclass
class Operator:
    """One compute phase: a kernel over an iteration space, with a label
    (the trace/profile operator attribution) and a BSP phase kind."""

    label: str
    space: str  # "masters" | "all"
    kernel: Kernel
    kind: PhaseKind = PhaseKind.REDUCE_COMPUTE


@dataclass
class OperatorStep:
    operator: Operator


@dataclass
class SyncStep:
    """A sync collective on one map: "request", "reduce", or "broadcast"
    (broadcast is a no-op unless the map is pinned, as at the map layer)."""

    map: NodePropMap
    action: str

    def __post_init__(self) -> None:
        if self.action not in ("request", "reduce", "broadcast"):
            raise ValueError(f"unknown sync action {self.action!r}")


@dataclass
class ResetStep:
    """Reset a map's values (and its per-loop reducer binding) each round.

    ``values`` is array-style over global node ids unless ``elementwise``
    (then it is per-node, used verbatim by both backends - required for
    non-numeric values like tuples).
    """

    map: NodePropMap
    values: Callable[[Any], Any]
    elementwise: bool = False


@dataclass
class HostStep:
    """Host-side scalar code between phases (dangling mass, deltas, ...)."""

    label: str
    fn: Callable[[], None]


@dataclass
class Until:
    """An outer loop's exit test: when ``predicate()`` holds the loop ends
    here, skipping the rest of the iteration (a do-while's ``break``)."""

    predicate: Callable[[], bool]


Step = Union[OperatorStep, SyncStep, ResetStep, HostStep, Until, "Plan"]


# -------------------------------------------------------------------- plans


@dataclass
class Plan:
    """An algorithm loop as data; loops nest.

    Without sub-plans, ``steps`` is one BSP round and every round advances
    the cluster's round counter. The engine
    (:meth:`repro.exec.engine.BSPEngine.drive`) runs rounds until
    quiescence over ``quiesce`` maps and/or a custom ``converged``
    predicate, with checkpoint/recovery over ``maps`` (defaults to
    ``quiesce``) plus optional ``extra_snapshot`` / ``extra_restore`` for
    loop-private host state. A plan with a sub-plan among its ``steps`` is
    an outer loop instead: its iterations are not rounds, and an
    :class:`Until` step ends it (without one it runs once, like a
    warm-up). ``pins`` maps each map whose mirrors the engine pins at plan
    entry (before the entry checkpoint) to its invariant.
    """

    name: str
    pgraph: PartitionedGraph
    steps: Sequence[Step]
    quiesce: Sequence[NodePropMap] = ()
    converged: Callable[[], bool] | None = None
    maps: Sequence[NodePropMap] = ()
    max_rounds: int = 100000
    raise_on_max_rounds: bool = True
    loop_label: str = "KimbapWhile"
    extra_snapshot: Callable[[], object] | None = None
    extra_restore: Callable[[object], None] | None = None
    pins: Mapping[NodePropMap, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.is_outer and any(isinstance(step, Until) for step in self.steps):
            raise ValueError(f"plan {self.name!r}: Until ends an outer loop only")

    @property
    def is_outer(self) -> bool:
        """Does this plan nest sub-plans (an outer loop, not rounds)?"""
        return any(isinstance(step, Plan) for step in self.steps)


def walk_plans(plan: Plan) -> Iterator[Plan]:
    """``plan`` and every plan nested in it, outermost first."""
    yield plan
    for step in plan.steps:
        if isinstance(step, Plan):
            yield from walk_plans(step)


# ------------------------------------------------------------- introspection


def operator_summary(operator: Operator) -> dict:
    """Machine-readable description of one operator (for ``repro plan``)."""
    kernel = operator.kernel
    summary = {
        "label": operator.label,
        "space": operator.space,
        "kind": operator.kind.value,
        "form": kernel.form,
        "reads": list(kernel.reads()),
        "writes": [
            {"map": name, "reducer": reducer} for name, reducer in kernel.writes()
        ],
    }
    residual = getattr(kernel, "residual", None)
    if residual is not None:
        # Schema v1.1: async-engine eligibility is inspectable per kernel.
        summary["residual"] = residual.summary()
    if isinstance(kernel, EdgePush):
        # Schema v1.2: filter predicates are inspectable per kernel -
        # declarative specs serialize in full, opaque callables get a
        # refusal record naming the callable and the consequence.
        filters: dict = {}
        if kernel.require_active is not None:
            filters["active"] = {
                "kind": "active",
                "map": kernel.require_active.name,
            }
        if kernel.value_filter is not None:
            filters["value"] = filter_summary(kernel.value_filter)
        if kernel.edge_filter is not None:
            filters["edge"] = filter_summary(kernel.edge_filter)
        if filters:
            summary["filters"] = filters
    return summary


def _step_summary(step: Step) -> dict:
    if isinstance(step, OperatorStep):
        return {"step": "operator", **operator_summary(step.operator)}
    if isinstance(step, SyncStep):
        return {"step": "sync", "map": step.map.name, "action": step.action}
    if isinstance(step, ResetStep):
        return {"step": "reset", "map": step.map.name}
    if isinstance(step, Plan):
        return {"step": "plan", **plan_summary(step)}
    if isinstance(step, Until):
        return {"step": "until"}
    return {"step": "host", "label": step.label}


def plan_summary(plan: Plan) -> dict:
    """Machine-readable description of a whole plan, sub-plans nested in
    their ``"plan"`` steps. An outer plan that runs once has no ``loop``."""
    summary: dict = {"name": plan.name}
    if plan.is_outer:
        if any(isinstance(step, Until) for step in plan.steps):
            summary["loop"] = "until"
    elif plan.quiesce and plan.converged is not None:
        summary["loop"] = "quiescence+custom"
    elif plan.quiesce:
        summary["loop"] = "quiescence"
    else:
        summary["loop"] = "custom"
    summary["steps"] = [_step_summary(step) for step in plan.steps]
    if not plan.is_outer:
        summary["quiesce"] = [prop.name for prop in plan.quiesce]
    if "loop" in summary:
        summary["max_rounds"] = plan.max_rounds
    if plan.pins:
        summary["pins"] = {prop.name: invariant for prop, invariant in plan.pins.items()}
    return summary


def format_plan_summary(summary: dict, indent: str = "") -> str:
    """Render one plan summary as indented text (the ``repro plan`` view);
    each sub-plan is indented under the plan that runs it."""
    loop = f" [{summary['loop']}]" if "loop" in summary else ""
    lines = [f"{indent}plan {summary['name']}{loop}"]
    indent += "  "
    if summary.get("quiesce"):
        lines.append(f"{indent}quiesce: {', '.join(summary['quiesce'])}")
    if summary.get("pins"):
        pins = ", ".join(f"{name} ({inv})" for name, inv in summary["pins"].items())
        lines.append(f"{indent}pins: {pins}")
    for step in summary["steps"]:
        if step["step"] == "operator":
            writes = ", ".join(
                f"{write['map']}<-{write['reducer']}" for write in step["writes"]
            )
            reads = ", ".join(step["reads"]) or "-"
            lines.append(
                f"{indent}operator {step['label']} ({step['form']}, {step['space']}, "
                f"{step['kind']}) reads: {reads} writes: {writes or '-'}"
            )
        elif step["step"] == "sync":
            lines.append(f"{indent}sync {step['action']} {step['map']}")
        elif step["step"] == "reset":
            lines.append(f"{indent}reset {step['map']}")
        elif step["step"] == "plan":
            lines.append(format_plan_summary(step, indent))
        elif step["step"] == "until":
            lines.append(f"{indent}until")
        else:
            lines.append(f"{indent}host {step['label']}")
    return "\n".join(lines)


__all__ = [
    "PLAN_SCHEMA",
    "ResidualDecl",
    "ActiveFilter",
    "CmpFilter",
    "DstCmpFilter",
    "apply_value_filter",
    "filter_summary",
    "EdgePush",
    "NodeUpdate",
    "DegreeReduce",
    "KeyRequest",
    "NodeGather",
    "NeighborReduceToKey",
    "ScalarKernel",
    "Kernel",
    "Operator",
    "OperatorStep",
    "SyncStep",
    "ResetStep",
    "HostStep",
    "Until",
    "Step",
    "Plan",
    "walk_plans",
    "operator_summary",
    "plan_summary",
    "format_plan_summary",
]
