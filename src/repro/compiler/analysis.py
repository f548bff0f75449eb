"""Operator analysis: key classification, cautiousness, Table 2 kinds.

Every map access key is classified as

* ``active``   - the ParFor's active node itself,
* ``adjacent`` - a destination of one of the active node's edges,
* ``dynamic``  - anything else (typically a value read from another map:
  the trans-vertex case).

Classification flows through simple assignments (``dst = e.dst``) and is
deliberately conservative: a key that *might* be arbitrary is ``dynamic``.
The Section 5.2 optimizations and the Table 2 operator-kind report both
derive from these classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.cfg import build_cfg
from repro.compiler.dominators import immediate_dominators
from repro.compiler.ir import (
    ActiveNode,
    Assign,
    BinOp,
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
    ParFor,
    ReducerReduce,
    Stmt,
    walk,
)

ACTIVE = "active"
ADJACENT = "adjacent"
DYNAMIC = "dynamic"


class NotCautiousError(ValueError):
    """The operator writes a map it later reads (Section 3.2 requires all
    reads to precede all writes)."""


@dataclass
class AccessInfo:
    """One map access (read or reduce) with its key classification."""

    stmt: Stmt
    map: str
    kind: str


@dataclass
class OperatorAnalysis:
    """Everything the transforms need to know about one operator."""

    reads: list[AccessInfo] = field(default_factory=list)
    reduces: list[AccessInfo] = field(default_factory=list)
    accesses_edges: bool = False
    maps_read: set[str] = field(default_factory=set)
    maps_reduced: list[str] = field(default_factory=list)
    reducers_used: list[str] = field(default_factory=list)

    @property
    def is_adjacent_vertex(self) -> bool:
        """Table 2: adjacent-vertex iff no access key is dynamic."""
        return all(
            access.kind != DYNAMIC for access in self.reads + self.reduces
        )

    @property
    def is_trans_vertex(self) -> bool:
        return not self.is_adjacent_vertex

    @property
    def reads_are_adjacent(self) -> bool:
        """Eligibility for the adjacent-neighbors (pinned mirrors) elision:
        all *reads* are of the active node or its neighbors; writes may
        target any node (Section 5.2, the hook case)."""
        return all(access.kind != DYNAMIC for access in self.reads)

    @property
    def masters_only_eligible(self) -> bool:
        """Eligibility for the master-nodes elision: edges never accessed."""
        return not self.accesses_edges


def _expr_kind(expr: Expr, var_kinds: dict[str, str]) -> str:
    from repro.compiler.ir import Var

    if isinstance(expr, ActiveNode):
        return ACTIVE
    if isinstance(expr, EdgeDst):
        return ADJACENT
    if isinstance(expr, Var):
        return var_kinds.get(expr.name, DYNAMIC)
    return DYNAMIC


def analyze_operator(par_for: ParFor) -> OperatorAnalysis:
    """Analyze one operator body; raises :class:`NotCautiousError` if a map
    is read after being Set within the operator."""
    analysis = OperatorAnalysis()
    var_kinds: dict[str, str] = {}
    set_maps: set[str] = set()

    def visit(body: tuple[Stmt, ...]) -> None:
        for stmt in body:
            if isinstance(stmt, Assign):
                var_kinds[stmt.var] = _expr_kind(stmt.expr, var_kinds)
            elif isinstance(stmt, MapRead):
                if stmt.map in set_maps:
                    raise NotCautiousError(
                        f"map {stmt.map!r} is read after being written; "
                        "operators must be cautious (reads before writes)"
                    )
                kind = _expr_kind(stmt.key, var_kinds)
                analysis.reads.append(AccessInfo(stmt, stmt.map, kind))
                analysis.maps_read.add(stmt.map)
                var_kinds[stmt.var] = DYNAMIC  # a property value, not a position
            elif isinstance(stmt, MapRequest):
                raise ValueError("MapRequest is compiler-internal; not valid in input")
            elif isinstance(stmt, MapReduce):
                kind = _expr_kind(stmt.key, var_kinds)
                analysis.reduces.append(AccessInfo(stmt, stmt.map, kind))
                if stmt.map not in analysis.maps_reduced:
                    analysis.maps_reduced.append(stmt.map)
            elif isinstance(stmt, MapSet):
                set_maps.add(stmt.map)
            elif isinstance(stmt, ReducerReduce):
                if stmt.reducer not in analysis.reducers_used:
                    analysis.reducers_used.append(stmt.reducer)
            elif isinstance(stmt, If):
                visit(stmt.then)
                visit(stmt.orelse)
            elif isinstance(stmt, ForEdges):
                analysis.accesses_edges = True
                visit(stmt.body)

    visit(par_for.body)
    for stmt in walk(par_for.body):
        if isinstance(stmt, (If,)):
            continue
        for expr_field in ("key", "value", "cond", "expr"):
            expr = getattr(stmt, expr_field, None)
            if expr is not None and _mentions_edges(expr):
                analysis.accesses_edges = True
    return analysis


def _mentions_edges(expr: Expr) -> bool:
    if isinstance(expr, (EdgeDst, EdgeWeight)):
        return True
    if isinstance(expr, BinOp):
        return _mentions_edges(expr.left) or _mentions_edges(expr.right)
    if isinstance(expr, Not):
        return _mentions_edges(expr.expr)
    return False


def reads_in_dominance_order(par_for: ParFor) -> list[MapRead]:
    """Map reads ordered so dominators come first (Section 5.1's iteration
    order). For the structured IR, CFG-node creation order realizes this;
    the dominator tree is still computed to assert the invariant."""
    cfg = build_cfg(par_for.body)
    idom = immediate_dominators(cfg)
    del idom  # computed for parity with the paper; order is structural
    ordered: list[MapRead] = []
    for node in range(2, cfg.num_nodes):
        stmt = cfg.stmt_of[node]
        if isinstance(stmt, MapRead) and stmt not in ordered:
            ordered.append(stmt)
    return ordered
