"""The split-operator + request transformation (Section 5.1).

For each map read ``R`` that needs a request, the compiler emits a request
ParFor containing copies of the statements that dominate ``R`` - enough to
recompute ``R``'s key - with ``R`` itself replaced by ``Request``. Writes
(reduces) are never replicated: operators are cautious, so no write
dominates a read, and replicating one would double-apply it.

For the structured IR, "the statements dominating R" are exactly the
prefix of R's enclosing block chain: straight-line statements before each
enclosing construct, plus the enclosing If/ForEdges headers themselves
(with the non-taken branches dropped - their contents do not dominate R).
The CFG dominator computation in :mod:`repro.compiler.dominators` exists
to check this equivalence in tests.
"""

from __future__ import annotations

from repro.compiler.ir import (
    Assign,
    ForEdges,
    If,
    MapRead,
    MapReduce,
    MapRequest,
    MapSet,
    ParFor,
    ReducerReduce,
    Stmt,
    expr_vars,
)


def request_slice(
    body: tuple[Stmt, ...], target: MapRead
) -> tuple[tuple[Stmt, ...], bool]:
    """The dominating prefix of ``target`` with the read replaced by Request.

    Returns ``(slice, found)``. Side-effecting statements (reduces, sets)
    are dropped from the copy; If/ForEdges constructs that do not contain
    the target are dropped entirely (their bodies do not dominate it).
    """
    prefix: list[Stmt] = []
    for stmt in body:
        if stmt is target:
            prefix.append(MapRequest(target.map, target.key))
            return tuple(prefix), True
        if isinstance(stmt, If):
            then_slice, found = request_slice(stmt.then, target)
            if found:
                prefix.append(If(stmt.cond, then_slice, ()))
                return tuple(prefix), True
            else_slice, found = request_slice(stmt.orelse, target)
            if found:
                prefix.append(If(stmt.cond, (), else_slice))
                return tuple(prefix), True
            continue  # branch contents do not dominate later statements
        if isinstance(stmt, ForEdges):
            body_slice, found = request_slice(stmt.body, target)
            if found:
                prefix.append(ForEdges(stmt.edge_var, body_slice))
                return tuple(prefix), True
            continue
        if isinstance(stmt, (MapReduce, MapSet, ReducerReduce, MapRequest)):
            continue  # never replicate side effects into request phases
        prefix.append(stmt)  # Assign / MapRead
    return tuple(prefix), False


def prune_request_slice(body: tuple[Stmt, ...]) -> tuple[Stmt, ...]:
    """Backward def-use pruning of a request slice.

    The paper's rule copies *all* operations dominating the read; most of
    them are dead in the copy (their values feed the operator, not the
    request key). Dropping statements that don't (transitively) feed the
    ``Request`` key or its enclosing conditions is a safe refinement -
    slices have no side effects by construction - and it is what makes
    independent request phases *pure* and therefore coalescible.
    """
    needed: set[str] = set()

    def visit(block: tuple[Stmt, ...]) -> tuple[Stmt, ...]:
        kept: list[Stmt] = []
        for stmt in reversed(block):
            if isinstance(stmt, MapRequest):
                needed.update(expr_vars(stmt.key))
                kept.append(stmt)
            elif isinstance(stmt, If):
                then_kept = visit(stmt.then)
                else_kept = visit(stmt.orelse)
                if then_kept or else_kept:
                    needed.update(expr_vars(stmt.cond))
                    kept.append(If(stmt.cond, then_kept, else_kept))
            elif isinstance(stmt, ForEdges):
                body_kept = visit(stmt.body)
                if body_kept:
                    kept.append(ForEdges(stmt.edge_var, body_kept))
                    needed.discard(stmt.edge_var)
            elif isinstance(stmt, (Assign, MapRead)):
                if stmt.var in needed:
                    # the latest definition satisfies the need; its own
                    # operands become needed in turn
                    needed.discard(stmt.var)
                    source = stmt.expr if isinstance(stmt, Assign) else stmt.key
                    needed.update(expr_vars(source))
                    kept.append(stmt)
        return tuple(reversed(kept))

    return visit(body)


def build_request_parfor(
    par_for: ParFor, target: MapRead, iterator: str, prune: bool = False
) -> ParFor:
    """The request ParFor the split transform inserts before the operator."""
    body, found = request_slice(par_for.body, target)
    if not found:
        raise ValueError(f"read {target} not found in operator body")
    if prune:
        body = prune_request_slice(body)
    return ParFor(body, iterator=iterator)
