"""Dominator and post-dominator trees (Cooper-Harvey-Kennedy).

The compiler does not call this module: it orders map reads by CFG node
order and takes a request ParFor's statements from the read's enclosing
block chain (:mod:`repro.compiler.transforms`), and it appends the reduce
syncs after the main ParFor. Tests use these trees as the oracle for both
(Section 5.1) and cross-check them against
``networkx.immediate_dominators``.
"""

from __future__ import annotations

from repro.compiler.cfg import CFG, ENTRY, EXIT


def _reverse_postorder(succ: list[list[int]], root: int) -> list[int]:
    seen = [False] * len(succ)
    order: list[int] = []
    stack: list[tuple[int, int]] = [(root, 0)]
    seen[root] = True
    while stack:
        node, child_index = stack[-1]
        if child_index < len(succ[node]):
            stack[-1] = (node, child_index + 1)
            child = succ[node][child_index]
            if not seen[child]:
                seen[child] = True
                stack.append((child, 0))
        else:
            stack.pop()
            order.append(node)
    order.reverse()
    return order


def _immediate_dominators(succ: list[list[int]], root: int) -> dict[int, int]:
    """CHK iterative algorithm; unreachable nodes are absent from the result."""
    order = _reverse_postorder(succ, root)
    position = {node: index for index, node in enumerate(order)}
    preds: dict[int, list[int]] = {node: [] for node in order}
    for src in order:
        for dst in succ[src]:
            if dst in position:
                preds[dst].append(src)
    idom: dict[int, int] = {root: root}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while position[a] > position[b]:
                a = idom[a]
            while position[b] > position[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in order:
            if node == root:
                continue
            candidates = [p for p in preds[node] if p in idom]
            if not candidates:
                continue
            new_idom = candidates[0]
            for other in candidates[1:]:
                new_idom = intersect(new_idom, other)
            if idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    return idom


def immediate_dominators(cfg: CFG) -> dict[int, int]:
    """idom of every reachable node (ENTRY maps to itself)."""
    return _immediate_dominators(cfg.succ, ENTRY)


def immediate_post_dominators(cfg: CFG) -> dict[int, int]:
    """ipdom of every node that reaches EXIT (EXIT maps to itself)."""
    reversed_succ: list[list[int]] = [[] for _ in range(cfg.num_nodes)]
    for src, dsts in enumerate(cfg.succ):
        for dst in dsts:
            reversed_succ[dst].append(src)
    return _immediate_dominators(reversed_succ, EXIT)


def dominates(idom: dict[int, int], a: int, b: int) -> bool:
    """Does ``a`` dominate ``b``? (every node dominates itself)"""
    node = b
    while node != a:
        parent = idom.get(node)
        if parent is None or parent == node:
            return False
        node = parent
    return True


def dominators_of(idom: dict[int, int], node: int) -> list[int]:
    """All dominators of ``node``, nearest first (excluding node itself)."""
    chain = []
    parent = idom.get(node)
    while parent is not None and parent != node:
        chain.append(parent)
        node, parent = parent, idom.get(parent)
    return chain
