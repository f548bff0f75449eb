"""Compiled applications: Figure 4 programs run through the full pipeline.

Each function compiles its DSL operators and drives them exactly like the
paper's generated code (Figure 8): the outer do-while and multi-operator
composition are ordinary host code, each KimbapWhile is a compiled BSP
loop. ``optimize=False`` produces the NO-OPT arms of Figure 12.

These return the same :class:`~repro.algorithms.common.AlgorithmResult` as
the hand-written kernels, and tests assert both paths agree exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.common import AlgorithmResult, left_sum
from repro.algorithms.mis import _hash_priority
from repro.cluster.cluster import Cluster
from repro.compiler.compile import compile_program
from repro.compiler.interp import run_compiled, run_round
from repro.compiler.programs import (
    IN_SET,
    UNDECIDED,
    cc_lp_program,
    cc_sclp_propagate,
    cc_sclp_shortcut,
    cc_sv_hook,
    cc_sv_shortcut,
    mis_blocked,
    mis_exclude,
    mis_select,
    pr_degree,
    pr_push,
    pr_rebuild,
)
from repro.core.propmap import NodePropMap
from repro.core.variants import RuntimeVariant
from repro.partition.base import PartitionedGraph
from repro.runtime.bool_reducer import BoolReducer


def compiled_cc_sv(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    optimize: bool = True,
) -> AlgorithmResult:
    """CC-SV exactly as Figure 4 writes it and Figure 8 runs it."""
    hook = compile_program(cc_sv_hook(), optimize=optimize)
    shortcut = compile_program(cc_sv_shortcut(), optimize=optimize)
    parent = NodePropMap(cluster, pgraph, "parent", variant=variant)
    parent.set_initial(lambda node: node)
    work_done = BoolReducer(cluster, "work_done")
    maps = {"parent": parent}
    reducers = {"work_done": work_done}
    total_rounds = 0
    while True:
        work_done.set_all(False)
        total_rounds += run_compiled(hook, cluster, pgraph, maps, reducers)
        work_done.sync()
        total_rounds += run_compiled(shortcut, cluster, pgraph, maps, reducers)
        if not work_done.read():
            break
    return AlgorithmResult(name="CC-SV", values=parent.snapshot(), rounds=total_rounds)


def compiled_cc_lp(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    optimize: bool = True,
) -> AlgorithmResult:
    loop = compile_program(cc_lp_program(), optimize=optimize)
    label = NodePropMap(cluster, pgraph, "label", variant=variant)
    label.set_initial(lambda node: node)
    rounds = run_compiled(loop, cluster, pgraph, {"label": label})
    return AlgorithmResult(name="CC-LP", values=label.snapshot(), rounds=rounds)


def compiled_cc_sclp(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    optimize: bool = True,
) -> AlgorithmResult:
    propagate = compile_program(cc_sclp_propagate(), optimize=optimize)
    shortcut = compile_program(cc_sclp_shortcut(), optimize=optimize)
    label = NodePropMap(cluster, pgraph, "label", variant=variant)
    label.set_initial(lambda node: node)
    maps = {"label": label}
    # One interleaved quiescence loop over both operators, as in the
    # hand-written kernel: pin once around the whole loop.
    for map_name, invariant in propagate.pinned.items():
        maps[map_name].pin_mirrors(invariant=invariant)
    rounds = 0
    while True:
        label.reset_updated()
        run_round(propagate, cluster, pgraph, maps)
        run_round(shortcut, cluster, pgraph, maps)
        rounds += 1
        if not label.is_updated():
            break
    for map_name in propagate.pinned:
        maps[map_name].unpin_mirrors()
    return AlgorithmResult(name="CC-SCLP", values=label.snapshot(), rounds=rounds)


def compiled_mis(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    optimize: bool = True,
) -> AlgorithmResult:
    """Priority MIS from three compiled operators (blocked/select/exclude)."""
    blocked_loop = compile_program(mis_blocked(), optimize=optimize)
    select_loop = compile_program(mis_select(), optimize=optimize)
    exclude_loop = compile_program(mis_exclude(), optimize=optimize)
    state = NodePropMap(cluster, pgraph, "state", variant=variant)
    priority = NodePropMap(cluster, pgraph, "priority", variant=variant, value_nbytes=16)
    blocked = NodePropMap(cluster, pgraph, "blocked", variant=variant)
    state.set_initial(lambda node: UNDECIDED)
    priority.set_initial(lambda node: (_hash_priority(node), node))
    blocked.set_initial(lambda node: -1)
    maps = {"state": state, "priority": priority, "blocked": blocked}
    pins: dict[str, str] = {}
    for loop in (blocked_loop, select_loop, exclude_loop):
        pins.update(loop.pinned)
    for map_name, invariant in pins.items():
        maps[map_name].pin_mirrors(invariant=invariant)
    rounds = 0
    while True:
        state.reset_updated()
        extern = {"round": rounds}
        run_round(blocked_loop, cluster, pgraph, maps, extern=extern)
        run_round(select_loop, cluster, pgraph, maps, extern=extern)
        run_round(exclude_loop, cluster, pgraph, maps, extern=extern)
        rounds += 1
        if not state.is_updated():
            break
    for map_name in pins:
        maps[map_name].unpin_mirrors()
    values = state.snapshot()
    return AlgorithmResult(
        name="MIS",
        values=values,
        rounds=rounds,
        stats={"set_size": sum(1 for v in values.values() if v == IN_SET)},
    )


def compiled_pagerank(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    optimize: bool = True,
    damping: float = 0.85,
    tolerance: float = 1e-9,
    max_rounds: int = 100,
) -> AlgorithmResult:
    """PageRank from three compiled operators (degree/push/rebuild).

    The power iteration itself - dangling-mass redistribution and the
    L1-delta convergence test - stays host code, mirroring the hand-written
    kernel's host steps, so both paths compute bitwise-identical ranks.
    """
    degree_loop = compile_program(pr_degree(), optimize=optimize)
    push_loop = compile_program(pr_push(), optimize=optimize)
    rebuild_loop = compile_program(pr_rebuild(), optimize=optimize)
    num_nodes = pgraph.num_nodes
    if num_nodes == 0:
        return AlgorithmResult(name="PR", values={}, rounds=0)
    degree = NodePropMap(cluster, pgraph, "degree", variant=variant)
    rank = NodePropMap(cluster, pgraph, "rank", variant=variant)
    contribution = NodePropMap(cluster, pgraph, "contribution", variant=variant)
    degree.set_initial(lambda node: 0)
    rank.set_initial(lambda node: 1.0 / num_nodes)
    contribution.set_initial(lambda node: 0.0)
    maps = {"degree": degree, "rank": rank, "contribution": contribution}
    run_round(degree_loop, cluster, pgraph, maps)
    degrees = degree.snapshot_array()

    # Pin after the degree warm-up so the push loop's mirrors (rank and the
    # now-final degrees) start from reduced values.
    for map_name, invariant in push_loop.pinned.items():
        maps[map_name].pin_mirrors(invariant=invariant)
    base = (1.0 - damping) / num_nodes
    previous = np.full(num_nodes, 1.0 / num_nodes)
    delta = math.inf
    rounds = 0
    while rounds < max_rounds:
        contribution.reset_values(lambda node: 0.0)
        run_round(push_loop, cluster, pgraph, maps, extern={"damping": damping})
        dangling = left_sum(previous[degrees == 0])
        uniform = base + damping * dangling / num_nodes
        run_round(rebuild_loop, cluster, pgraph, maps, extern={"uniform": uniform})
        rounds += 1
        current = rank.snapshot_array()
        delta = left_sum(np.abs(current - previous))
        previous = current
        if delta < tolerance:
            break
    for map_name in push_loop.pinned:
        maps[map_name].unpin_mirrors()
    values = rank.snapshot()
    return AlgorithmResult(
        name="PR",
        values=values,
        rounds=rounds,
        stats={"delta": delta, "mass": left_sum(np.fromiter(values.values(), float))},
    )


COMPILED_APPS = {
    "CC-SV": compiled_cc_sv,
    "CC-LP": compiled_cc_lp,
    "CC-SCLP": compiled_cc_sclp,
    "MIS": compiled_mis,
    "PR": compiled_pagerank,
}
