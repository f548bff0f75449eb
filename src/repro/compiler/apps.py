"""Compiled applications: Figure 4 programs run through the full pipeline.

Each function compiles its DSL operators and lowers them with
:func:`~repro.compiler.interp.build_plan` into one plan shaped like the
paper's generated code (Figure 8): each KimbapWhile is a round loop that
pins the mirrors its compilation pinned; operators the paper composes
into one loop (CC-SCLP's propagate + shortcut, MIS's
blocked/select/exclude, PageRank's push/rebuild) run in sequence each
round, with host steps for the scalar code between them; and CC-SV's
hook/shortcut do-while is an outer loop over two round loops.
``optimize=False`` produces the NO-OPT arms of Figure 12. Like the
hand-written apps, they take ``executor=``.

These return the same :class:`~repro.algorithms.common.AlgorithmResult` as
the hand-written kernels, and tests assert both paths agree exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.common import AlgorithmResult, left_sum, resolve_executor
from repro.algorithms.mis import _hash_priority
from repro.cluster.cluster import Cluster
from repro.compiler.compile import compile_program
from repro.compiler.interp import build_plan
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
from repro.core.bool_reducer import BoolReducer
from repro.core.propmap import NodePropMap
from repro.core.variants import RuntimeVariant
from repro.exec import Executor, HostStep, Plan, ResetStep, Until
from repro.partition.base import PartitionedGraph


def compiled_cc_sv(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    optimize: bool = True,
    executor: Executor | None = None,
) -> AlgorithmResult:
    """CC-SV exactly as Figure 4 writes it and Figure 8 runs it."""
    executor = resolve_executor(cluster, executor)
    hook = compile_program(cc_sv_hook(), optimize=optimize)
    shortcut = compile_program(cc_sv_shortcut(), optimize=optimize)
    parent = NodePropMap(cluster, pgraph, "parent", variant=variant)
    parent.set_initial(lambda node: node)
    work_done = BoolReducer(cluster, "work_done")
    maps = {"parent": parent}
    reducers = {"work_done": work_done}
    plan = Plan(
        name="compiled:CC-SV",
        pgraph=pgraph,
        steps=[
            HostStep("work_done:reset", lambda: work_done.set_all(False)),
            build_plan(hook, pgraph, maps, reducers),
            HostStep("work_done:sync", work_done.sync),
            build_plan(shortcut, pgraph, maps, reducers),
            Until(lambda: not work_done.read()),
        ],
        loop_label="compiled:CC-SV",
    )
    rounds = executor.run(plan)
    return AlgorithmResult(name="CC-SV", values=parent.snapshot(), rounds=rounds)


def compiled_cc_lp(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    optimize: bool = True,
    executor: Executor | None = None,
) -> AlgorithmResult:
    executor = resolve_executor(cluster, executor)
    loop = compile_program(cc_lp_program(), optimize=optimize)
    label = NodePropMap(cluster, pgraph, "label", variant=variant)
    label.set_initial(lambda node: node)
    rounds = executor.run(build_plan(loop, pgraph, {"label": label}))
    return AlgorithmResult(name="CC-LP", values=label.snapshot(), rounds=rounds)


def compiled_cc_sclp(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    optimize: bool = True,
    executor: Executor | None = None,
) -> AlgorithmResult:
    executor = resolve_executor(cluster, executor)
    propagate = compile_program(cc_sclp_propagate(), optimize=optimize)
    shortcut = compile_program(cc_sclp_shortcut(), optimize=optimize)
    label = NodePropMap(cluster, pgraph, "label", variant=variant)
    label.set_initial(lambda node: node)
    # One interleaved quiescence loop over both operators, as in the
    # hand-written kernel: pinned once around the whole loop.
    rounds = executor.run(build_plan((propagate, shortcut), pgraph, {"label": label}))
    return AlgorithmResult(name="CC-SCLP", values=label.snapshot(), rounds=rounds)


def compiled_mis(
    cluster: Cluster,
    pgraph: PartitionedGraph,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    optimize: bool = True,
    executor: Executor | None = None,
) -> AlgorithmResult:
    """Priority MIS from three compiled operators (blocked/select/exclude)."""
    executor = resolve_executor(cluster, executor)
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
    # ``round`` stamps ``blocked``. Like the hand-written twin's counter it
    # is not part of the recovery snapshot: stamps are monotone, so stale
    # stamps from before a crash never equal a replayed round's fresh one.
    extern = {"round": -1}

    def next_round() -> None:
        extern["round"] += 1

    plan = build_plan(
        (HostStep("mis:round", next_round), blocked_loop, select_loop, exclude_loop),
        pgraph,
        maps,
        extern=extern,
        quiesce=(state,),
    )
    rounds = executor.run(plan)
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
    executor: Executor | None = None,
) -> AlgorithmResult:
    """PageRank from three compiled operators (degree/push/rebuild).

    The power iteration's scalar code - dangling-mass redistribution and
    the L1-delta convergence test - are host steps of the round, mirroring
    the hand-written kernel's, so both paths compute bitwise-identical
    ranks.
    """
    executor = resolve_executor(cluster, executor)
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
    degrees = None  # the global out-degrees, once the warm-up has run

    def take_degrees() -> None:
        nonlocal degrees
        degrees = degree.snapshot_array()

    base = (1.0 - damping) / num_nodes
    # The operators' extern constants (damping, uniform) and the loop's
    # host state share one dict, snapshotted for crash recovery.
    state = {
        "damping": damping,
        "previous": np.full(num_nodes, 1.0 / num_nodes),
        "delta": math.inf,
    }

    def redistribute_dangling() -> None:
        dangling = left_sum(state["previous"][degrees == 0])
        state["uniform"] = base + damping * dangling / num_nodes

    def update_delta() -> None:
        current = rank.snapshot_array()
        state["delta"] = left_sum(np.abs(current - state["previous"]))
        state["previous"] = current

    # The loop pins after the degree warm-up, so the push loop's mirrors
    # (rank and the now-final degrees) start from reduced values.
    loop = build_plan(
        (
            ResetStep(contribution, lambda node: 0.0, elementwise=True),
            push_loop,
            HostStep("pr:dangling", redistribute_dangling),
            rebuild_loop,
            HostStep("pr:delta", update_delta),
        ),
        pgraph,
        maps,
        extern=state,
        quiesce=(),
        converged=lambda: state["delta"] < tolerance,
        maps=(rank, contribution),
        max_rounds=max_rounds,
        raise_on_max_rounds=False,
        extra_snapshot=lambda: dict(state),
        extra_restore=state.update,
    )
    rounds = executor.run(
        build_plan(
            (degree_loop, HostStep("pr:degrees", take_degrees), loop),
            pgraph,
            maps,
            name="compiled:PR",
        )
    )
    values = rank.snapshot()
    return AlgorithmResult(
        name="PR",
        values=values,
        rounds=rounds,
        stats={
            "delta": state["delta"],
            "mass": left_sum(np.fromiter(values.values(), float)),
        },
    )


COMPILED_APPS = {
    "CC-SV": compiled_cc_sv,
    "CC-LP": compiled_cc_lp,
    "CC-SCLP": compiled_cc_sclp,
    "MIS": compiled_mis,
    "PR": compiled_pagerank,
}
