"""Interpreter statement coverage: MapSet, EdgeWeight, nested control flow."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.compiler.compile import compile_program
from repro.compiler.interp import build_plan
from repro.compiler.ir import (
    ActiveNode,
    Assign,
    BinOp,
    Const,
    EdgeDst,
    EdgeWeight,
    ForEdges,
    If,
    KimbapWhile,
    MapRead,
    MapReduce,
    ParFor,
    Var,
    stmts,
)
from repro.core import MIN, SUM, NodePropMap
from repro.exec import Executor
from repro.graph import generators
from repro.partition import partition


def make_setting(weighted=False, hosts=2):
    graph = generators.path(6, weighted=weighted)
    pgraph = partition(graph, hosts, "oec")
    cluster = Cluster(hosts, threads_per_host=2)
    return graph, pgraph, cluster


class TestEdgeWeightInPrograms:
    def test_weighted_degree_program(self):
        """Sum of incident edge weights via EdgeWeight - a one-round program."""
        graph, pgraph, cluster = make_setting(weighted=True)
        strength = NodePropMap(cluster, pgraph, "strength")
        strength.set_initial(lambda node: 0.0)
        program = KimbapWhile(
            ("strength",),
            ParFor(
                stmts(
                    ForEdges(
                        "edge",
                        stmts(
                            MapReduce(
                                "strength",
                                ActiveNode(),
                                EdgeWeight("edge"),
                                SUM,
                            )
                        ),
                    )
                )
            ),
            name="strength",
        )
        loop = compile_program(program)
        # one productive round; the quiescence round re-adds, so run a
        # single round
        Executor(cluster).run(
            build_plan(
                loop, pgraph, {"strength": strength},
                max_rounds=1, raise_on_max_rounds=False,
            )
        )
        snapshot = strength.snapshot()
        expected = {}
        for node in graph.nodes():
            expected[node] = sum(
                graph.edge_weight(e) for e in graph.edge_range(node)
            )
        for node, value in expected.items():
            assert snapshot[node] == pytest.approx(value)


class TestNestedControlFlow:
    def test_if_inside_for_edges_inside_if(self):
        graph, pgraph, cluster = make_setting()
        flag = NodePropMap(cluster, pgraph, "flag")
        out = NodePropMap(cluster, pgraph, "out")
        flag.set_initial(lambda node: node % 2)
        out.set_initial(lambda node: 999)
        # odd nodes propagate their id to smaller-id neighbors only
        program = KimbapWhile(
            ("out",),
            ParFor(
                stmts(
                    MapRead("my_flag", "flag", ActiveNode()),
                    If(
                        BinOp("==", Var("my_flag"), Const(1)),
                        stmts(
                            ForEdges(
                                "edge",
                                stmts(
                                    If(
                                        BinOp("<", EdgeDst("edge"), ActiveNode()),
                                        stmts(
                                            MapReduce(
                                                "out",
                                                EdgeDst("edge"),
                                                ActiveNode(),
                                                MIN,
                                            )
                                        ),
                                    )
                                ),
                            )
                        ),
                    ),
                )
            ),
            name="nested",
        )
        loop = compile_program(program)
        Executor(cluster).run(build_plan(loop, pgraph, {"flag": flag, "out": out}))
        snapshot = out.snapshot()
        # node k receives k+1 iff k+1 is odd and k < k+1: even k get k+1
        for node in range(5):
            if (node + 1) % 2 == 1:
                assert snapshot[node] == node + 1
            else:
                assert snapshot[node] == 999

    def test_assign_chains_evaluate_in_order(self):
        graph, pgraph, cluster = make_setting()
        out = NodePropMap(cluster, pgraph, "out")
        out.set_initial(lambda node: 10_000)
        program = KimbapWhile(
            ("out",),
            ParFor(
                stmts(
                    Assign("a", BinOp("*", ActiveNode(), Const(2))),
                    Assign("b", BinOp("+", Var("a"), Const(1))),
                    Assign("a", BinOp("+", Var("b"), Var("a"))),  # reassignment
                    MapReduce("out", ActiveNode(), Var("a"), MIN),
                )
            ),
            name="chain",
        )
        Executor(cluster).run(build_plan(compile_program(program), pgraph, {"out": out}))
        snapshot = out.snapshot()
        for node in range(graph.num_nodes):
            assert snapshot[node] == 2 * node + (2 * node + 1)
