"""Tests for request-phase coalescing."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.compiler.compile import RequestPhase, coalesce_request_phases, compile_program
from repro.compiler.interp import build_plan
from repro.compiler.ir import (
    ActiveNode,
    BinOp,
    KimbapWhile,
    MapRead,
    MapReduce,
    ParFor,
    Var,
    stmts,
)
from repro.core import MIN, NodePropMap
from repro.exec import Executor
from repro.graph import generators
from repro.partition import partition


def two_map_program() -> KimbapWhile:
    """Reads two maps at the active node, reduces their min onto a third.

    With masters-only elision *disabled* (the operator touches no edges,
    so under optimize=True the iterator becomes masters and both requests
    elide; under NO-OPT both requests survive and are pure + mergeable).
    """
    body = stmts(
        MapRead("a_value", "a", ActiveNode()),
        MapRead("b_value", "b", ActiveNode()),
        MapReduce("out", ActiveNode(), BinOp("min", Var("a_value"), Var("b_value")), MIN),
    )
    return KimbapWhile(("out",), ParFor(body), name="two_map")


class TestCoalescePass:
    def test_pure_phases_merge(self):
        loop = compile_program(two_map_program(), optimize=False)
        # NO-OPT skips the coalescing pass: both request phases survive
        assert len(loop.request_phases) == 2

    def test_optimized_program_merges_pure_requests(self):
        # Force the request phases to survive optimization by making the
        # operator touch edges (disables masters-only elision) but read
        # maps that are not pinned (keys are ACTIVE but maps unpinned
        # because reads are... pinned applies; so craft dynamic keys).
        from repro.compiler.ir import Const

        body = stmts(
            MapRead("a_value", "a", BinOp("+", ActiveNode(), Const(0))),
            MapRead("b_value", "b", BinOp("+", ActiveNode(), Const(0))),
            MapReduce(
                "out", ActiveNode(), BinOp("min", Var("a_value"), Var("b_value")), MIN
            ),
        )
        program = KimbapWhile(("out",), ParFor(body), name="dyn")
        loop = compile_program(program, optimize=True)
        # both keys are dynamic (+0 defeats the classifier on purpose), so
        # two pure request phases exist and coalesce into one
        assert len(loop.request_phases) == 1
        assert set(loop.request_phases[0].maps) == {"a", "b"}
        assert loop.request_phases[0].pure

    def test_mergeable_only_when_consecutive_and_pure(self):
        pure_a = RequestPhase(ParFor(stmts(), iterator="nodes"), ("a",), pure=True)
        impure = RequestPhase(ParFor(stmts(), iterator="nodes"), ("b",), pure=False)
        pure_c = RequestPhase(ParFor(stmts(), iterator="nodes"), ("c",), pure=True)
        out = coalesce_request_phases([pure_a, impure, pure_c])
        assert len(out) == 3

    def test_different_iterators_do_not_merge(self):
        masters = RequestPhase(ParFor(stmts(), iterator="masters"), ("a",), pure=True)
        nodes = RequestPhase(ParFor(stmts(), iterator="nodes"), ("b",), pure=True)
        assert len(coalesce_request_phases([masters, nodes])) == 2

    def test_same_map_requests_dedup_syncs(self):
        first = RequestPhase(ParFor(stmts(), iterator="nodes"), ("a",), pure=True)
        second = RequestPhase(ParFor(stmts(), iterator="nodes"), ("a",), pure=True)
        merged = coalesce_request_phases([first, second])
        assert len(merged) == 1
        assert merged[0].maps == ("a",)

    def test_map_property_rejects_multi(self):
        phase = RequestPhase(ParFor(stmts()), ("a", "b"), pure=True)
        with pytest.raises(ValueError):
            phase.map


class TestCoalescedExecution:
    def test_merged_loop_computes_correctly(self):
        from repro.compiler.ir import Const

        body = stmts(
            MapRead("a_value", "a", BinOp("+", ActiveNode(), Const(0))),
            MapRead("b_value", "b", BinOp("+", ActiveNode(), Const(0))),
            MapReduce(
                "out", ActiveNode(), BinOp("min", Var("a_value"), Var("b_value")), MIN
            ),
        )
        program = KimbapWhile(("out",), ParFor(body), name="dyn")
        loop = compile_program(program, optimize=True)
        assert len(loop.request_phases) == 1

        graph = generators.path(8)
        pgraph = partition(graph, 2, "oec")
        cluster = Cluster(2, threads_per_host=2)
        a = NodePropMap(cluster, pgraph, "a")
        b = NodePropMap(cluster, pgraph, "b")
        out = NodePropMap(cluster, pgraph, "out")
        a.set_initial(lambda node: node)
        b.set_initial(lambda node: 10 - node)
        out.set_initial(lambda node: 999)
        Executor(cluster).run(build_plan(loop, pgraph, {"a": a, "b": b, "out": out}))
        snapshot = out.snapshot()
        assert snapshot == {node: min(node, 10 - node) for node in range(8)}

    def test_coalescing_saves_a_sync_wave(self):
        from repro.compiler.ir import Const

        body = stmts(
            MapRead("a_value", "a", BinOp("+", ActiveNode(), Const(0))),
            MapRead("b_value", "b", BinOp("+", ActiveNode(), Const(0))),
            MapReduce(
                "out", ActiveNode(), BinOp("min", Var("a_value"), Var("b_value")), MIN
            ),
        )
        program = KimbapWhile(("out",), ParFor(body), name="dyn")

        def node_iters(optimize):
            loop = compile_program(program, optimize=optimize)
            graph = generators.path(16)
            pgraph = partition(graph, 2, "oec")
            cluster = Cluster(2, threads_per_host=2)
            maps = {
                name: NodePropMap(cluster, pgraph, name) for name in ("a", "b", "out")
            }
            for name, prop in maps.items():
                prop.set_initial(lambda node: node)
            Executor(cluster).run(build_plan(loop, pgraph, maps))
            return cluster.log.total_counters().node_iters

        # one merged request ParFor scans the nodes once instead of twice
        assert node_iters(True) < node_iters(False)
