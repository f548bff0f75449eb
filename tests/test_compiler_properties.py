"""Property tests linking the structural transforms to the CFG dominators.

The split transform builds request ParFors from the *structural prefix* of
each read; Section 5.1 specifies them via dominance. These tests generate
random structured operators and verify the two formulations coincide, plus
interpreter expression semantics against plain Python.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.cfg import ENTRY, build_cfg
from repro.compiler.dominators import dominates, immediate_dominators
from repro.compiler.ir import (
    ActiveNode,
    Assign,
    BinOp,
    Const,
    ForEdges,
    If,
    MapRead,
    MapReduce,
    Var,
    walk,
)
from repro.compiler.transforms import request_slice
from repro.core.reducers import MIN


# -- random structured operator bodies --------------------------------------


def exprs():
    return st.one_of(
        st.builds(Const, st.integers(0, 5)),
        st.builds(Var, st.sampled_from(["a", "b", "c"])),
        st.just(ActiveNode()),
    )


def simple_stmts():
    return st.one_of(
        st.builds(Assign, st.sampled_from(["a", "b", "c"]), exprs()),
        st.builds(
            MapRead, st.sampled_from(["a", "b", "c"]), st.just("m"), exprs()
        ),
        st.builds(
            MapReduce, st.just("m"), exprs(), exprs(), st.just(MIN)
        ),
    )


def bodies(depth: int = 2):
    if depth == 0:
        return st.lists(simple_stmts(), min_size=1, max_size=4).map(tuple)
    sub = bodies(depth - 1)
    return st.lists(
        st.one_of(
            simple_stmts(),
            st.builds(If, exprs(), sub, sub),
            st.builds(ForEdges, st.just("e"), sub),
        ),
        min_size=1,
        max_size=4,
    ).map(tuple)


@given(bodies())
@settings(max_examples=60, deadline=None)
def test_slice_contains_only_dominators(body):
    """Every statement copied into a request ParFor dominates the read it
    serves (writes excluded by the cautious rule) - the paper's spec."""
    reads = [s for s in walk(body) if isinstance(s, MapRead)]
    if not reads:
        return
    cfg = build_cfg(body)
    idom = immediate_dominators(cfg)
    for target in reads:
        sliced, found = request_slice(body, target)
        assert found
        target_node = cfg.nodes_of(target)[0]
        for stmt in walk(sliced):
            if isinstance(stmt, (Assign, MapRead)):
                # the copy is by object identity, so the original occurrence
                # exists in the CFG and must dominate the target
                nodes = cfg.nodes_of(stmt)
                assert nodes, f"slice invented a statement: {stmt}"
                assert any(
                    dominates(idom, node, target_node) for node in nodes
                ), f"{stmt} does not dominate the target read"


@given(bodies())
@settings(max_examples=60, deadline=None)
def test_slice_never_contains_writes(body):
    reads = [s for s in walk(body) if isinstance(s, MapRead)]
    for target in reads:
        sliced, found = request_slice(body, target)
        assert found
        assert not any(isinstance(s, MapReduce) for s in walk(sliced))


@given(bodies())
@settings(max_examples=60, deadline=None)
def test_slice_ends_with_single_request(body):
    from repro.compiler.ir import MapRequest

    reads = [s for s in walk(body) if isinstance(s, MapRead)]
    for target in reads:
        sliced, found = request_slice(body, target)
        assert found
        requests = [s for s in walk(sliced) if isinstance(s, MapRequest)]
        assert len(requests) == 1
        assert requests[0].key == target.key


@given(bodies())
@settings(max_examples=40, deadline=None)
def test_cfg_entry_dominates_everything(body):
    cfg = build_cfg(body)
    idom = immediate_dominators(cfg)
    for node in idom:
        assert dominates(idom, ENTRY, node)


# -- interpreter expression semantics ----------------------------------------


class TestExpressionEval:
    def make_executor(self):
        from repro.cluster import Cluster
        from repro.compiler.interp import _Executor
        from repro.graph import generators
        from repro.partition import partition

        graph = generators.path(4)
        pgraph = partition(graph, 1, "oec")
        cluster = Cluster(1)
        return _Executor(cluster, pgraph, {}), cluster

    @given(
        st.sampled_from(["+", "-", "*", ">", "<", ">=", "<=", "==", "!=", "min", "max"]),
        st.integers(-100, 100),
        st.integers(-100, 100),
    )
    @settings(max_examples=80, deadline=None)
    def test_binops_match_python(self, op, left, right):
        import operator as py_op

        executor, cluster = self.make_executor()
        reference = {
            "+": py_op.add, "-": py_op.sub, "*": py_op.mul,
            ">": py_op.gt, "<": py_op.lt, ">=": py_op.ge, "<=": py_op.le,
            "==": py_op.eq, "!=": py_op.ne, "min": min, "max": max,
        }[op]
        from repro.cluster.metrics import PhaseKind
        from repro.runtime.engine import OperatorContext

        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            ctx = OperatorContext(
                cluster=cluster,
                part=executor.pgraph.parts[0],
                host=0,
                thread=0,
                local=0,
                node=0,
            )
            expr = BinOp(op, Const(left), Const(right))
            assert executor.eval(expr, ctx, {}) == reference(left, right)

    def test_boolean_ops_short_circuit_semantics(self):
        from repro.cluster.metrics import PhaseKind
        from repro.compiler.ir import Not
        from repro.runtime.engine import OperatorContext

        executor, cluster = self.make_executor()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            ctx = OperatorContext(
                cluster=cluster,
                part=executor.pgraph.parts[0],
                host=0,
                thread=0,
                local=0,
                node=0,
            )
            assert executor.eval(
                BinOp("and", Const(True), Const(False)), ctx, {}
            ) is False
            assert executor.eval(
                BinOp("or", Const(False), Const(True)), ctx, {}
            ) is True
            assert executor.eval(Not(Const(False)), ctx, {}) is True

    def test_division(self):
        from repro.cluster.metrics import PhaseKind
        from repro.runtime.engine import OperatorContext

        executor, cluster = self.make_executor()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            ctx = OperatorContext(
                cluster=cluster,
                part=executor.pgraph.parts[0],
                host=0,
                thread=0,
                local=0,
                node=0,
            )
            assert executor.eval(BinOp("/", Const(7), Const(2)), ctx, {}) == 3.5
