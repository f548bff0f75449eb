"""End-to-end compiled apps: agreement with hand-written kernels, OPT vs NO-OPT."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.algorithms import cc_lp, cc_sclp, cc_sv
from repro.cluster import Cluster
from repro.compiler.apps import (
    COMPILED_APPS,
    compiled_cc_lp,
    compiled_cc_sclp,
    compiled_cc_sv,
    compiled_mis,
)
from repro.core import RuntimeVariant
from repro.graph import generators
from repro.partition import partition

GRAPHS = {
    "road": generators.road_like(8, 4, seed=1),
    "powerlaw": generators.powerlaw_like(6, seed=3),
}


def components_truth(graph):
    expected = {}
    for component in nx.connected_components(graph.to_networkx().to_undirected()):
        smallest = min(component)
        for node in component:
            expected[node] = smallest
    return expected


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("optimize", [True, False])
class TestCompiledCorrectness:
    def test_cc_apps_match_truth(self, graph_name, optimize):
        graph = GRAPHS[graph_name]
        expected = components_truth(graph)
        for app in (compiled_cc_sv, compiled_cc_lp, compiled_cc_sclp):
            cluster = Cluster(3, threads_per_host=4)
            result = app(cluster, partition(graph, 3, "cvc"), optimize=optimize)
            assert {
                n: result.values[n] for n in range(graph.num_nodes)
            } == expected, app.__name__

    def test_mis_valid(self, graph_name, optimize):
        graph = GRAPHS[graph_name]
        cluster = Cluster(3, threads_per_host=4)
        result = compiled_mis(cluster, partition(graph, 3, "cvc"), optimize=optimize)
        values = result.values
        nx_graph = graph.to_networkx().to_undirected()
        for u, v in nx_graph.edges():
            assert not (values[u] == 1 and values[v] == 1)
        for node in nx_graph.nodes():
            assert values[node] == 1 or any(
                values[m] == 1 for m in nx_graph.neighbors(node)
            )


class TestCompiledVsHandWritten:
    """The compiled pipeline and the Figure 8-level kernels must agree."""

    @pytest.mark.parametrize(
        "compiled,manual",
        [(compiled_cc_sv, cc_sv), (compiled_cc_lp, cc_lp), (compiled_cc_sclp, cc_sclp)],
    )
    def test_same_results(self, compiled, manual):
        graph = GRAPHS["powerlaw"]
        compiled_result = compiled(
            Cluster(3, threads_per_host=4), partition(graph, 3, "cvc")
        )
        manual_result = manual(
            Cluster(3, threads_per_host=4), partition(graph, 3, "cvc")
        )
        assert compiled_result.values == manual_result.values

    def test_cc_lp_same_round_count(self):
        graph = GRAPHS["road"]
        compiled_result = compiled_cc_lp(
            Cluster(2, threads_per_host=4), partition(graph, 2, "oec")
        )
        manual_result = cc_lp(
            Cluster(2, threads_per_host=4), partition(graph, 2, "oec")
        )
        assert compiled_result.rounds == manual_result.rounds


class TestOptimizationImpact:
    """Figure 12's direction: OPT must beat NO-OPT, mostly in communication."""

    @pytest.mark.parametrize("app_name", ["CC-LP", "MIS"])
    def test_opt_faster_than_no_opt(self, app_name):
        graph = GRAPHS["powerlaw"]
        app = COMPILED_APPS[app_name]
        opt_cluster = Cluster(4, threads_per_host=4)
        app(opt_cluster, partition(graph, 4, "cvc"), optimize=True)
        no_opt_cluster = Cluster(4, threads_per_host=4)
        app(no_opt_cluster, partition(graph, 4, "cvc"), optimize=False)
        assert opt_cluster.elapsed().total < no_opt_cluster.elapsed().total

    def test_opt_sends_fewer_request_messages(self):
        from repro.cluster.metrics import PhaseKind

        graph = GRAPHS["powerlaw"]
        opt_cluster = Cluster(4, threads_per_host=4)
        compiled_cc_lp(opt_cluster, partition(graph, 4, "cvc"), optimize=True)
        no_opt_cluster = Cluster(4, threads_per_host=4)
        compiled_cc_lp(no_opt_cluster, partition(graph, 4, "cvc"), optimize=False)

        def request_msgs(cluster):
            return sum(
                sum(p.msgs_sent)
                for p in cluster.log.phases
                if p.kind is PhaseKind.REQUEST_SYNC
            )

        assert request_msgs(opt_cluster) == 0
        assert request_msgs(no_opt_cluster) > 0

    @pytest.mark.parametrize("variant", list(RuntimeVariant))
    def test_compiled_apps_run_on_all_variants(self, variant):
        """Section 6.4: all variants run the same compiler-generated code."""
        graph = GRAPHS["road"]
        expected = components_truth(graph)
        cluster = Cluster(3, threads_per_host=4)
        result = compiled_cc_sv(
            cluster, partition(graph, 3, "cvc"), variant=variant
        )
        assert {n: result.values[n] for n in range(graph.num_nodes)} == expected


class TestInterpreter:
    def test_extern_variables_bind(self):
        from repro.compiler.compile import compile_program
        from repro.compiler.interp import build_plan
        from repro.compiler.ir import (
            ActiveNode,
            KimbapWhile,
            MapRead,
            MapReduce,
            ParFor,
            Var,
            stmts,
        )
        from repro.core import MIN, NodePropMap
        from repro.exec import Executor

        program = KimbapWhile(
            ("values",),
            ParFor(
                stmts(
                    MapRead("current", "values", ActiveNode()),
                    MapReduce("values", ActiveNode(), Var("floor"), MIN),
                )
            ),
            name="clamp",
        )
        graph = generators.path(6)
        pgraph = partition(graph, 2, "oec")
        cluster = Cluster(2, threads_per_host=2)
        values = NodePropMap(cluster, pgraph, "values")
        values.set_initial(lambda node: 100)
        loop = compile_program(program)
        Executor(cluster).run(
            build_plan(loop, pgraph, {"values": values}, extern={"floor": 7})
        )
        assert all(v == 7 for v in values.snapshot().values())

    def test_unbound_variable_raises(self):
        from repro.compiler.interp import _Executor
        from repro.compiler.ir import Var

        graph = generators.path(4)
        pgraph = partition(graph, 1, "oec")
        cluster = Cluster(1)
        executor = _Executor(cluster, pgraph, {})
        with pytest.raises(NameError):
            executor.eval(Var("nope"), None, {})
