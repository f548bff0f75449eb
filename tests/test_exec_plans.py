"""The operator-plan execution layer: plan summaries, executor semantics,
compiled-program parity with hand-written plans, and the ``plan`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.algorithms import cc_lp, cc_sv, pagerank
from repro.algorithms.cc_lp import cc_lp_plan
from repro.cli import main
from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.compiler.apps import (
    compiled_cc_lp,
    compiled_cc_sv,
    compiled_pagerank,
)
from repro.core.propmap import NodePropMap
from repro.core.reducers import MIN
from repro.exec import (
    PLAN_SCHEMA,
    CmpFilter,
    DegreeReduce,
    DstCmpFilter,
    EdgePush,
    Executor,
    KeyRequest,
    NeighborReduceToKey,
    NodeGather,
    NodeUpdate,
    Operator,
    OperatorStep,
    Plan,
    ScalarKernel,
    apply_value_filter,
    filter_summary,
    format_plan_summary,
    plan_summary,
)
from repro.graph import generators
from repro.partition import partition
from repro.runtime.bool_reducer import BoolReducer
from repro.trace import build_timeline


@pytest.fixture(scope="module")
def graph():
    return generators.powerlaw_like(scale=6, seed=3)


def run_handwritten(app, graph, bulk):
    cluster = Cluster(3, threads_per_host=4)
    executor = Executor(cluster, bulk=bulk)
    return app(cluster, partition(graph, 3, "cvc"), executor=executor)


class TestPlanSummaries:
    def test_edge_push_summary(self, graph):
        cluster = Cluster(2, threads_per_host=2)
        pgraph = partition(graph, 2, "cvc")
        label = NodePropMap(cluster, pgraph, "cc_label")
        summary = plan_summary(cc_lp_plan(pgraph, label))
        assert summary["name"] == "cc_lp"
        assert summary["loop"] == "quiescence"
        assert summary["quiesce"] == ["cc_label"]
        operator = summary["steps"][0]
        assert operator["form"] == "edge-push"
        assert operator["space"] == "all"
        assert operator["writes"] == [{"map": "cc_label", "reducer": "min"}]
        text = format_plan_summary(summary)
        assert "operator cc_lp (edge-push, all, reduce-compute)" in text
        assert "sync reduce cc_label" in text

    def test_once_plan_reports_no_loop_metadata(self, graph):
        cluster = Cluster(1)
        pgraph = partition(graph, 1, "cvc")
        plan = Plan(
            name="warmup",
            pgraph=pgraph,
            steps=[
                OperatorStep(
                    Operator("noop", "masters", ScalarKernel(lambda ctx: None))
                )
            ],
            once=True,
        )
        summary = plan_summary(plan)
        assert summary["loop"] == "once"
        assert "quiesce" not in summary
        assert Executor(cluster).run(plan) == 0


class TestTransVertexForms:
    """The three trans-vertex forms are plain data under the existing
    schema string: a new ``form`` value each, reads/writes from the maps
    they name, no refusal record anywhere."""

    @pytest.fixture
    def maps(self, graph):
        cluster = Cluster(2, threads_per_host=2)
        pgraph = partition(graph, 2, "cvc")
        keys = NodePropMap(cluster, pgraph, "keys")
        of = NodePropMap(cluster, pgraph, "of")
        out = NodePropMap(cluster, pgraph, "out")
        return cluster, pgraph, keys, of, out

    def test_reads_and_writes(self, maps):
        cluster, _, keys, of, out = maps
        request = KeyRequest(keys=keys, of=of)
        assert (request.form, request.reads(), request.writes()) == (
            "key-request", ("keys",), ()
        )
        gather = NodeGather(keys=keys, of=of, target=out, op=MIN)
        assert (gather.form, gather.reads(), gather.writes()) == (
            "node-gather", ("keys", "of"), (("out", "min"),)
        )
        jump = NodeGather(keys=keys, of=keys, target=keys, op=MIN)
        assert jump.reads() == ("keys",)
        hook = NeighborReduceToKey(
            source=keys, target=out, op=MIN, cmp="gt", flag=BoolReducer(cluster, "f")
        )
        assert (hook.form, hook.reads(), hook.writes()) == (
            "neighbor-reduce-to-key", ("keys",), (("out", "min"),)
        )
        with pytest.raises(ValueError, match="unknown comparison"):
            NeighborReduceToKey(
                source=keys, target=out, op=MIN, cmp="spaceship",
                flag=BoolReducer(cluster, "f"),
            )

    def test_every_form_declares_the_carriers_it_mutates(self, maps):
        cluster, _, keys, of, out = maps
        flag = BoolReducer(cluster, "f")
        assert KeyRequest(keys=keys, of=of).effects() == [of]  # request bits
        assert NodeGather(keys=keys, of=of, target=out, op=MIN).effects() == [out]
        hook = NeighborReduceToKey(source=keys, target=out, op=MIN, cmp="gt", flag=flag)
        assert hook.effects() == [out, flag]
        assert EdgePush(target=out, op=MIN, source=keys).effects() == [out]
        assert NodeUpdate(out, MIN, value=lambda nodes: nodes).effects() == [out]
        assert DegreeReduce(out).effects() == [out]

    def test_cc_sv_and_cc_sclp_plans_summarize_without_opaque_records(self, capsys):
        assert PLAN_SCHEMA == "repro-exec-plan/v1.2"
        forms = {}
        for app in ("CC-SV", "CC-SCLP"):
            assert main(["plan", app, "--json"]) == 0
            out = capsys.readouterr().out
            payload = json.loads(out)
            assert payload["schema"] == PLAN_SCHEMA
            assert "opaque" not in out and "scalar" not in out
            forms[app] = [
                (step["label"], step["form"], step["kind"], step["reads"], step["writes"])
                for plan in payload["plans"]
                for step in plan["steps"]
                if step["step"] == "operator"
            ]
        parent = [{"map": "sv_parent", "reducer": "min"}]
        assert forms["CC-SV"] == [
            ("hook", "neighbor-reduce-to-key", "reduce-compute", ["sv_parent"], parent),
            ("shortcut:req", "key-request", "request-compute", ["sv_parent"], []),
            ("shortcut", "node-gather", "reduce-compute", ["sv_parent"], parent),
        ]
        assert [form for _, form, *_ in forms["CC-SCLP"]] == [
            "edge-push", "key-request", "node-gather",
        ]
        assert main(["plan", "CC-SV"]) == 0
        text = capsys.readouterr().out
        assert "operator hook (neighbor-reduce-to-key, all, reduce-compute)" in text
        assert "operator shortcut:req (key-request, masters, request-compute)" in text


class TestFilterSpecs:
    """Schema v1.2: declarative filter predicates serialize in full,
    opaque callables get a refusal record."""

    def test_sssp_plan_serializes_filters(self, graph):
        from repro.algorithms.sssp import sssp_plan

        cluster = Cluster(2, threads_per_host=2)
        pgraph = partition(graph, 2, "cvc")
        dist = NodePropMap(cluster, pgraph, "sssp_dist")
        summary = plan_summary(sssp_plan(pgraph, dist))
        operator = next(
            step for step in summary["steps"] if step["step"] == "operator"
        )
        filters = operator["filters"]
        assert filters["active"] == {"kind": "active", "map": "sssp_dist"}
        assert filters["value"]["kind"] == "cmp"
        assert filters["value"]["op"] == "ne"
        assert json.dumps(filters)  # JSON-serializable all the way down

    def test_cmp_filter_summary_forms(self):
        import numpy as np

        assert CmpFilter("lt", 3.0).summary() == {
            "kind": "cmp",
            "op": "lt",
            "const": 3.0,
        }
        other = np.arange(5, dtype=np.float64)
        summary = CmpFilter("le", other=other).summary()
        assert summary["kind"] == "cmp"
        assert summary["other"] == {"len": 5, "dtype": "float64"}

    def test_dst_cmp_filter_summary(self):
        import numpy as np

        array = np.arange(4, dtype=np.int64)
        summary = DstCmpFilter("gt", array).summary()
        assert summary == {
            "kind": "dst-cmp",
            "op": "gt",
            "array": {"len": 4, "dtype": "int64"},
        }

    def test_cmp_filter_validation(self):
        with pytest.raises(ValueError, match="unknown comparison"):
            CmpFilter("spaceship", 1)
        with pytest.raises(ValueError, match="exactly one"):
            CmpFilter("lt")
        with pytest.raises(ValueError, match="exactly one"):
            CmpFilter("lt", const=1, other=[1])

    def test_opaque_callable_gets_refusal_record(self):
        def my_filter(values):
            return values > 0

        summary = filter_summary(my_filter)
        assert summary["kind"] == "opaque"
        assert "my_filter" in summary["callable"]
        assert "not serializable" in summary["message"]
        assert "interpreted" not in summary["message"]
        assert json.dumps(summary)

    def test_apply_value_filter_routes_node_ids(self):
        import numpy as np

        values = np.array([1.0, 5.0, 2.0])
        nodes = np.array([2, 0, 1])
        # Plain callables keep their one-argument contract.
        plain = apply_value_filter(lambda v: v > 1.5, values, nodes)
        assert plain.tolist() == [False, True, True]
        # other= specs compare against the per-node operand array.
        other = np.array([10.0, 1.0, 0.5])
        spec = CmpFilter("lt", other=other)
        routed = apply_value_filter(spec, values, nodes)
        assert routed.tolist() == [
            bool(values[i] < other[nodes[i]]) for i in range(3)
        ]


class TestExecutorSemantics:
    def test_executor_backend_overrides_nothing_per_algorithm(self, graph):
        # One executor drives different algorithms with one backend choice.
        cluster = Cluster(2, threads_per_host=2)
        executor = Executor(cluster, bulk=True)
        pgraph = partition(graph, 2, "cvc")
        first = cc_lp(cluster, pgraph, executor=executor)
        second = cc_sv(cluster, pgraph, executor=executor)
        assert set(first.values) == set(second.values)
        assert first.values == second.values


class TestCompiledParity:
    """Compiled programs ride the same executor as hand-written plans."""

    @pytest.mark.parametrize("bulk", [False, True], ids=["scalar", "bulk"])
    def test_compiled_pagerank_matches_handwritten(self, graph, bulk):
        compiled = compiled_pagerank(
            Cluster(3, threads_per_host=4), partition(graph, 3, "cvc")
        )
        manual = run_handwritten(pagerank, graph, bulk)
        assert compiled.values == manual.values
        assert compiled.rounds == manual.rounds

    @pytest.mark.parametrize("bulk", [False, True], ids=["scalar", "bulk"])
    @pytest.mark.parametrize(
        "compiled,manual",
        [(compiled_cc_lp, cc_lp), (compiled_cc_sv, cc_sv)],
        ids=["cc_lp", "cc_sv"],
    )
    def test_compiled_cc_matches_handwritten(self, graph, bulk, compiled, manual):
        compiled_result = compiled(
            Cluster(3, threads_per_host=4), partition(graph, 3, "cvc")
        )
        manual_result = run_handwritten(manual, graph, bulk)
        assert compiled_result.values == manual_result.values

    def test_compiled_trace_round_and_operator_attribution(self, graph):
        cluster = Cluster(2, threads_per_host=4)
        result = compiled_cc_lp(cluster, partition(graph, 2, "cvc"))
        timeline = build_timeline(cluster.log, cluster.cost_model, 4)
        computes = [
            s for s in timeline.slices if s.kind is PhaseKind.REDUCE_COMPUTE
        ]
        assert computes and any(s.operator == "cc_lp" for s in computes)
        assert max(s.round for s in timeline.slices) == result.rounds


class TestPlanCli:
    def test_plan_text(self, capsys):
        assert main(["plan", "CC-LP"]) == 0
        out = capsys.readouterr().out
        assert "plan cc_lp [quiescence]" in out
        assert "operator cc_lp (edge-push, all, reduce-compute)" in out

    def test_plan_json(self, capsys):
        assert main(["plan", "PR", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == PLAN_SCHEMA
        assert payload["app"] == "PR"
        names = [plan["name"] for plan in payload["plans"]]
        assert names == ["pr:warmup", "pagerank"]
        operators = [
            step
            for plan in payload["plans"]
            for step in plan["steps"]
            if step["step"] == "operator"
        ]
        forms = [step["form"] for step in operators]
        assert "edge-push" in forms and "degree-reduce" in forms
        # The residual the async engine schedules PageRank by.
        residuals = [step["residual"] for step in operators if "residual" in step]
        assert [residual["mode"] for residual in residuals] == ["accumulate"]
