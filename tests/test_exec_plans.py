"""The operator-plan execution layer: plan summaries, executor semantics,
compiled-program parity with hand-written plans, and the ``plan`` CLI."""

from __future__ import annotations

import json
import re

import pytest

from repro.algorithms import cc_lp, cc_sv, pagerank
from repro.algorithms.cc_lp import cc_lp_plan
from repro.baselines import gluon
from repro.cli import main
from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.compiler.apps import (
    COMPILED_APPS,
    compiled_cc_lp,
    compiled_cc_sv,
    compiled_pagerank,
)
from repro.core import BoolReducer
from repro.core.propmap import NodePropMap
from repro.core.reducers import MIN
from repro.eval.harness import APP_POLICY, APP_WEIGHTED, KIMBAP_APPS
from repro.exec import (
    PLAN_SCHEMA,
    CmpFilter,
    DstCmpFilter,
    EdgePush,
    Executor,
    HostStep,
    KeyRequest,
    NeighborReduceToKey,
    NodeGather,
    NonQuiescenceError,
    Operator,
    OperatorStep,
    Plan,
    ScalarKernel,
    Until,
    apply_value_filter,
    filter_summary,
    format_plan_summary,
    plan_summary,
    walk_plans,
)
from repro.graph import generators
from repro.partition import partition
from repro.trace import build_timeline


@pytest.fixture(scope="module")
def graph():
    return generators.powerlaw_like(scale=6, seed=3)


def operator_steps(summaries):
    """Every operator step of plan summaries, sub-plans included, in order."""
    for summary in summaries:
        for step in summary["steps"]:
            if step["step"] == "plan":
                yield from operator_steps([step])
            elif step["step"] == "operator":
                yield step


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

    def test_outer_plan_summary(self, graph):
        cluster = Cluster(1)
        pgraph = partition(graph, 1, "cvc")
        label = NodePropMap(cluster, pgraph, "cc_label")
        Executor(cluster).init_map(label, lambda nodes: nodes.copy())
        loop = cc_lp_plan(pgraph, label)
        plan = Plan(
            name="warmup",
            pgraph=pgraph,
            steps=[
                OperatorStep(
                    Operator("noop", "masters", ScalarKernel(lambda ctx: None))
                ),
                loop,
            ],
        )
        summary = plan_summary(plan)
        # An outer plan without an Until runs once: no loop metadata.
        assert "loop" not in summary
        assert "quiesce" not in summary and "max_rounds" not in summary
        assert [step["step"] for step in summary["steps"]] == ["operator", "plan"]
        nested = summary["steps"][1]
        assert nested == {"step": "plan", **plan_summary(loop)}
        assert nested["loop"] == "quiescence"
        assert nested["pins"] == {"cc_label": "push"}
        text = format_plan_summary(summary)
        assert text.splitlines()[:4] == [
            "plan warmup",
            "  operator noop (scalar, masters, reduce-compute) reads: - writes: -",
            "  plan cc_lp [quiescence]",
            "    quiesce: cc_label",
        ]
        assert "    pins: cc_label (push)" in text
        # Its rounds are the sub-plan's; its own steps run outside any.
        assert Executor(cluster).run(plan) == cluster.current_round > 0


def _counting_plan(pgraph, steps, **fields):
    """An outer loop around a one-round sub-plan, so iterations show up as
    rounds; ``steps`` follow the sub-plan in the loop body."""
    inner = Plan(
        name="inner",
        pgraph=pgraph,
        steps=[HostStep("tick", lambda: None)],
        max_rounds=1,
        raise_on_max_rounds=False,
    )
    return Plan(name="outer", pgraph=pgraph, steps=[inner, *steps], **fields)


class TestOuterLoops:
    """A plan with a sub-plan is an outer loop: its iterations are not
    rounds, an ``Until`` ends it, and ``max_rounds`` bounds it."""

    @pytest.fixture
    def setup(self, graph):
        cluster = Cluster(2, threads_per_host=2)
        return cluster, partition(graph, 2, "cvc")

    def test_until_that_never_fires_stops_at_max_rounds(self, setup):
        cluster, pgraph = setup
        plan = _counting_plan(
            pgraph, [Until(lambda: False)], max_rounds=4, loop_label="stuck"
        )
        with pytest.raises(NonQuiescenceError, match="stuck") as caught:
            Executor(cluster).run(plan)
        assert caught.value.loop == "stuck"
        assert caught.value.rounds == 4
        assert cluster.current_round == 4  # one sub-plan round per iteration

    def test_until_mid_body_skips_the_rest_of_the_iteration(self, setup):
        cluster, pgraph = setup
        trail = []
        plan = _counting_plan(
            pgraph,
            [
                HostStep("before", lambda: trail.append("before")),
                Until(lambda: trail.count("before") == 3),
                HostStep("after", lambda: trail.append("after")),
            ],
        )
        assert Executor(cluster).run(plan) == 3
        assert trail == ["before", "after", "before", "after", "before"]

    def test_outer_plan_without_until_runs_once(self, setup):
        cluster, pgraph = setup
        trail = []
        plan = _counting_plan(
            pgraph, [HostStep("once", lambda: trail.append(cluster.current_round))]
        )
        assert Executor(cluster).run(plan) == 1
        assert trail == [1]

    def test_until_needs_an_outer_loop(self, setup):
        _, pgraph = setup
        with pytest.raises(ValueError, match="Until ends an outer loop"):
            Plan(name="flat", pgraph=pgraph, steps=[Until(lambda: True)])


ONE_PLAN_APPS = [
    (kind, app)
    for kind, apps in (("kimbap", KIMBAP_APPS), ("compiled", COMPILED_APPS))
    for app in sorted(apps)
    if app not in ("LV", "LD")
]


@pytest.mark.parametrize(
    "kind,app", ONE_PLAN_APPS, ids=[f"{kind}-{app}" for kind, app in ONE_PLAN_APPS]
)
def test_every_app_hands_the_executor_one_plan(kind, app):
    """Build maps, one ``executor.run(plan)``, snapshot: the loops nest
    inside that plan. Only Louvain/Leiden's level loop stays host code."""
    graph = generators.powerlaw_like(scale=5, seed=3, weighted=APP_WEIGHTED.get(app, False))
    cluster = Cluster(2, threads_per_host=2)
    plans = []
    executor = Executor(cluster, observer=plans.append)
    pgraph = partition(graph, 2, APP_POLICY[app] if kind == "kimbap" else "cvc")
    apps = KIMBAP_APPS if kind == "kimbap" else COMPILED_APPS
    apps[app](cluster, pgraph, executor=executor)
    assert len(plans) == 1


def scalar_kernel_labels(plans):
    """The operator labels of ``plans`` (sub-plans included) that run a
    hand-written :class:`ScalarKernel`, level numbers folded to ``#``."""
    return sorted(
        {
            re.sub(r"\d+", "#", step.operator.label)
            for plan in plans
            for sub in walk_plans(plan)
            for step in sub.steps
            if isinstance(step, OperatorStep)
            and isinstance(step.operator.kernel, ScalarKernel)
        }
    )


# Per app: the operators still written as scalar bodies rather than a
# declarative form. Porting one (ROADMAP item 3) shrinks its line here;
# a regression to a hand-written body grows it.
SCALAR_KERNEL_CENSUS = {
    "BFS": [],
    "CC-LP": [],
    "CC-SCLP": [],
    "CC-SV": [],
    "K-CORE": ["core"],
    "LD": ["ld#m:move", "ld#m:req", "ld#r:move", "ld#r:req"],
    "LV": ["lv#:move", "lv#:req"],
    "MIS": ["mis:blocked", "mis:select"],
    "MSF": ["msf:hook", "msf:min"],
    "PR": [],
    "SSSP": [],
    "VERTEX-COVER": ["vc:match", "vc:propose"],
}


class TestFormCensus:
    def test_census_covers_every_app(self):
        assert sorted(SCALAR_KERNEL_CENSUS) == sorted(KIMBAP_APPS)

    @pytest.mark.parametrize("app", sorted(KIMBAP_APPS))
    def test_scalar_kernels_per_app(self, app):
        graph = generators.powerlaw_like(
            scale=5, seed=3, weighted=APP_WEIGHTED.get(app, False)
        )
        cluster = Cluster(2, threads_per_host=2)
        plans = []
        executor = Executor(cluster, observer=plans.append)
        KIMBAP_APPS[app](cluster, partition(graph, 2, APP_POLICY[app]), executor=executor)
        assert scalar_kernel_labels(plans) == SCALAR_KERNEL_CENSUS[app]

    def test_leiden_connected_split_is_declarative(self):
        graph = generators.powerlaw_like(scale=5, seed=3, weighted=True)
        cluster = Cluster(2, threads_per_host=2)
        plans = []
        executor = Executor(cluster, observer=plans.append)
        KIMBAP_APPS["LD"](cluster, partition(graph, 2, "oec"), executor=executor)
        splits = [plan for plan in plans if re.fullmatch(r"ld\d+s|ld_final", plan.name)]
        assert {plan.name for plan in splits} >= {"ld1s", "ld_final"}
        assert scalar_kernel_labels(splits) == []

    @pytest.mark.parametrize("app", ["SSSP", "BFS", "CC-LP"])
    def test_gluon_pushes_are_declarative(self, app, monkeypatch):
        """Gluon builds its own (scalar) executor; observe it there."""
        plans = []
        monkeypatch.setattr(
            gluon, "Executor", lambda cluster: Executor(cluster, observer=plans.append)
        )
        run = {"SSSP": gluon.gluon_sssp, "BFS": gluon.gluon_bfs, "CC-LP": gluon.gluon_cc_lp}
        graph = generators.powerlaw_like(scale=5, seed=3, weighted=app == "SSSP")
        cluster = Cluster(2, threads_per_host=2)
        run[app](cluster, partition(graph, 2, "cvc"))
        (plan,) = plans
        (operator,) = [step.operator for step in plan.steps if isinstance(step, OperatorStep)]
        assert isinstance(operator.kernel, EdgePush)
        assert scalar_kernel_labels(plans) == []


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

    def test_cc_sv_and_cc_sclp_plans_summarize_without_opaque_records(self, capsys):
        assert PLAN_SCHEMA == "repro-exec-plan/v1.3"
        forms = {}
        for app in ("CC-SV", "CC-SCLP"):
            assert main(["plan", app, "--json"]) == 0
            out = capsys.readouterr().out
            payload = json.loads(out)
            assert payload["schema"] == PLAN_SCHEMA
            assert "opaque" not in out and "scalar" not in out
            forms[app] = [
                (step["label"], step["form"], step["kind"], step["reads"], step["writes"])
                for step in operator_steps(payload["plans"])
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

    def test_plan_cc_sv_is_one_outer_loop(self, capsys):
        assert main(["plan", "CC-SV", "--json"]) == 0
        (plan,) = json.loads(capsys.readouterr().out)["plans"]
        assert plan["loop"] == "until"
        loops = [step["name"] for step in plan["steps"] if step["step"] == "plan"]
        assert loops == ["cc_sv:hook", "shortcut"]
        assert main(["plan", "CC-SV"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("plan CC-SV [until]\n")
        assert "\n  plan cc_sv:hook [quiescence]\n" in text
        assert "\n    operator hook (neighbor-reduce-to-key" in text
        assert text.rstrip().endswith("\n  until")

    def test_plan_json(self, capsys):
        assert main(["plan", "PR", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == PLAN_SCHEMA
        assert payload["app"] == "PR"
        # One plan: the degree warm-up's steps, then the round loop.
        (plan,) = payload["plans"]
        assert plan["name"] == "PR" and "loop" not in plan
        assert [step["step"] for step in plan["steps"]] == [
            "operator", "sync", "host", "plan",
        ]
        assert plan["steps"][-1]["name"] == "pagerank"
        assert plan["steps"][-1]["pins"] == {"pr_rank": "none"}
        operators = list(operator_steps(payload["plans"]))
        forms = [step["form"] for step in operators]
        assert "edge-push" in forms and "degree-reduce" in forms
        # The residual the async engine schedules PageRank by.
        residuals = [step["residual"] for step in operators if "residual" in step]
        assert [residual["mode"] for residual in residuals] == ["accumulate"]
