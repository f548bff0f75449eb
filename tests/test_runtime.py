"""Tests for the BSP runtime: par_for, the KimbapWhile plan loop, BoolReducer."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core import MIN, BoolReducer, NodePropMap
from repro.exec import (
    Executor,
    HostStep,
    NonQuiescenceError,
    Operator,
    OperatorStep,
    Plan,
    ScalarKernel,
    SyncStep,
    par_for,
)
from repro.graph import generators
from repro.partition import partition


@pytest.fixture
def setting():
    graph = generators.road_like(6, 4, seed=0)
    pgraph = partition(graph, 3, "oec")
    cluster = Cluster(3, threads_per_host=4)
    return graph, pgraph, cluster


class TestParFor:
    def test_masters_mode_visits_every_node_once(self, setting):
        graph, pgraph, cluster = setting
        visited = []
        par_for(cluster, pgraph, "masters", lambda ctx: visited.append(ctx.node))
        assert sorted(visited) == list(range(graph.num_nodes))

    def test_all_mode_visits_every_proxy(self, setting):
        graph, pgraph, cluster = setting
        count = 0

        def body(ctx):
            nonlocal count
            count += 1

        par_for(cluster, pgraph, "all", body)
        assert count == sum(part.num_local for part in pgraph.parts)

    def test_node_iters_charged(self, setting):
        graph, pgraph, cluster = setting
        par_for(cluster, pgraph, "masters", lambda ctx: None)
        assert cluster.log.total_counters().node_iters == graph.num_nodes

    def test_edge_iteration_charges_and_matches(self, setting):
        graph, pgraph, cluster = setting
        edges = []

        def body(ctx):
            for edge in ctx.edges():
                edges.append((ctx.node, ctx.edge_dst(edge)))

        par_for(cluster, pgraph, "all", body)
        assert sorted(edges) == sorted(graph.iter_edges())
        assert cluster.log.total_counters().edge_iters == graph.num_edges

    def test_threads_cover_range(self, setting):
        graph, pgraph, cluster = setting
        threads = set()
        par_for(cluster, pgraph, "masters", lambda ctx: threads.add(ctx.thread))
        assert max(threads) < cluster.threads_per_host
        assert min(threads) == 0

    def test_phase_kind_recorded(self, setting):
        _, pgraph, cluster = setting
        par_for(
            cluster,
            pgraph,
            "masters",
            lambda ctx: None,
            kind=PhaseKind.REQUEST_COMPUTE,
            label="x",
        )
        assert cluster.log.phases[-1].kind is PhaseKind.REQUEST_COMPUTE
        assert cluster.log.phases[-1].label == "x"

    def test_unknown_mode_rejected(self, setting):
        _, pgraph, cluster = setting
        with pytest.raises(ValueError):
            par_for(cluster, pgraph, "everything", lambda ctx: None)

    def test_charge_helper(self, setting):
        _, pgraph, cluster = setting
        par_for(cluster, pgraph, "masters", lambda ctx: ctx.charge(3))
        counters = cluster.log.total_counters()
        assert counters.local_ops == 3 * counters.node_iters


def _loop(pgraph, body, syncs, quiesce, **fields) -> Plan:
    """A KimbapWhile loop as a plan: one masters operator running ``body``,
    then a reduce-sync of every map in ``syncs``, until ``quiesce`` rests."""
    return Plan(
        name="loop",
        pgraph=pgraph,
        steps=[
            OperatorStep(Operator("body", "masters", ScalarKernel(body))),
            *(SyncStep(prop, "reduce") for prop in syncs),
        ],
        quiesce=quiesce,
        **fields,
    )


class TestKimbapWhile:
    def test_runs_until_quiescent(self, setting):
        graph, pgraph, cluster = setting
        prop = NodePropMap(cluster, pgraph, "p")
        prop.set_initial(lambda n: n)

        def body(ctx):
            value = prop.read_local(ctx.host, ctx.local)
            if value > 0:
                prop.reduce(ctx.host, ctx.thread, ctx.node, value - 1, MIN)

        rounds = Executor(cluster).run(_loop(pgraph, body, [prop], [prop]))
        # the largest initial value needs num_nodes - 1 decrements, plus the
        # final all-quiet round
        assert rounds == graph.num_nodes
        assert all(v == 0 for v in prop.snapshot().values())
        # every round stamps its phases with its BSP round id
        assert max(record.round for record in cluster.log.phases) == rounds

    def test_single_quiet_round(self, setting):
        _, pgraph, cluster = setting
        prop = NodePropMap(cluster, pgraph, "p")
        prop.set_initial(lambda n: 0)

        plan = _loop(pgraph, lambda ctx: None, [prop], [prop])
        assert Executor(cluster).run(plan) == 1

    def test_max_rounds_guard(self, setting):
        _, pgraph, cluster = setting
        prop = NodePropMap(cluster, pgraph, "p")
        prop.set_initial(lambda n: 0)
        counter = [0]

        def count() -> None:
            counter[0] += 1

        def body(ctx):
            prop.reduce(ctx.host, ctx.thread, ctx.node, -counter[0], MIN)

        plan = _loop(pgraph, body, [prop], [prop], max_rounds=5)
        plan.steps.insert(0, HostStep("count", count))
        with pytest.raises(NonQuiescenceError) as stuck:
            Executor(cluster).run(plan)
        assert stuck.value.rounds == 5 and stuck.value.map_names == ["p"]

    def test_multiple_maps_any_update_continues(self, setting):
        _, pgraph, cluster = setting
        first = NodePropMap(cluster, pgraph, "a")
        second = NodePropMap(cluster, pgraph, "b")
        first.set_initial(lambda n: 0)
        second.set_initial(lambda n: 2)

        def body(ctx):
            value = second.read_local(ctx.host, ctx.local)
            if value > 0:
                second.reduce(ctx.host, ctx.thread, ctx.node, value - 1, MIN)

        plan = _loop(pgraph, body, [first, second], [first, second])
        assert Executor(cluster).run(plan) == 3


class TestBoolReducer:
    def test_starts_false_after_reset(self, setting):
        _, _, cluster = setting
        reducer = BoolReducer(cluster)
        reducer.set_all(False)
        reducer.sync()
        assert not reducer.read()

    def test_any_host_flag_wins(self, setting):
        _, _, cluster = setting
        reducer = BoolReducer(cluster)
        reducer.set_all(False)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            reducer.reduce(2, True)
        reducer.sync()
        assert reducer.read()

    def test_false_reduce_does_not_clear(self, setting):
        _, _, cluster = setting
        reducer = BoolReducer(cluster)
        reducer.set_all(False)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            reducer.reduce(0, True)
            reducer.reduce(0, False)
        reducer.sync()
        assert reducer.read()

    def test_sync_costs_an_allreduce(self, setting):
        _, _, cluster = setting
        reducer = BoolReducer(cluster)
        reducer.set_all(False)
        cluster.reset()
        reducer.sync()
        assert cluster.log.total_messages() == cluster.num_hosts

    def test_set_all_true(self, setting):
        _, _, cluster = setting
        reducer = BoolReducer(cluster)
        reducer.set_all(True)
        reducer.sync()
        assert reducer.read()

    @pytest.mark.parametrize("hits", [0, 1, 5])
    def test_reduce_count_is_that_many_true_reduces(self, setting, hits):
        _, _, cluster = setting
        outcomes = []
        for counted in (False, True):
            cluster.reset()
            reducer = BoolReducer(cluster)
            reducer.set_all(False)
            with cluster.phase(PhaseKind.REDUCE_COMPUTE):
                compute = cluster.log.num_phases - 1
                if counted:
                    reducer.reduce_count(1, hits)
                else:
                    for _ in range(hits):
                        reducer.reduce(1, True)
            reducer.sync()
            outcomes.append(
                (
                    reducer.read(),
                    reducer.export_compute_effects(1),
                    [counters.as_dict() for counters in cluster.log.phases[compute].counters],
                )
            )
        assert outcomes[0] == outcomes[1]
        # Zero hits charge nothing and leave the flag; any hit sets it.
        assert outcomes[0][0] == bool(hits)
        assert outcomes[0][2][1]["local_ops"] == hits
