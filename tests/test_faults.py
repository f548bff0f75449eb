"""Fault injection, checkpoint/recovery, and graceful failure reporting.

Covers the determinism contract (same plan + seed => byte-identical
traces), checkpoint round-trips across every host-store layout,
crash-at-every-round recovery equivalence, per-fault cost effects, and
the harness's structured failed-run outcomes.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import Cluster
from repro.cluster.cluster import SimulatedOutOfMemory
from repro.cluster.metrics import PhaseKind
from repro.compiler.apps import COMPILED_APPS
from repro.core import MIN, SUM, NodePropMap, RuntimeVariant
from repro.eval.harness import APP_POLICY, KIMBAP_APPS, run_kimbap
from repro.exec import NodeUpdate, NonQuiescenceError, Operator, OperatorStep, Plan, SyncStep
from repro.faults import (
    FaultPlan,
    HostCrash,
    KvTimeouts,
    MessageFlake,
    Straggler,
    install_faults,
    named_plan,
)
from repro.faults.plan import NAMED_PLANS
from repro.faults.rng import stream_seed, stream_uniform
from repro.graph import generators
from repro.partition import partition
from repro.trace import to_chrome_trace
from repro.verify import VerificationError, check_equivalent_values


@pytest.fixture(scope="module")
def small_graph():
    return generators.road_like(4, 3, seed=1)


# ------------------------------------------------------------------ rng


class TestRng:
    def test_pure_function_of_seed_and_labels(self):
        assert stream_seed(7, "drop", 1, 2) == stream_seed(7, "drop", 1, 2)
        assert stream_uniform(7, "drop", 1, 2) == stream_uniform(7, "drop", 1, 2)

    def test_labels_and_seed_decorrelate(self):
        draws = {
            stream_uniform(0, "drop", 1),
            stream_uniform(0, "drop", 2),
            stream_uniform(0, "dup", 1),
            stream_uniform(1, "drop", 1),
        }
        assert len(draws) == 4

    def test_uniform_in_unit_interval(self):
        for i in range(100):
            assert 0.0 <= stream_uniform(3, "x", i) < 1.0


# ---------------------------------------------------------------- plans


class TestPlans:
    def test_crash_round_must_be_positive(self):
        with pytest.raises(ValueError):
            HostCrash(host=0, round=0)

    def test_one_crash_per_round(self):
        with pytest.raises(ValueError, match="one crash per round"):
            FaultPlan(crashes=(HostCrash(0, 2), HostCrash(1, 2)))

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            MessageFlake(drop_rate=1.0)
        with pytest.raises(ValueError):
            KvTimeouts(rate=-0.1)
        with pytest.raises(ValueError):
            Straggler(host=0, multiplier=0.0)

    def test_named_plans_construct_and_describe_as_json(self):
        for name in NAMED_PLANS:
            plan = named_plan(name, seed=5, hosts=2)
            assert plan.name == name
            json.dumps(plan.describe())

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            named_plan("nope")

    def test_window_cover(self):
        flake = MessageFlake(drop_rate=0.1, first_round=2, last_round=4)
        assert not flake.covers(1)
        assert flake.covers(2) and flake.covers(4)
        assert not flake.covers(5)


# ------------------------------------------------- checkpoint round-trip

LAYOUTS = [
    pytest.param(RuntimeVariant.KIMBAP, "sorted", id="gar-sorted"),
    pytest.param(RuntimeVariant.KIMBAP, "hash", id="gar-hash"),
    pytest.param(RuntimeVariant.SGR_CF, "sorted", id="hash-store"),
    pytest.param(RuntimeVariant.MC, "sorted", id="kvstore"),
]


@pytest.mark.parametrize("variant,layout", LAYOUTS)
class TestCheckpointRoundTrip:
    def _make(self, variant, layout, small_graph):
        pgraph = partition(small_graph, 3, "oec")
        cluster = Cluster(3, threads_per_host=4)
        prop = NodePropMap(
            cluster, pgraph, "ckpt", variant=variant, remote_layout=layout
        )
        prop.set_initial(lambda n: n * 10)
        return cluster, pgraph, prop

    def test_save_mutate_restore_parity(self, variant, layout, small_graph):
        cluster, _, prop = self._make(variant, layout, small_graph)
        before = prop.snapshot()
        saved = prop.checkpoint_state()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prop.reduce(0, 0, 2, -5, MIN)
            prop.reduce(1, 0, 5, -7, MIN)
        prop.reduce_sync()
        assert prop.snapshot() != before
        prop.restore_state(saved)
        assert prop.snapshot() == before

    def test_checkpoint_restorable_repeatedly(self, variant, layout, small_graph):
        cluster, _, prop = self._make(variant, layout, small_graph)
        before = prop.snapshot()
        saved = prop.checkpoint_state()
        for value in (-1, -2):
            with cluster.phase(PhaseKind.REDUCE_COMPUTE):
                prop.reduce(0, 0, 1, value, MIN)
            prop.reduce_sync()
            prop.restore_state(saved)
            assert prop.snapshot() == before

    def test_checkpoint_slots_counts_canonical_values(
        self, variant, layout, small_graph
    ):
        cluster, pgraph, prop = self._make(variant, layout, small_graph)
        total = sum(prop.checkpoint_slots(h) for h in range(cluster.num_hosts))
        assert total >= pgraph.num_nodes


# --------------------------------------------------- recovery equivalence


def _crash_plan(round_id: int, host: int = 1, interval: int = 2) -> FaultPlan:
    return FaultPlan(
        name=f"crash@{round_id}",
        checkpoint_interval=interval,
        crashes=(HostCrash(host=host, round=round_id),),
    )


class TestRecoveryEquivalence:
    def test_bfs_crash_at_every_round(self, small_graph):
        baseline = run_kimbap("BFS", "road", 3, threads=4, graph=small_graph)
        assert baseline.rounds >= 3
        for round_id in range(1, baseline.rounds + 1):
            faulted = run_kimbap(
                "BFS",
                "road",
                3,
                threads=4,
                graph=small_graph,
                fault_plan=_crash_plan(round_id),
            )
            assert faulted.outcome == "ok"
            assert faulted.faults["recoveries"] == 1
            check_equivalent_values(baseline.values, faulted.values)
            assert faulted.rounds == baseline.rounds

    def test_pagerank_crash_at_every_round(self, small_graph):
        kwargs = {"tolerance": 1e-4}
        baseline = run_kimbap(
            "PR", "road", 3, threads=4, graph=small_graph, **kwargs
        )
        assert baseline.rounds >= 3
        for round_id in range(1, baseline.rounds + 1):
            faulted = run_kimbap(
                "PR",
                "road",
                3,
                threads=4,
                graph=small_graph,
                fault_plan=_crash_plan(round_id),
                **kwargs,
            )
            assert faulted.outcome == "ok"
            check_equivalent_values(baseline.values, faulted.values)
            assert faulted.rounds == baseline.rounds

    @pytest.mark.parametrize("app", ["K-CORE", "CC-SV", "MSF", "MIS", "PR"])
    def test_newly_recoverable_crash_at_every_round(self, app, small_graph):
        """Plan-driven loops get checkpoint/recovery from the executor for
        free - including apps whose round loops nest in an outer loop
        (CC-SV's hook/shortcut, MSF's flatten inside the Boruvka loop) or
        follow a warm-up (MIS, PR), and scalar-kernel apps (K-CORE), which
        had no recovery path before the operator-plan layer."""
        baseline = run_kimbap(app, "road", 3, threads=4, graph=small_graph)
        # MSF's rounds also count its Boruvka iterations, which are not
        # BSP rounds: a crash can only land on the flatten loops' rounds.
        bsp_rounds = baseline.rounds - baseline.stats.get("boruvka_rounds", 0)
        assert bsp_rounds >= 3
        for round_id in range(1, bsp_rounds + 1):
            faulted = run_kimbap(
                app,
                "road",
                3,
                threads=4,
                graph=small_graph,
                fault_plan=_crash_plan(round_id),
            )
            assert faulted.outcome == "ok"
            assert faulted.faults["recoveries"] == 1
            check_equivalent_values(baseline.values, faulted.values)
            assert faulted.rounds == baseline.rounds

    @pytest.mark.parametrize("app", ["CC-SCLP", "MIS", "PR"])
    def test_compiled_multi_loop_programs_recover(self, app):
        """The compiled programs that compose several loops into one round
        are one plan each, so a crash fires at its round and the replay
        reaches the fault-free values."""
        graph = generators.road_like(16, 8, seed=0)

        def run(fault_plan=None):
            cluster = Cluster(3, threads_per_host=4)
            injector = install_faults(cluster, fault_plan) if fault_plan else None
            result = COMPILED_APPS[app](cluster, partition(graph, 3, "cvc"))
            return result, injector

        clean, _ = run()
        faulted, injector = run(_crash_plan(2))
        assert injector.report()["recoveries"] >= 1
        assert faulted.values == clean.values
        assert faulted.rounds == clean.rounds

    @pytest.mark.parametrize("app", ["SSSP", "PR"])
    def test_checkpoints_carry_their_round(self, app, small_graph):
        """Every plan loop advances the round counter - PageRank's
        tolerance loop too - so periodic checkpoints record the round
        they were taken after, not round 0."""
        faulted = run_kimbap(
            app, "road", 3, threads=4, graph=small_graph, fault_plan=_crash_plan(3)
        )
        events = faulted.faults["events"]
        rounds = [event["round"] for event in events if event["kind"] == "checkpoint"]
        assert rounds[:3] == [0, 2, 4]  # entry, then every second round
        assert faulted.faults["recoveries"] == 1

    def test_crash_past_last_round_stays_pending(self, small_graph):
        faulted = run_kimbap(
            "BFS",
            "road",
            3,
            threads=4,
            graph=small_graph,
            fault_plan=_crash_plan(10_000),
        )
        assert faulted.outcome == "ok"
        assert faulted.faults["recoveries"] == 0
        assert len(faulted.faults["crashes_pending"]) == 1
        assert faulted.faults["crashes_fired"] == []

    def test_recovery_phases_visible_in_trace(self, small_graph):
        faulted = run_kimbap(
            "CC-LP",
            "road",
            3,
            threads=4,
            graph=small_graph,
            fault_plan=_crash_plan(2),
        )
        assert faulted.outcome == "ok"
        timeline = faulted.timeline()
        kinds = {s.kind for s in timeline.slices}
        assert PhaseKind.CHECKPOINT in kinds
        assert PhaseKind.RECOVERY in kinds
        recovery = [s for s in timeline.slices if s.kind is PhaseKind.RECOVERY]
        assert any("recover:host1" in (s.label or "") for s in recovery)
        trace = to_chrome_trace(timeline)
        names = {e.get("name") for e in trace["traceEvents"] if e.get("ph") == "X"}
        assert any("checkpoint" in (n or "") for n in names)
        assert any("recover" in (n or "") for n in names)
        assert faulted.faults["checkpoint_time"] > 0
        assert faulted.faults["recovery_time"] > 0


# -------------------------------------------------------- fault pricing


class TestFaultCosts:
    def test_flake_charges_resends_preserves_values(self, small_graph):
        baseline = run_kimbap("CC-LP", "road", 3, threads=4, graph=small_graph)
        plan = FaultPlan(
            name="flaky",
            checkpoint_interval=0,
            flake=MessageFlake(drop_rate=0.2, duplicate_rate=0.1),
        )
        faulted = run_kimbap(
            "CC-LP", "road", 3, threads=4, graph=small_graph, fault_plan=plan
        )
        assert faulted.faults["messages_dropped"] > 0
        assert faulted.faults["messages_duplicated"] > 0
        assert faulted.messages > baseline.messages
        assert faulted.bytes > baseline.bytes
        assert faulted.total > baseline.total
        check_equivalent_values(baseline.values, faulted.values)

    def test_round_windowed_flake_reaches_pagerank(self, small_graph):
        """A flake that opens at round 2 drops PageRank messages: its
        phases carry their BSP round, so round windows apply to them."""
        plan = FaultPlan(
            name="late-flake",
            checkpoint_interval=0,
            flake=MessageFlake(drop_rate=0.3, first_round=2),
        )
        faulted = run_kimbap(
            "PR", "road", 3, threads=4, graph=small_graph, fault_plan=plan
        )
        assert faulted.faults["messages_dropped"] > 0
        baseline = run_kimbap("PR", "road", 3, threads=4, graph=small_graph)
        check_equivalent_values(baseline.values, faulted.values)

    def test_straggler_stretches_modeled_time_only(self, small_graph):
        baseline = run_kimbap("CC-LP", "road", 3, threads=4, graph=small_graph)
        plan = FaultPlan(
            name="slow",
            checkpoint_interval=0,
            stragglers=(Straggler(host=0, multiplier=4.0),),
        )
        faulted = run_kimbap(
            "CC-LP", "road", 3, threads=4, graph=small_graph, fault_plan=plan
        )
        assert faulted.total > baseline.total
        assert faulted.messages == baseline.messages
        assert faulted.bytes == baseline.bytes
        check_equivalent_values(baseline.values, faulted.values)

    def test_kv_timeouts_hit_the_mc_variant(self, small_graph):
        plan = FaultPlan(
            name="lag", checkpoint_interval=0, kv_timeouts=KvTimeouts(rate=0.2)
        )
        baseline = run_kimbap(
            "CC-LP",
            "road",
            3,
            threads=4,
            graph=small_graph,
            variant=RuntimeVariant.MC,
        )
        faulted = run_kimbap(
            "CC-LP",
            "road",
            3,
            threads=4,
            graph=small_graph,
            variant=RuntimeVariant.MC,
            fault_plan=plan,
        )
        assert faulted.faults["kv_timeouts"] > 0
        assert faulted.messages > baseline.messages
        check_equivalent_values(baseline.values, faulted.values)

    def test_install_faults_rejects_double_install(self, small_graph):
        cluster = Cluster(3, threads_per_host=4)
        install_faults(cluster, _crash_plan(1))
        with pytest.raises(RuntimeError):
            install_faults(cluster, _crash_plan(2))


# ----------------------------------------------------------- determinism


class TestDeterminism:
    def _chrome_bytes(self, small_graph) -> str:
        result = run_kimbap(
            "CC-LP",
            "road",
            3,
            threads=4,
            graph=small_graph,
            fault_plan=named_plan("chaos", seed=11, hosts=3, crash_round=2),
        )
        trace = json.dumps(to_chrome_trace(result.timeline()), sort_keys=True)
        return trace, result.faults

    def test_same_plan_same_seed_byte_identical(self, small_graph):
        first_trace, first_faults = self._chrome_bytes(small_graph)
        second_trace, second_faults = self._chrome_bytes(small_graph)
        assert first_trace == second_trace
        assert first_faults == second_faults

    def test_different_seed_differs(self, small_graph):
        def run(seed):
            plan = FaultPlan(
                name="flaky",
                seed=seed,
                checkpoint_interval=0,
                flake=MessageFlake(drop_rate=0.3, duplicate_rate=0.2),
            )
            result = run_kimbap(
                "CC-LP", "road", 3, threads=4, graph=small_graph, fault_plan=plan
            )
            return json.dumps(to_chrome_trace(result.timeline()), sort_keys=True)

        traces = {run(seed) for seed in range(4)}
        assert len(traces) > 1


# ------------------------------------------------- structured failures


class TestStructuredFailures:
    def test_non_quiescence_error_carries_context(self):
        error = NonQuiescenceError(42, ["rank", "contrib"])
        assert error.rounds == 42
        assert error.map_names == ["rank", "contrib"]
        assert error.loop == "KimbapWhile"
        assert "42 rounds" in str(error) and "rank" in str(error)
        assert isinstance(error, RuntimeError)  # backward compat

    def test_simulated_oom_carries_context(self):
        cluster = Cluster(2, threads_per_host=4, memory_limit_slots=10)
        cluster.track_memory(0, "a", 8)
        with pytest.raises(SimulatedOutOfMemory) as info:
            cluster.track_memory(0, "b", 5)
        oom = info.value
        assert (oom.host, oom.owner) == (0, "b")
        assert oom.total_slots == 13 and oom.limit == 10

    def test_track_memory_zero_drops_entry(self):
        cluster = Cluster(2, threads_per_host=4, memory_limit_slots=10)
        cluster.track_memory(0, "a", 8)
        cluster.track_memory(0, "a", 0)
        cluster.track_memory(0, "b", 9)  # fits only if "a" was dropped

    def test_harness_reports_oom_as_outcome(self, small_graph):
        result = run_kimbap(
            "CC-LP", "road", 3, threads=4, graph=small_graph, memory_limit_slots=3
        )
        assert result.outcome == "oom"
        assert result.failure["error"] == "SimulatedOutOfMemory"
        assert result.failure["limit"] == 3
        assert result.failure["total_slots"] > 3
        payload = result.to_dict()
        assert payload["outcome"] == "oom"
        assert payload["failure"]["host"] == result.failure["host"]

    def test_harness_reports_non_quiescence_as_outcome(
        self, small_graph, monkeypatch
    ):
        def stuck(cluster, pgraph, variant=RuntimeVariant.KIMBAP, executor=None):
            prop = NodePropMap(cluster, pgraph, "stuck", variant=variant)
            prop.set_initial(lambda n: 0)
            # Every round adds 1 to every node: the map never rests.
            executor.run(
                Plan(
                    name="stuck",
                    pgraph=pgraph,
                    steps=[
                        OperatorStep(
                            Operator(
                                "stuck",
                                "masters",
                                NodeUpdate(prop, SUM, lambda nodes: nodes * 0 + 1),
                            )
                        ),
                        SyncStep(prop, "reduce"),
                    ],
                    quiesce=(prop,),
                    max_rounds=3,
                )
            )

        monkeypatch.setitem(KIMBAP_APPS, "STUCK", stuck)
        monkeypatch.setitem(APP_POLICY, "STUCK", "oec")
        result = run_kimbap("STUCK", "road", 3, threads=4, graph=small_graph)
        assert result.outcome == "non-quiescent"
        assert result.failure == {
            "error": "NonQuiescenceError",
            "loop": "KimbapWhile",
            "rounds": 3,
            "maps": ["stuck"],
        }
        assert result.to_dict()["outcome"] == "non-quiescent"

    def test_ok_run_report_has_no_failure_keys(self, small_graph):
        result = run_kimbap("BFS", "road", 3, threads=4, graph=small_graph)
        payload = result.to_dict()
        assert "outcome" not in payload
        assert "failure" not in payload
        assert "faults" not in payload


# ------------------------------------------------------------ verifier


class TestEquivalenceChecker:
    def test_key_set_mismatch(self):
        with pytest.raises(VerificationError, match="key sets differ"):
            check_equivalent_values({0: 1}, {1: 1})

    def test_exact_mismatch(self):
        with pytest.raises(VerificationError, match="!= expected"):
            check_equivalent_values({0: 1}, {0: 2})

    def test_tolerance_admits_close_floats(self):
        check_equivalent_values({0: 1.0}, {0: 1.0 + 1e-12}, tolerance=1e-9)
        with pytest.raises(VerificationError):
            check_equivalent_values({0: 1.0}, {0: 1.1}, tolerance=1e-9)
