"""The self-healing pool's contract: real worker kills recover byte-identically.

``tests/test_parallel_equivalence.py`` pins the fault-free ``jobs=N``
byte-identity contract; this module pins the *recovery* contract from
ISSUE 7: a ``jobs=N`` run that loses a worker to a real ``SIGKILL``
(or ``SIGTERM``, or a simulated OOM kill) at **any** effect exchange
completes with ``RunResult.to_dict()`` byte-identical to an undisturbed
``jobs=1`` run under ``recovery="refork"``: the coordinator rolls back
to the round start and forks the whole group again.

The kill-sweep drives a seeded :class:`~repro.faults.chaos.ChaosPlan`
through every exchange (sampled with a spread when an app has many)
for two applications on both kernel backends. The rest covers the
supervisor's failure taxonomy (typed, picklable, context-carrying
errors), the silent-worker timeout, chaos composed with the *modeled*
fault layer, and the fail-fast default (nothing to heal, nothing
changed).
"""

from __future__ import annotations

import json
import multiprocessing
import pickle

import pytest

from repro.cluster import Cluster
from repro.core.propmap import NodePropMap
from repro.core.reducers import MIN
from repro.eval.harness import run_kimbap
from repro.exec import EdgePush, Executor, Operator, OperatorStep, Plan
from repro.exec.pool import (
    HEALABLE_ERRORS,
    ExchangeTimeout,
    HostShardPool,
    PoolError,
    ProtocolDivergence,
    WorkerDied,
    fork_available,
)
from repro.faults import (
    CHAOS_SCHEMA,
    ChaosEvent,
    ChaosPlan,
    FaultPlan,
    HostCrash,
    random_chaos,
)
from repro.graph import generators
from repro.partition.policies import partition

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="host-parallel execution needs POSIX fork"
)

GRAPH = generators.erdos_renyi(24, 2.0, seed=5)
HOSTS = 4
POLICIES = ("refork",)


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def run(app, *, jobs=1, bulk=False, recovery="fail-fast", chaos=None, faults=None):
    return run_kimbap(
        app,
        "chaos",
        HOSTS,
        graph=GRAPH,
        threads=2,
        jobs=jobs,
        bulk=bulk,
        recovery=recovery,
        chaos_plan=chaos,
        fault_plan=faults,
    )


# Shared across the sweep: the jobs=1 oracle and the boundary count of a
# fault-free healing-armed run, computed once per (app, backend).
_BASELINES: dict[tuple[str, bool], str] = {}
_BOUNDARIES: dict[tuple[str, bool], int] = {}


def baseline(app, bulk=False) -> str:
    key = (app, bulk)
    if key not in _BASELINES:
        _BASELINES[key] = canonical(run(app, bulk=bulk))
    return _BASELINES[key]


def probe_boundaries(app, bulk=False) -> int:
    """Effect-exchange count of a fault-free ``jobs=2`` run with the
    supervisor armed - which doubles as the heals-nothing zero-diff check."""
    key = (app, bulk)
    if key not in _BOUNDARIES:
        result = run(app, jobs=2, bulk=bulk, recovery="refork")
        assert canonical(result) == baseline(app, bulk)
        stats = result.parallel
        assert stats["deaths_detected"] == 0
        assert stats["heals"] == 0
        assert stats["boundaries"] > 0
        _BOUNDARIES[key] = stats["boundaries"]
    return _BOUNDARIES[key]


def spread(count: int, cap: int = 8) -> list[int]:
    """Every boundary when there are few; an even spread (always
    including the first, second, and last) when there are many."""
    if count <= cap:
        return list(range(1, count + 1))
    step = (count - 1) / (cap - 1)
    picked = {1, 2, count} | {1 + round(i * step) for i in range(cap)}
    return sorted(min(max(b, 1), count) for b in picked)


# ------------------------------------------------ the kill-at-boundary sweep


@needs_fork
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("bulk", (False, True), ids=("scalar", "bulk"))
@pytest.mark.parametrize("app", ("K-CORE", "CC-SV"))
class TestKillSweep:
    def test_kill_at_each_boundary_recovers_identically(self, app, bulk, policy):
        expect = baseline(app, bulk)
        for boundary in spread(probe_boundaries(app, bulk)):
            chaos = ChaosPlan(
                name=f"kill@{boundary}",
                events=(ChaosEvent(boundary=boundary, worker=1),),
            )
            result = run(app, jobs=2, bulk=bulk, recovery=policy, chaos=chaos)
            assert canonical(result) == expect, (
                f"{app} bulk={bulk} {policy}: SIGKILL at boundary {boundary} "
                "diverged from the jobs=1 oracle"
            )
            stats = result.parallel
            assert stats["deaths_detected"] == 1, (app, bulk, policy, boundary)
            assert stats["heals"] == 1
            assert stats["reforks"] == 1


# --------------------------------------------- acceptance + kill-kind matrix


@needs_fork
class TestChaosRecovery:
    @pytest.mark.parametrize("policy,worker", (("refork", 2), ("refork", 3)))
    def test_pagerank_jobs4_loses_a_worker(self, policy, worker):
        """The ISSUE acceptance case: PageRank at jobs=4, one worker
        SIGKILLed mid-run, byte-identical whichever worker it is."""
        chaos = ChaosPlan(events=(ChaosEvent(boundary=3, worker=worker),))
        result = run("PR", jobs=4, recovery=policy, chaos=chaos)
        assert canonical(result) == baseline("PR")
        stats = result.parallel
        assert stats["deaths_detected"] == 1
        assert stats["heals"] == 1

    @pytest.mark.parametrize("kind", ("sigterm", "oom"))
    def test_other_kill_kinds(self, kind):
        chaos = ChaosPlan(events=(ChaosEvent(boundary=3, worker=1, kind=kind),))
        result = run("CC-SV", jobs=2, recovery="refork", chaos=chaos)
        assert canonical(result) == baseline("CC-SV")
        assert result.parallel["deaths_detected"] == 1

    def test_two_kills_refork(self):
        chaos = ChaosPlan(
            events=(
                ChaosEvent(boundary=2, worker=1),
                ChaosEvent(boundary=9, worker=3),
            )
        )
        result = run("CC-SV", jobs=4, recovery="refork", chaos=chaos)
        assert canonical(result) == baseline("CC-SV")
        stats = result.parallel
        assert stats["deaths_detected"] == 2
        assert stats["reforks"] == 2

    def test_kill_at_the_first_boundary_of_a_second_run_of_a_plan(self, monkeypatch):
        """The worker a second run of the same plan loses is one that run
        forked: nothing outlives a run to be found dead at the next."""
        first_boundaries: dict[int, list[int]] = {}  # by plan, per sharded run
        begin_run = HostShardPool.begin_run

        def noting_begin_run(pool, plan):
            sharded = begin_run(pool, plan)
            if sharded:
                first = pool.boundaries_seen + 1
                first_boundaries.setdefault(id(plan), []).append(first)
            return sharded

        monkeypatch.setattr(HostShardPool, "begin_run", noting_begin_run)
        run("CC-SV", jobs=2, recovery="refork")
        second = min(runs[1] for runs in first_boundaries.values() if len(runs) > 1)
        chaos = ChaosPlan(events=(ChaosEvent(boundary=second, worker=1),))
        result = run("CC-SV", jobs=2, recovery="refork", chaos=chaos)
        assert canonical(result) == baseline("CC-SV")
        stats = result.parallel
        assert stats["deaths_detected"] == stats["heals"] == stats["reforks"] == 1

    def test_chaos_composes_with_modeled_faults(self):
        """A modeled HostCrash (restore-and-replay, priced in the faults
        report) plus a real SIGKILL in the same run: results and faults
        report both match the chaos-free serial run."""
        faults = FaultPlan(
            name="crash@2",
            checkpoint_interval=2,
            crashes=(HostCrash(host=1, round=2),),
        )
        serial = run("CC-LP", faults=faults)
        chaos = ChaosPlan(events=(ChaosEvent(boundary=4, worker=1),))
        chaotic = run("CC-LP", jobs=2, recovery="refork", chaos=chaos, faults=faults)
        assert canonical(serial) == canonical(chaotic)
        assert serial.faults == chaotic.faults
        assert serial.faults["recoveries"] >= 1
        assert chaotic.parallel["deaths_detected"] == 1

    def test_fail_fast_counts_nothing(self):
        """Fail-fast on a clean run counts no death, heal or diagnostic;
        the exchange counter is ungated and reads what the refork run
        reads."""
        result = run("K-CORE", jobs=2)
        assert canonical(result) == baseline("K-CORE")
        stats = result.parallel
        assert stats["boundaries"] == probe_boundaries("K-CORE")
        assert stats["deaths_detected"] == stats["heals"] == 0
        assert stats["diagnostics"] == 0


# ----------------------------------------------------- supervisor unit tests


class _AliveProcess:
    pid = 4242

    @staticmethod
    def is_alive() -> bool:
        return True


def _shardable_pool() -> HostShardPool:
    cluster = Cluster(HOSTS, threads_per_host=2)
    pgraph = partition(GRAPH, HOSTS, "cvc")
    target = NodePropMap(cluster, pgraph, "dist")
    plan = Plan(
        name="p",
        pgraph=pgraph,
        steps=[OperatorStep(Operator("push", "all", EdgePush(target=target, op=MIN)))],
        once=True,
    )
    return HostShardPool(Executor(cluster, jobs=2, recovery="refork"), plan, jobs=2)


class TestSupervisorUnits:
    def test_silent_worker_times_out(self):
        pool = _shardable_pool()
        pool.exchange_timeout = 0.2
        parent, child = multiprocessing.get_context("fork").Pipe()
        try:
            with pytest.raises(ExchangeTimeout) as exc:
                pool._await_peer(parent, 1, _AliveProcess())
        finally:
            parent.close()
            child.close()
        assert exc.value.worker == 1
        assert "sent nothing" in str(exc.value)
        assert pool.dead

    def test_executor_rejects_unknown_recovery(self):
        with pytest.raises(ValueError, match="recovery"):
            Executor(Cluster(2), recovery="bogus")


# -------------------------------------------------------- the error taxonomy


class TestPoolErrorTaxonomy:
    def test_context_in_message_and_attributes(self):
        err = WorkerDied("worker gone", worker=2, shard=(3, 4, 5), phase="exchange")
        assert (err.worker, err.shard, err.phase) == (2, (3, 4, 5), "exchange")
        text = str(err)
        assert "worker 2" in text
        assert "hosts 3..5" in text
        assert "phase 'exchange'" in text

    def test_pickles_with_context(self):
        err = ExchangeTimeout("slow", worker=1, shard=(0, 1), phase="flush")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, ExchangeTimeout)
        assert (clone.worker, clone.shard, clone.phase) == (1, (0, 1), "flush")
        assert str(clone) == str(err)

    def test_healable_set(self):
        assert set(HEALABLE_ERRORS) == {WorkerDied, ExchangeTimeout}
        for cls in HEALABLE_ERRORS:
            assert issubclass(cls, PoolError)
            assert issubclass(cls, RuntimeError)
        # A protocol divergence means the replicas disagree - replaying
        # the same divergent state cannot help, so it is never healed.
        assert issubclass(ProtocolDivergence, PoolError)
        assert ProtocolDivergence not in HEALABLE_ERRORS


# ------------------------------------------------------------ the chaos plan


class TestChaosPlan:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="boundary"):
            ChaosEvent(boundary=0, worker=1)
        with pytest.raises(ValueError, match="coordinator"):
            ChaosEvent(boundary=1, worker=0)
        with pytest.raises(ValueError, match="kind"):
            ChaosEvent(boundary=1, worker=1, kind="nuke")

    def test_describe_is_json_ready(self):
        plan = ChaosPlan(
            name="demo", seed=7, events=(ChaosEvent(boundary=2, worker=1),)
        )
        described = plan.describe()
        assert described["schema"] == CHAOS_SCHEMA
        assert described["events"] == [
            {"boundary": 2, "worker": 1, "kind": "sigkill"}
        ]
        json.dumps(described)  # must serialize

    def test_random_chaos_is_seed_deterministic(self):
        one = random_chaos(11, workers=3, boundaries=40, events=3)
        two = random_chaos(11, workers=3, boundaries=40, events=3)
        assert one == two
        assert len(one.events) == 3
        boundaries = [event.boundary for event in one.events]
        assert boundaries == sorted(boundaries)
        assert len(set(boundaries)) == 3
        for event in one.events:
            assert 1 <= event.boundary <= 40
            assert 1 <= event.worker <= 3
            assert event.kind in ("sigkill", "sigterm", "oom")
        assert random_chaos(12, workers=3, boundaries=40, events=3) != one
