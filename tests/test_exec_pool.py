"""Unit coverage for the host-shard pool's building blocks and the
closed-form thread dealing.

The end-to-end byte-identity of ``jobs=N`` against ``jobs=1`` is a column
of the conformance table (``tests/test_conformance.py``); these tests pin
the pieces the pool relies on: shard geometry, the shardability rule (an
adjacent-vertex form into a thread-local map shards, every other phase
runs replicated), which apps fork at all, the install of a peer's state
with the kernel's operator, one fork per sharded run and the
coordinator's relay of worker bundles - plus its fail-fast contract: a
dead, silent or diverged worker fails the run with a typed, picklable
error naming the worker, shard and phase.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from multiprocessing.connection import Connection

import numpy as np
import pytest

from repro.algorithms.cc_sv import cc_sv_hook_plan
from repro.algorithms.common import shortcut_plan
from repro.cluster import Cluster
from repro.cluster.metrics import MetricsLog, PhaseKind
from repro.core import BoolReducer
from repro.core.propmap import NodePropMap
from repro.core.reducers import MIN, SUM, ReduceOp
from repro.core.variants import RuntimeVariant
from repro.eval.harness import APP_WEIGHTED, KIMBAP_APPS, run_kimbap
from repro.exec import (
    DegreeReduce,
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
    SyncStep,
)
from repro.exec.plan import walk_plans
from repro.exec.pool import (
    ExchangeTimeout,
    HostShardPool,
    WorkerDied,
    create_pool,
    fork_available,
    shard_hosts,
)
from repro.faults import FaultPlan, HostCrash, MessageFlake
from repro.graph import generators
from repro.partition.policies import partition
from tests.conftest import canonical, random_graph


# --------------------------------------------------------- shard geometry


class TestShardHosts:
    @pytest.mark.parametrize("num_hosts", (1, 2, 3, 4, 7, 16))
    @pytest.mark.parametrize("shards", (1, 2, 3, 4, 5))
    def test_partition_properties(self, num_hosts, shards):
        parts = shard_hosts(num_hosts, shards)
        # Concatenating shards in shard order is exactly 0..H-1: the
        # coordinator's merge-in-worker-order IS host order.
        flat = [h for part in parts for h in part]
        assert flat == list(range(num_hosts))
        # Contiguous and balanced (sizes differ by at most one).
        sizes = [len(part) for part in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_clamps_to_host_count(self):
        assert shard_hosts(2, 8) == [(0,), (1,)]
        assert shard_hosts(4, 1) == [(0, 1, 2, 3)]
        assert shard_hosts(4, 0) == [(0, 1, 2, 3)]


# ------------------------------------------- shardability from plan metadata


@pytest.fixture
def setup():
    graph = generators.erdos_renyi(24, 2.0, seed=5)
    cluster = Cluster(4, threads_per_host=2)
    pgraph = partition(graph, 4, "cvc")
    return cluster, pgraph


def _pool(cluster, plan):
    # Build the pool's decision tables without forking workers.
    return HostShardPool(Executor(cluster, jobs=2), plan, jobs=2)


def _first_operator(plan):
    return next(
        step.operator for step in plan.steps if isinstance(step, OperatorStep)
    )


def _one_phase_plan(pgraph, kernel, *maps):
    return Plan(
        name="p",
        pgraph=pgraph,
        steps=[OperatorStep(Operator("op", "all", kernel))],
        maps=maps,
    )


# Each kernel form over one target map: (the kernel, the operator a
# sharded phase installs with - None for the forms that never shard).
FORMS = {
    "edge-push": lambda m, other, flag: (EdgePush(target=m, op=MIN), MIN),
    "node-update": lambda m, other, flag: (
        NodeUpdate(m, SUM, value=lambda nodes: nodes), SUM
    ),
    "degree-reduce": lambda m, other, flag: (DegreeReduce(m), SUM),
    "key-request": lambda m, other, flag: (KeyRequest(keys=other, of=m), None),
    "node-gather": lambda m, other, flag: (
        NodeGather(keys=other, of=m, target=m, op=MIN), None
    ),
    "neighbor-reduce-to-key": lambda m, other, flag: (
        NeighborReduceToKey(source=other, target=m, op=MIN, cmp="gt", flag=flag),
        None,
    ),
    "scalar": lambda m, other, flag: (
        ScalarKernel(lambda ctx: None, write_names=((m.name, MIN.name),)), None
    ),
}
THREAD_LOCAL = (RuntimeVariant.KIMBAP, RuntimeVariant.SGR_CF)


class TestShardability:
    @pytest.mark.parametrize("variant", list(RuntimeVariant), ids=lambda v: v.value)
    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_only_adjacent_vertex_forms_on_thread_local_maps_shard(
        self, setup, form, variant
    ):
        """The rule: a phase shards iff its kernel is an ``EdgePush``,
        ``NodeUpdate`` or ``DegreeReduce`` and its target reduces through
        thread-local maps. Its table entry is that target and the
        kernel's own operator; every other phase runs replicated."""
        cluster, pgraph = setup
        target = NodePropMap(cluster, pgraph, "m", variant=variant)
        other = NodePropMap(cluster, pgraph, "keys")
        kernel, op = FORMS[form](target, other, BoolReducer(cluster, "f"))
        assert kernel.form == form
        plan = _one_phase_plan(pgraph, kernel, target, other)
        pool = _pool(cluster, plan)
        sharded = op is not None and variant in THREAD_LOCAL
        assert pool.shardable(_first_operator(plan)) == sharded
        assert pool.has_shardable_phase() == sharded
        if sharded:
            assert pool.table[id(_first_operator(plan))] == (target, op)

    def test_neighbor_reduce_to_key_runs_replicated(self, setup):
        cluster, pgraph = setup
        parent = NodePropMap(cluster, pgraph, "parent")
        plan = cc_sv_hook_plan(pgraph, parent, BoolReducer(cluster, "work"))
        pool = _pool(cluster, plan)
        assert not pool.shardable(_first_operator(plan))
        assert not pool.has_shardable_phase()

    def test_shortcut_forms_run_replicated(self, setup):
        cluster, pgraph = setup
        parent = NodePropMap(cluster, pgraph, "parent")
        plan = shortcut_plan(pgraph, parent)
        pool = _pool(cluster, plan)
        request, gather = (
            step.operator for step in plan.steps if isinstance(step, OperatorStep)
        )
        assert (pool.table[id(request)], pool.table[id(gather)]) == (None, None)

    def test_a_form_the_pool_never_heard_of_runs_replicated(self, setup):
        # A new declarative form reducing into a thread-local map is not
        # an adjacent-vertex form: it replays on every process until the
        # pool is taught what it mutates.
        @dataclasses.dataclass
        class Tally:
            target: NodePropMap
            op: ReduceOp = MIN

        cluster, pgraph = setup
        tallied = NodePropMap(cluster, pgraph, "t")
        plan = _one_phase_plan(pgraph, Tally(tallied), tallied)
        assert not _pool(cluster, plan).has_shardable_phase()

    @pytest.mark.skipif(
        not fork_available(), reason="host-shard parallelism needs POSIX fork"
    )
    @pytest.mark.parametrize("bulk", (False, True), ids=("scalar", "bulk"))
    def test_hook_votes_agree_without_a_pool(self, setup, bulk):
        _, pgraph = setup
        flags = []
        for jobs in (1, 2):
            cluster = Cluster(4, threads_per_host=2)
            executor = Executor(cluster, bulk=bulk, jobs=jobs)
            parent = NodePropMap(cluster, pgraph, "parent")
            executor.init_map(parent, lambda nodes: nodes.copy())
            work = BoolReducer(cluster, "work")
            work.set_all(False)
            try:
                executor.run(cc_sv_hook_plan(pgraph, parent, work))
                # The hook is trans-vertex: jobs=2 builds no pool at all.
                assert executor.parallel_stats() is None
            finally:
                executor.close()
            flags.append((list(work._flags), parent.snapshot()))
        assert flags[0] == flags[1]
        assert any(flags[1][0][2:])

    def test_edge_push_is_shardable(self, setup):
        cluster, pgraph = setup
        target = NodePropMap(cluster, pgraph, "dist")
        plan = Plan(
            name="p",
            pgraph=pgraph,
            steps=[
                OperatorStep(
                    Operator("push", "all", EdgePush(target=target, op=MIN))
                )
            ],
        )
        assert _pool(cluster, plan).shardable(_first_operator(plan))

    def test_host_global_kernel_runs_replicated(self, setup):
        cluster, pgraph = setup
        target = NodePropMap(cluster, pgraph, "m")
        kernel = ScalarKernel(
            lambda ctx: None, write_names=((target.name, MIN.name),)
        )
        plan = Plan(
            name="p",
            pgraph=pgraph,
            steps=[OperatorStep(Operator("op", "masters", kernel))],
            maps=(target,),
        )
        pool = _pool(cluster, plan)
        assert not pool.shardable(_first_operator(plan))
        assert not pool.has_shardable_phase()

    def test_unresolvable_reducer_runs_replicated(self, setup):
        cluster, pgraph = setup
        target = NodePropMap(cluster, pgraph, "m")
        # A scalar body writing through a reducer no plan object carries:
        # like every scalar body, it replays on every process.
        kernel = ScalarKernel(
            lambda ctx: None, write_names=((target.name, "bespoke"),)
        )
        plan = Plan(
            name="p",
            pgraph=pgraph,
            steps=[OperatorStep(Operator("op", "masters", kernel))],
            maps=(target,),
        )
        assert not _pool(cluster, plan).shardable(_first_operator(plan))

    def test_custom_reducer_shards_with_the_kernels_op(self, setup):
        # No registry and no declaration: the installing process holds
        # the same kernel, so it reduces with the same live operator.
        cluster, pgraph = setup
        target = NodePropMap(cluster, pgraph, "m")
        bespoke = ReduceOp("bespoke", lambda a, b: a + b)
        plan = _one_phase_plan(pgraph, EdgePush(target=target, op=bespoke), target)
        sharded = _pool(cluster, plan).table[id(_first_operator(plan))]
        assert sharded == (target, bespoke)

    def test_kvstore_variant_runs_replicated(self, setup):
        cluster, pgraph = setup
        target = NodePropMap(cluster, pgraph, "mc", variant=RuntimeVariant.MC)
        plan = Plan(
            name="p",
            pgraph=pgraph,
            steps=[
                OperatorStep(
                    Operator("push", "all", EdgePush(target=target, op=MIN))
                )
            ],
        )
        assert not _pool(cluster, plan).shardable(_first_operator(plan))


@pytest.mark.skipif(
    not fork_available(), reason="host-shard parallelism needs POSIX fork"
)
def test_a_shard_that_reduced_nothing_reduce_syncs_with_the_kernels_op():
    """Under ``oec`` an edge lives on its source's owner, so filtering to
    sources owned by hosts 2 and 3 leaves the coordinator's shard (hosts 0
    and 1) without a single reduce: its replica binds the target's
    operator only when it installs the worker's state, with the kernel's
    op - without it the reduce-sync would apply nothing."""
    graph = generators.erdos_renyi(24, 2.0, seed=5)
    pgraph = partition(graph, 4, "oec")
    owner = np.array([pgraph.owner_of(node) for node in range(graph.num_nodes)])
    outcomes = []
    for jobs in (1, 2):
        cluster = Cluster(4, threads_per_host=2)
        executor = Executor(cluster, bulk=True, jobs=jobs)
        target = NodePropMap(cluster, pgraph, "far")
        executor.init_map(target, lambda nodes: np.full(nodes.size, np.inf))
        push = EdgePush(
            target=target,
            op=MIN,
            const_value=1.0,
            edge_filter=lambda src, dst: owner[src] >= 2,
        )
        plan = Plan(
            name="far",
            pgraph=pgraph,
            steps=[
                OperatorStep(Operator("push", "all", push)),
                SyncStep(target, "reduce"),
            ],
            max_rounds=1,
            raise_on_max_rounds=False,
        )
        try:
            executor.run(plan)
            stats = executor.parallel_stats()
        finally:
            executor.close()
        (phase,) = [record for record in cluster.log.phases if record.operator == "push"]
        outcomes.append(
            (target.snapshot(), [counters.reduce_calls for counters in phase.counters])
        )
    assert stats["forks"] == 1
    assert outcomes[0] == outcomes[1]
    values, calls = outcomes[1]
    assert calls[:2] == [0, 0] and sum(calls) > 0
    assert 1.0 in values.values()


# ------------------------------------------- closed-form thread dealing


class TestBoundaryCache:
    def test_boundaries_match_closed_form(self):
        cluster = Cluster(1, threads_per_host=3)
        bounds = cluster.thread_boundaries(10)
        assert bounds.tolist() == [0, 4, 7, 10]
        assert cluster.threads_of(10).tolist() == [0] * 4 + [1] * 3 + [2] * 3
        assert not bounds.flags.writeable
        assert not cluster.threads_of(10).flags.writeable


# --------------------- pool lifecycle: forks, deaths, worker reaping


needs_fork = pytest.mark.skipif(
    not fork_available(), reason="host-shard parallelism needs POSIX fork"
)


def _live_workers() -> list[str]:
    return [
        child.name
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-host-shard-")
    ]


def _shardable_plan(cluster, pgraph, name="life"):
    target = NodePropMap(cluster, pgraph, name)
    return Plan(
        name=name,
        pgraph=pgraph,
        steps=[
            OperatorStep(
                Operator("push", "all", EdgePush(target=target, op=MIN))
            )
        ],
        max_rounds=1,
        raise_on_max_rounds=False,
    )


# ------------- one mechanism: the pool exchanges compute effects only


@needs_fork
class TestNoExchangeInsideACollective:
    """One ``flush`` per sharded compute phase and no effect
    traffic outside it: every process replays the sync collectives whole,
    fault-free and under a fault plan alike. CC-SCLP mixes both kinds of
    compute phase: its edge pushes shard, its shortcut's request and
    gather replay replicated."""

    ADJACENT_VERTEX = ("edge-push", "node-update", "degree-reduce")

    COMPUTE = (PhaseKind.REQUEST_COMPUTE, PhaseKind.REDUCE_COMPUTE)
    SYNC = (PhaseKind.REQUEST_SYNC, PhaseKind.REDUCE_SYNC, PhaseKind.BROADCAST_SYNC)

    @pytest.mark.parametrize("faulted", (False, True), ids=("fault-free", "fault-plan"))
    @pytest.mark.parametrize(
        "app,bulk", (("PR", True), ("SSSP", True), ("CC-SCLP", False))
    )
    def test_arena_traffic_only_inside_a_compute_flush(
        self, monkeypatch, app, bulk, faulted
    ):
        graph = generators.erdos_renyi(
            40, 3.0, seed=7, weighted=APP_WEIGHTED.get(app, False)
        )
        kwargs = {}
        if faulted:
            kwargs["fault_plan"] = FaultPlan(
                name="crash@2+flake",
                checkpoint_interval=2,
                crashes=(HostCrash(host=1, round=2),),
                flake=MessageFlake(drop_rate=0.05),
            )
        serial = run_kimbap(app, "spy", 4, graph=graph, bulk=bulk, **kwargs)

        # Coordinator-side spies (forked workers inherit them; their
        # copies of these lists die with them).
        state = {"pool": None, "exchanging": False}
        # (log, phase index) of every flush.
        flushed: list[tuple[MetricsLog, int]] = []
        traffic: list[tuple[bool, PhaseKind | None]] = []

        real_flush = HostShardPool.flush

        def flush(pool, sharded, log):
            state["pool"] = pool
            flushed.append((log, log.num_phases - 1))
            state["exchanging"] = True
            try:
                return real_flush(pool, sharded, log)
            finally:
                state["exchanging"] = False

        def note(message):
            # Only effect messages count; run tokens (eor, abort) are not
            # exchange traffic.
            if pickle.loads(message)[0] == "fx":
                record = state["pool"].executor.cluster._current
                traffic.append(
                    (state["exchanging"], None if record is None else record.kind)
                )

        real_send, real_recv = Connection.send_bytes, Connection.recv_bytes

        def send_bytes(conn, message, *args):
            note(message)
            return real_send(conn, message, *args)

        def recv_bytes(conn, *args):
            message = real_recv(conn, *args)
            note(message)
            return message

        monkeypatch.setattr(HostShardPool, "flush", flush)
        monkeypatch.setattr(Connection, "send_bytes", send_bytes)
        monkeypatch.setattr(Connection, "recv_bytes", recv_bytes)
        parallel = run_kimbap(app, "spy", 4, graph=graph, bulk=bulk, jobs=2, **kwargs)

        assert canonical(parallel) == canonical(serial)
        assert flushed and traffic, "the run never sharded a phase"
        assert all(exchanging for exchanging, _ in traffic)
        assert not [kind for _, kind in traffic if kind in self.SYNC]
        # The flushed phases are exactly the log's adjacent-vertex compute
        # phases (every map of these apps is thread-local).
        pool = state["pool"]
        adjacent = {
            step.operator.label
            for loop in walk_plans(pool.plan)
            for step in loop.steps
            if isinstance(step, OperatorStep)
            and step.operator.kernel.form in self.ADJACENT_VERTEX
        }
        log = pool.executor.cluster.log
        compute = [
            (index, record.operator in adjacent)
            for index, record in enumerate(log.phases)
            if record.kind in self.COMPUTE
        ]
        assert all(flushed_log is log for flushed_log, _ in flushed)
        assert [index for _, index in flushed] == [i for i, adj in compute if adj]
        assert all(adj for _, adj in compute) == (app != "CC-SCLP")


# The jobs=2 census: apps none of whose phases is an adjacent-vertex form
# (CC-SV's hook and shortcut are trans-vertex, the rest scalar bodies)
# build no pool; every other app forks.
UNPOOLED_APPS = ("CC-SV", "K-CORE", "LV", "MSF", "VERTEX-COVER")


@needs_fork
@pytest.mark.parametrize("bulk", (False, True), ids=("scalar", "bulk"))
@pytest.mark.parametrize("app", sorted(KIMBAP_APPS))
def test_repeated_runs_fork_once_each_and_leave_no_segments(monkeypatch, app, bulk):
    """Every sharded run is one fork from the coordinator's current state,
    and its ``end_run`` leaves no worker process behind. Every forking app
    but LD is one plan - PR's and MIS's nested loops ride its single fork
    - while LD runs plans per level through one executor. The
    ``UNPOOLED_APPS`` shard no phase: they run to the same bytes without
    a pool."""
    left_behind = []  # one entry per sharded run: only those reach end_run
    end_run = HostShardPool.end_run

    def checking_end_run(pool, failed):
        end_run(pool, failed)
        left_behind.append(_live_workers())

    monkeypatch.setattr(HostShardPool, "end_run", checking_end_run)
    graph = random_graph(11, weighted=APP_WEIGHTED.get(app, False))
    serial = run_kimbap(app, "forks", 4, graph=graph, threads=4, bulk=bulk)
    parallel = run_kimbap(app, "forks", 4, graph=graph, threads=4, bulk=bulk, jobs=2)
    assert canonical(parallel) == canonical(serial)
    assert serial.parallel is None
    stats = parallel.parallel
    if app in UNPOOLED_APPS:
        assert stats is None and not left_behind
        return
    assert stats["forks"] == len(left_behind) and not any(left_behind)
    assert (stats["forks"] > 1) == (app == "LD")
    assert stats["bytes_exchanged"] > 0


@needs_fork
def test_coordinator_relays_each_worker_bundle_to_the_other_worker(monkeypatch):
    """``jobs=3`` on 4 hosts: two workers, so each receives the other's
    bundle only as the bytes the coordinator read from it, forwarded."""
    received, forwarded = [], []  # (worker index, message), coordinator side
    recv_token, send_to_worker = HostShardPool._recv_token, HostShardPool._send_to_worker

    def spy_recv(pool, conn, index, process):
        token, message = recv_token(pool, conn, index, process)
        if not pool.is_worker and token[0] == "fx":
            received.append((index, message))
        return token, message

    def spy_send(pool, index, process, conn, message):
        forwarded.append((index, message))
        return send_to_worker(pool, index, process, conn, message)

    monkeypatch.setattr(HostShardPool, "_recv_token", spy_recv)
    monkeypatch.setattr(HostShardPool, "_send_to_worker", spy_send)
    run_kimbap("PR", "relay", 4, graph=random_graph(3), threads=4, bulk=True, jobs=3)
    assert received
    for sender, message in received:
        assert {index for index, sent in forwarded if sent is message} == {1, 2} - {sender}


class TestCreatePoolClamp:
    def test_jobs_clamp_to_host_count_with_nonempty_shards(self, setup):
        cluster, pgraph = setup
        plan = _shardable_plan(cluster, pgraph)
        pool = HostShardPool(Executor(cluster, jobs=64), plan, jobs=64)
        assert pool.jobs == cluster.num_hosts
        assert len(pool.shards) == cluster.num_hosts
        assert all(pool.shards)

    @needs_fork
    def test_create_pool_never_builds_an_empty_shard(self, setup):
        cluster, pgraph = setup
        plan = _shardable_plan(cluster, pgraph)
        pool = create_pool(Executor(cluster, jobs=11), plan)
        assert pool is not None
        assert all(pool.shards)
        assert sum(len(s) for s in pool.shards) == cluster.num_hosts


@needs_fork
class TestForkFailureReaping:
    def test_partial_fork_reaps_children_and_segments(self, setup):
        """Satellite fix: if forking worker k fails, the k-1 already
        started workers are reaped before the error propagates - a
        partial pool must not leak."""
        cluster, pgraph = setup
        plan = _shardable_plan(cluster, pgraph)
        executor = Executor(cluster, jobs=3)
        pool = create_pool(executor, plan)
        real_factory = pool._make_process

        def failing_factory(ctx, index, *rest):
            if index == 2:
                raise OSError("simulated fork failure")
            return real_factory(ctx, index, *rest)

        pool._make_process = failing_factory
        with pytest.raises(OSError, match="simulated fork failure"):
            pool.fork_workers()
        assert pool.workers == []
        assert not _live_workers()


@needs_fork
class TestWorkerDeathSurfacing:
    @pytest.mark.parametrize(
        "signum,expect",
        ((signal.SIGTERM, "SIGTERM"), (signal.SIGKILL, "SIGKILL")),
    )
    def test_killed_worker_surfaces_signal_and_cleans_up(
        self, setup, signum, expect
    ):
        """Satellite fix: a dead worker surfaces its signal/exit code in
        the error (not just "pipe closed"), and teardown escalates within
        seconds instead of the old 30s join stall - leaving no worker."""
        cluster, pgraph = setup
        plan = _shardable_plan(cluster, pgraph, name=f"death-{expect}")
        executor = Executor(cluster, jobs=2)
        pool = create_pool(executor, plan)
        assert pool.begin_run(plan)
        try:
            process, _ = pool.workers[0]
            os.kill(process.pid, signum)
            process.join(timeout=10)
            operator = _first_operator(plan)
            cluster.log.start_phase(PhaseKind.REDUCE_COMPUTE)
            with pytest.raises(RuntimeError, match=expect) as exc:
                pool.flush(pool.table[id(operator)], cluster.log)
            # The typed taxonomy carries the failing worker's identity.
            assert isinstance(exc.value, WorkerDied)
            assert exc.value.worker == 1
            assert exc.value.shard == tuple(pool.shards[1])
        finally:
            pool.shutdown()
        assert not _live_workers()
        assert pool.workers == []

    def test_normal_runs_leave_no_segments(self, setup):
        graph = generators.erdos_renyi(40, 3.0, seed=7)
        result = run_kimbap("PR", "life", 4, graph=graph, bulk=True, jobs=2)
        assert not _live_workers()
        stats = result.parallel
        assert stats is not None and stats["forks"] >= 1
        assert stats["bytes_exchanged"] > 0

    def test_close_is_idempotent(self, setup):
        """close() twice - then __del__ on top - must not raise or try to
        reap the pool a second time (the harness calls close() explicitly
        and GC may still run __del__ later)."""
        from repro.algorithms.cc_lp import cc_lp

        cluster, pgraph = setup
        executor = Executor(cluster, jobs=2)
        cc_lp(cluster, pgraph, executor=executor)
        stats = executor.parallel_stats()
        assert stats is not None and stats["forks"] >= 1
        executor.close()
        assert not _live_workers()
        executor.close()  # second close: no pool left, must be a no-op
        executor.__del__()  # GC path after explicit close: also a no-op
        assert not _live_workers()
        assert executor.parallel_stats() is None  # close() dropped the pool

    def test_close_without_pool_is_safe(self, setup):
        """An executor that never forked (jobs=1) closes cleanly twice."""
        cluster, _ = setup
        executor = Executor(cluster)
        executor.close()
        executor.close()
        executor.__del__()
        assert executor.parallel_stats() is None

    def test_failed_run_leaves_no_segments(self, setup):
        """An exception raised mid-parallel-run (on every replica - the
        replay is deterministic) aborts cleanly: close() reaps workers."""
        cluster, pgraph = setup
        target = NodePropMap(cluster, pgraph, "boom")

        def edge_filter(src, dst):
            raise ValueError("deterministic kernel failure")

        plan = Plan(
            name="boom",
            pgraph=pgraph,
            steps=[
                OperatorStep(
                    Operator(
                        "boom",
                        "all",
                        EdgePush(
                            target=target, op=MIN, const_value=1,
                            edge_filter=edge_filter,
                        ),
                    )
                )
            ],
            max_rounds=1,
            raise_on_max_rounds=False,
        )
        executor = Executor(cluster, jobs=2)
        try:
            with pytest.raises(ValueError, match="deterministic kernel failure"):
                executor.run(plan)
            assert executor.parallel_stats()["forks"] == 1
        finally:
            executor.close()
        assert not _live_workers()


# ------------------------- shutdown diagnostics + interpreter exit


@needs_fork
class TestEndRunDiagnostics:
    def test_dead_worker_at_end_of_failed_run_is_recorded(self, setup):
        """Satellite fix: ``end_run`` no longer swallows arbitrary
        RuntimeErrors - only the typed peer-failure family is tolerated
        after a failed run, and every instance leaves a diagnostic."""
        cluster, pgraph = setup
        plan = _shardable_plan(cluster, pgraph, name="diag")
        pool = create_pool(Executor(cluster, jobs=2), plan)
        assert pool.begin_run(plan)
        process, _ = pool.workers[0]
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10)
        pool.end_run(failed=True)
        assert pool.deaths_detected >= 1
        assert any("end_run" in line for line in pool.diagnostics)
        assert pool.workers == []
        assert not _live_workers()


class _AliveProcess:
    pid = 4242

    @staticmethod
    def is_alive() -> bool:
        return True


class TestSupervisorUnits:
    def test_silent_worker_times_out(self, setup):
        cluster, pgraph = setup
        pool = _pool(cluster, _shardable_plan(cluster, pgraph))
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


_CHILD_ENV_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


@needs_fork
class TestFailFastSupervisor:
    def test_stopped_worker_times_out_under_fail_fast(self, tmp_path):
        """Every coordinator wait is the supervisor's poll: a SIGSTOPped
        worker surfaces as ``ExchangeTimeout`` naming
        its worker, shard and phase instead of blocking the run forever.
        The run happens in a child under a timeout so a blocking wait
        fails this test rather than hanging the suite."""
        script = tmp_path / "stalled_child.py"
        script.write_text(
            textwrap.dedent(
                """
                import json
                import os
                import signal

                from repro.cluster import Cluster
                from repro.core.propmap import NodePropMap
                from repro.core.reducers import MIN
                from repro.exec import (
                    EdgePush,
                    Executor,
                    Operator,
                    OperatorStep,
                    Plan,
                )
                from repro.exec.pool import ExchangeTimeout, HostShardPool
                from repro.graph import generators
                from repro.partition.policies import partition


                def stop_self(pool, *args):
                    # Only workers run this half of the exchange: the worker
                    # stops itself before it sends its bundle.
                    os.kill(os.getpid(), signal.SIGSTOP)


                HostShardPool._flush_worker = stop_self
                graph = generators.erdos_renyi(24, 2.0, seed=5)
                cluster = Cluster(4, threads_per_host=2)
                pgraph = partition(graph, 4, "cvc")
                target = NodePropMap(cluster, pgraph, "stall")
                plan = Plan(
                    name="stall",
                    pgraph=pgraph,
                    steps=[
                        OperatorStep(
                            Operator(
                                "push",
                                "all",
                                EdgePush(target=target, op=MIN, const_value=1),
                            )
                        )
                    ],
                    max_rounds=1,
                    raise_on_max_rounds=False,
                )
                executor = Executor(cluster, jobs=2)
                executor._ensure_pool(plan).exchange_timeout = 1
                try:
                    executor.run(plan)
                except ExchangeTimeout as err:
                    print(json.dumps([err.worker, list(err.shard), err.phase]))
                finally:
                    executor.close()
                """
            )
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = _CHILD_ENV_SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the stopped worker too
            proc.communicate()
            pytest.fail("the coordinator blocked on a stopped worker")
        assert proc.returncode == 0
        assert json.loads(out) == [1, [2, 3], "push"]


@needs_fork
class TestAtexitCleanup:
    def test_interrupted_process_reaps_segments(self, tmp_path):
        """A KeyboardInterrupt that reaches interpreter exit with a live
        pool (no ``Executor.close()``) still takes the worker down: it is
        a daemon process, which multiprocessing's own exit handler
        terminates and reaps."""
        script = tmp_path / "pool_child.py"
        script.write_text(
            textwrap.dedent(
                """
                import signal

                from repro.cluster import Cluster
                from repro.core.propmap import NodePropMap
                from repro.core.reducers import MIN
                from repro.exec import (
                    EdgePush,
                    Executor,
                    Operator,
                    OperatorStep,
                    Plan,
                )
                from repro.exec.pool import create_pool
                from repro.graph import generators
                from repro.partition.policies import partition

                graph = generators.erdos_renyi(24, 2.0, seed=5)
                cluster = Cluster(4, threads_per_host=2)
                pgraph = partition(graph, 4, "cvc")
                target = NodePropMap(cluster, pgraph, "atexit")
                plan = Plan(
                    name="atexit",
                    pgraph=pgraph,
                    steps=[
                        OperatorStep(
                            Operator(
                                "push",
                                "all",
                                EdgePush(target=target, op=MIN, const_value=1),
                            )
                        )
                    ],
                    max_rounds=1,
                    raise_on_max_rounds=False,
                )
                pool = create_pool(Executor(cluster, jobs=2), plan)
                assert pool.begin_run(plan)
                print(pool.workers[0][0].pid, flush=True)
                signal.pause()
                """
            )
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = _CHILD_ENV_SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            worker = int(proc.stdout.readline())
            assert _pid_exists(worker)
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=20) != 0
        finally:
            if proc.poll() is None:  # pragma: no cover - hung child
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
        deadline = time.monotonic() + 10
        while _pid_exists(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _pid_exists(worker)


def _pid_exists(pid: int) -> bool:
    """Is ``pid`` a live process (a zombie awaiting its reaper is not)?"""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as src:
            return src.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:  # no procfs: the signal probe is all there is
        return True
