"""Unit coverage for the host-shard pool's building blocks and the
closed-form thread dealing.

The end-to-end byte-identity contract lives in
``tests/test_parallel_equivalence.py``; these tests pin the deterministic
pieces the pool relies on: shard geometry, the per-phase shardability
decisions derived from plan metadata, and operator resolution by name.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.algorithms.cc_sv import cc_sv_hook_plan
from repro.algorithms.common import shortcut_plan
from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind, PhaseRecord
from repro.core.propmap import NodePropMap
from repro.core.reducers import MIN, ReduceOp
from repro.core.variants import RuntimeVariant
from repro.eval.harness import APP_WEIGHTED, run_kimbap
from repro.exec import (
    EdgePush,
    Executor,
    Operator,
    OperatorStep,
    Plan,
    ScalarKernel,
)
from repro.exec.pool import (
    POOL_SEGMENT_PREFIX,
    ArenaIntegrityError,
    HostShardPool,
    WorkerDied,
    _ARENA_MAGIC,
    _Arena,
    _encode_payload,
    _encoded_size,
    _FRAME_HEADER,
    _pad,
    _read_encoded,
    _write_encoded,
    create_pool,
    fork_available,
    shard_hosts,
)
from repro.faults import FaultPlan, HostCrash, MessageFlake
from repro.graph import generators
from repro.partition.policies import partition
from repro.runtime.bool_reducer import BoolReducer


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


class TestShardability:
    def test_neighbor_reduce_to_key_is_shardable_with_its_flag(self, setup):
        cluster, pgraph = setup
        parent = NodePropMap(cluster, pgraph, "parent")
        work = BoolReducer(cluster, "work")
        plan = cc_sv_hook_plan(pgraph, parent, work)
        pool = _pool(cluster, plan)
        assert pool.has_shardable_phase()
        assert pool.shardable(_first_operator(plan))
        # The vote is a compute-phase effect too: the flag is a carrier of
        # the hook phase and resolvable by name on every process.
        carriers = pool._tables[id(plan)][id(_first_operator(plan))]
        assert carriers == [parent, work]
        assert pool._names[id(plan)] == {"parent": parent, "work": work}

    def test_shortcut_forms_carry_the_map_they_mutate(self, setup):
        cluster, pgraph = setup
        parent = NodePropMap(cluster, pgraph, "parent")
        plan = shortcut_plan(pgraph, parent)
        pool = _pool(cluster, plan)
        request, gather = (
            step.operator for step in plan.steps if isinstance(step, OperatorStep)
        )
        assert pool._tables[id(plan)][id(request)] == [parent]  # request bits
        assert pool._tables[id(plan)][id(gather)] == [parent]  # reductions

    def test_a_form_the_pool_never_heard_of_registers_like_the_built_in_ones(
        self, setup
    ):
        # The pool knows a declarative form only by its dataclass fields
        # (the name table) and its effects() (the phase's carriers), so a
        # new form - carriers under new field names - needs no pool edit.
        @dataclasses.dataclass
        class Tally:
            tallied: NodePropMap
            votes: BoolReducer
            watched: NodePropMap

            def effects(self):
                return [self.tallied, self.votes]

        cluster, pgraph = setup
        tallied, watched = (NodePropMap(cluster, pgraph, name) for name in "tw")
        votes = BoolReducer(cluster, "v")
        plan = Plan(
            name="tally",
            pgraph=pgraph,
            steps=[
                OperatorStep(Operator("tally", "all", Tally(tallied, votes, watched)))
            ],
            once=True,
        )
        pool = _pool(cluster, plan)
        assert pool._tables[id(plan)][id(_first_operator(plan))] == [tallied, votes]
        assert pool._names[id(plan)] == {"t": tallied, "v": votes, "w": watched}

    @pytest.mark.skipif(
        not fork_available(), reason="host-shard parallelism needs POSIX fork"
    )
    @pytest.mark.parametrize("bulk", (False, True), ids=("scalar", "bulk"))
    def test_hook_votes_cross_the_shard_exchange(self, setup, bulk):
        _, pgraph = setup
        flags = []
        for jobs in (1, 2):
            cluster = Cluster(4, threads_per_host=2)
            executor = Executor(cluster, bulk=bulk, jobs=jobs)
            parent = NodePropMap(cluster, pgraph, "parent")
            executor.init_map(parent, lambda nodes: nodes.copy())
            work = BoolReducer(cluster, "work")
            work.set_all(False)
            parent.pin_mirrors(invariant="none")
            try:
                executor.run(cc_sv_hook_plan(pgraph, parent, work))
                stats = executor.parallel_stats()
            finally:
                executor.close()
            assert (stats is not None and stats["forks"] >= 1) == (jobs == 2)
            flags.append((list(work._flags), parent.snapshot()))
        assert flags[0] == flags[1]
        # Hosts 2 and 3 are the worker's shard: their votes reached the
        # coordinator only through the exchanged flag carrier.
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
            once=True,
        )
        assert _pool(cluster, plan).shardable(_first_operator(plan))

    def test_host_global_kernel_runs_replicated(self, setup):
        cluster, pgraph = setup
        target = NodePropMap(cluster, pgraph, "m")
        kernel = ScalarKernel(
            lambda ctx: None,
            write_names=((target.name, MIN.name),),
            host_local=False,
        )
        plan = Plan(
            name="p",
            pgraph=pgraph,
            steps=[OperatorStep(Operator("op", "masters", kernel))],
            maps=(target,),
            once=True,
        )
        pool = _pool(cluster, plan)
        assert not pool.shardable(_first_operator(plan))
        assert not pool.has_shardable_phase()

    def test_unresolvable_reducer_runs_replicated(self, setup):
        cluster, pgraph = setup
        target = NodePropMap(cluster, pgraph, "m")
        # A write through a reducer the plan does not carry (no ops=
        # declaration): the phase must degrade to replication, not error.
        kernel = ScalarKernel(
            lambda ctx: None, write_names=((target.name, "bespoke"),)
        )
        plan = Plan(
            name="p",
            pgraph=pgraph,
            steps=[OperatorStep(Operator("op", "masters", kernel))],
            maps=(target,),
            once=True,
        )
        assert not _pool(cluster, plan).shardable(_first_operator(plan))

    def test_declared_ops_make_custom_reducer_shardable(self, setup):
        cluster, pgraph = setup
        target = NodePropMap(cluster, pgraph, "m")
        bespoke = ReduceOp("bespoke", lambda a, b: a + b)
        kernel = ScalarKernel(
            lambda ctx: None,
            write_names=((target.name, "bespoke"),),
            ops=(bespoke,),
        )
        plan = Plan(
            name="p",
            pgraph=pgraph,
            steps=[OperatorStep(Operator("op", "masters", kernel))],
            maps=(target,),
            once=True,
        )
        pool = _pool(cluster, plan)
        assert pool.shardable(_first_operator(plan))
        assert pool.resolve_op(target.name, "bespoke") is bespoke

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
            once=True,
        )
        assert not _pool(cluster, plan).shardable(_first_operator(plan))

    def test_resolve_op_error_names_the_fix(self, setup):
        cluster, pgraph = setup
        target = NodePropMap(cluster, pgraph, "m")
        plan = Plan(
            name="p",
            pgraph=pgraph,
            steps=[
                OperatorStep(
                    Operator("push", "all", EdgePush(target=target, op=MIN))
                )
            ],
            once=True,
        )
        pool = _pool(cluster, plan)
        with pytest.raises(RuntimeError, match=r"ScalarKernel\(ops=\.\.\.\)"):
            pool.resolve_op("m", "no-such-op")


# ------------------------------------------- closed-form thread dealing


class TestBoundaryCache:
    def test_boundaries_match_closed_form(self):
        cluster = Cluster(1, threads_per_host=3)
        bounds = cluster.thread_boundaries(10)
        assert bounds.tolist() == [0, 4, 7, 10]
        assert cluster.threads_of(10).tolist() == [0] * 4 + [1] * 3 + [2] * 3
        assert not bounds.flags.writeable
        assert not cluster.threads_of(10).flags.writeable


# --------------------- pool lifecycle: forks, deaths, shared segments


needs_fork = pytest.mark.skipif(
    not fork_available(), reason="host-shard parallelism needs POSIX fork"
)


def _segments() -> set[str]:
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(POOL_SEGMENT_PREFIX)
        }
    except FileNotFoundError:  # pragma: no cover - platform without /dev/shm
        return set()


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
        once=True,
    )


# ------------- one mechanism: the pool exchanges compute effects only


@needs_fork
class TestNoExchangeInsideACollective:
    """One ``flush`` per sharded compute ``PhaseRecord`` and no arena
    traffic outside it: every process replays the sync collectives whole,
    fault-free and under a fault plan alike."""

    COMPUTE = (PhaseKind.REQUEST_COMPUTE, PhaseKind.REDUCE_COMPUTE)
    SYNC = (PhaseKind.REQUEST_SYNC, PhaseKind.REDUCE_SYNC, PhaseKind.BROADCAST_SYNC)

    @pytest.mark.parametrize("faulted", (False, True), ids=("fault-free", "fault-plan"))
    @pytest.mark.parametrize(
        "app,bulk", (("PR", True), ("SSSP", True), ("CC-SV", False))
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
        flushed: list[PhaseRecord] = []
        traffic: list[tuple[bool, PhaseKind | None]] = []

        real_flush = HostShardPool.flush

        def flush(pool, carriers, record):
            state["pool"] = pool
            flushed.append(record)
            state["exchanging"] = True
            try:
                return real_flush(pool, carriers, record)
            finally:
                state["exchanging"] = False

        def spied(method):
            def call(arena, *args, **kw):
                record = state["pool"].executor.cluster._current
                traffic.append(
                    (state["exchanging"], None if record is None else record.kind)
                )
                return method(arena, *args, **kw)

            return call

        monkeypatch.setattr(HostShardPool, "flush", flush)
        monkeypatch.setattr(_Arena, "write", spied(_Arena.write))
        monkeypatch.setattr(_Arena, "read", spied(_Arena.read))
        parallel = run_kimbap(app, "spy", 4, graph=graph, bulk=bulk, jobs=2, **kwargs)

        assert json.dumps(parallel.to_dict(), sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )
        assert flushed and traffic, "the run never sharded a phase"
        assert all(exchanging for exchanging, _ in traffic)
        assert not [kind for _, kind in traffic if kind in self.SYNC]
        # Every compute phase of these apps is a declarative form, hence
        # shardable: the flushed records are the log's compute records.
        log = state["pool"].executor.cluster.log
        sharded = [record for record in log.phases if record.kind in self.COMPUTE]
        assert len(flushed) == len(sharded)
        assert all(a is b for a, b in zip(flushed, sharded))


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
        started workers and every /dev/shm segment are reaped before the
        error propagates - a partial pool must not leak."""
        cluster, pgraph = setup
        plan = _shardable_plan(cluster, pgraph)
        executor = Executor(cluster, jobs=3)
        pool = create_pool(executor, plan)
        before = _segments()
        real_factory = pool._make_process

        def failing_factory(ctx, index, *rest):
            if index == 2:
                raise OSError("simulated fork failure")
            return real_factory(ctx, index, *rest)

        pool._make_process = failing_factory
        with pytest.raises(OSError, match="simulated fork failure"):
            pool.fork_workers(plan)
        assert pool.workers == []
        assert _segments() == before
        import multiprocessing

        for child in multiprocessing.active_children():
            assert not child.name.startswith("repro-host-shard")


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
        seconds instead of the old 30s join stall - leaving no segments."""
        cluster, pgraph = setup
        plan = _shardable_plan(cluster, pgraph, name=f"death-{expect}")
        executor = Executor(cluster, jobs=2)
        pool = create_pool(executor, plan)
        before = _segments()
        assert pool.begin_run(plan)
        try:
            process, _ = pool.workers[0]
            os.kill(process.pid, signum)
            process.join(timeout=10)
            operator = _first_operator(plan)
            record = PhaseRecord.empty(
                PhaseKind.REDUCE_COMPUTE, cluster.num_hosts, parallel=True
            )
            with pytest.raises(RuntimeError, match=expect) as exc:
                pool.flush(pool._tables[id(plan)][id(operator)], record)
            # The typed taxonomy carries the failing worker's identity.
            assert isinstance(exc.value, WorkerDied)
            assert exc.value.worker == 1
            assert exc.value.shard == tuple(pool.shards[1])
        finally:
            pool.shutdown()
        assert _segments() == before
        assert pool.workers == []

    def test_normal_runs_leave_no_segments(self, setup):
        cluster, pgraph = setup
        before = _segments()
        graph = generators.erdos_renyi(40, 3.0, seed=7)
        result = run_kimbap("PR", "life", 4, graph=graph, bulk=True, jobs=2)
        assert _segments() == before
        stats = result.parallel
        assert stats is not None and stats["forks"] >= 1
        assert stats["bytes_exchanged"] > 0
        assert stats["segments_peak"] >= 2

    def test_close_is_idempotent(self, setup):
        """close() twice - then __del__ on top - must not raise or try to
        release the pool's shared segments a second time (the harness
        calls close() explicitly and GC may still run __del__ later)."""
        from repro.algorithms.cc_lp import cc_lp

        cluster, pgraph = setup
        before = _segments()
        executor = Executor(cluster, jobs=2)
        cc_lp(cluster, pgraph, executor=executor)
        stats = executor.parallel_stats()
        assert stats is not None and stats["forks"] >= 1
        executor.close()
        assert _segments() == before
        executor.close()  # second close: no pool left, must be a no-op
        executor.__del__()  # GC path after explicit close: also a no-op
        assert _segments() == before
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
        replay is deterministic) aborts cleanly: close() reaps workers and
        unlinks every segment."""
        cluster, pgraph = setup
        before = _segments()
        target = NodePropMap(cluster, pgraph, "boom")

        def body(ctx):
            raise ValueError("deterministic kernel failure")

        plan = Plan(
            name="boom",
            pgraph=pgraph,
            steps=[
                OperatorStep(
                    Operator(
                        "boom",
                        "masters",
                        ScalarKernel(
                            body, write_names=((target.name, MIN.name),)
                        ),
                    )
                )
            ],
            once=True,
        )
        executor = Executor(cluster, jobs=2)
        try:
            with pytest.raises(ValueError, match="deterministic kernel failure"):
                executor.run(plan)
        finally:
            executor.close()
        assert _segments() == before


# --------------------- arena frame integrity (ISSUE 7 tentpole hardening)


class TestArenaFrameIntegrity:
    """The frame header (magic/sequence/length, CRC32 when the supervisor
    is on) turns silent shared-memory corruption into a typed
    ``ArenaIntegrityError`` the healing path can recover from."""

    def _frame(self, obj, seq=0, check=True, slack=64):
        meta, raws = _encode_payload(obj)
        buf = memoryview(bytearray(_encoded_size(meta, raws) + slack))
        _write_encoded(buf, 0, meta, raws, seq, check)
        return buf, meta

    def test_roundtrip_with_sequence_and_checksum(self):
        obj = {"xs": np.arange(16, dtype=np.int64), "tag": "frame"}
        buf, _ = self._frame(obj, seq=3)
        out = _read_encoded(buf, 0, len(buf), expected_seq=3, check=True)
        assert out["tag"] == "frame"
        np.testing.assert_array_equal(out["xs"], obj["xs"])

    def test_wrong_sequence_is_rejected(self):
        buf, _ = self._frame([1, 2, 3], seq=3)
        with pytest.raises(ArenaIntegrityError, match="sequence"):
            _read_encoded(buf, 0, len(buf), expected_seq=4, check=True)

    def test_bad_magic_is_rejected(self):
        buf, _ = self._frame([1], seq=0)
        buf[0] ^= 0xFF
        with pytest.raises(ArenaIntegrityError, match="magic"):
            _read_encoded(buf, 0, len(buf), expected_seq=0, check=False)

    def test_flipped_payload_byte_fails_the_checksum(self):
        obj = np.arange(64, dtype=np.int64)
        buf, meta = self._frame(obj, seq=5, check=True)
        # Flip one byte inside the out-of-band numpy buffer: pickle still
        # decodes (the values are just wrong), so only the CRC catches it.
        offset = _FRAME_HEADER.size + _pad(len(meta)) + 8 + 11
        buf[offset] ^= 0xFF
        with pytest.raises(ArenaIntegrityError, match="checksum"):
            _read_encoded(buf, 0, len(buf), expected_seq=5, check=True)
        silent = _read_encoded(buf, 0, len(buf), expected_seq=5, check=False)
        assert not np.array_equal(silent, obj)

    def test_metadata_overrun_is_rejected(self):
        buf = memoryview(bytearray(128))
        _FRAME_HEADER.pack_into(buf, 0, _ARENA_MAGIC, 0, 0, 0, 1 << 40)
        with pytest.raises(ArenaIntegrityError, match="overruns"):
            _read_encoded(buf, 0, len(buf), expected_seq=0, check=False)


@needs_fork
class TestArenaFallbackAndGrowth:
    def test_oversize_bundle_falls_back_to_pipe(self):
        arena = _Arena(f"{POOL_SEGMENT_PREFIX}test-{os.getpid()}", 1, slots=2)
        try:
            big = np.zeros(4 * arena.slot_size, dtype=np.uint8)
            via = arena.write(0, big, seq=1, check=True)
            assert via[0] == "pipe"
            np.testing.assert_array_equal(arena.read(0, via, seq=1, check=True), big)
            small = {"k": 1}
            via = arena.write(1, small, seq=2, check=True)
            assert via[0] == "shm"
            assert arena.read(1, via, seq=2, check=True) == small
        finally:
            arena.destroy()

    def test_shortfall_grows_the_next_generation(self, setup):
        cluster, pgraph = setup
        plan = _shardable_plan(cluster, pgraph, name="grow")
        pool = _pool(cluster, plan)
        base = pool._arena_size(plan)
        pool.note_arena_shortfall(8 * base)
        assert pool._arena_size(plan) >= 16 * base

    def test_tiny_arena_run_is_byte_identical(self, monkeypatch):
        """With the arenas squeezed to one page every bundle overflows to
        the pipe fallback - and the result must not change by a byte."""
        graph = generators.erdos_renyi(40, 3.0, seed=7)
        serial = run_kimbap("PR", "tiny", 4, graph=graph, threads=4)
        monkeypatch.setattr(HostShardPool, "_arena_size", lambda self, plan: 4096)
        parallel = run_kimbap("PR", "tiny", 4, graph=graph, threads=4, jobs=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )


# ----------------------- shutdown diagnostics + interpreter-exit guard


@needs_fork
class TestEndRunDiagnostics:
    def test_dead_worker_at_end_of_failed_run_is_recorded(self, setup):
        """Satellite fix: ``end_run`` no longer swallows arbitrary
        RuntimeErrors - only the typed peer-failure family is tolerated
        after a failed run, and every instance leaves a diagnostic."""
        cluster, pgraph = setup
        plan = _shardable_plan(cluster, pgraph, name="diag")
        pool = create_pool(Executor(cluster, jobs=2), plan)
        before = _segments()
        assert pool.begin_run(plan)
        process, _ = pool.workers[0]
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10)
        pool.end_run(failed=True)
        assert pool.deaths_detected >= 1
        assert any("end_run" in line for line in pool.diagnostics)
        assert pool.workers == []
        assert _segments() == before


@needs_fork
class TestAtexitCleanup:
    def test_interrupted_process_reaps_segments(self, tmp_path):
        """Satellite fix: a KeyboardInterrupt that reaches interpreter
        exit with a live pool (no ``Executor.close()``) still unlinks
        every /dev/shm segment and reaps the workers via atexit."""
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
                                "push", "all", EdgePush(target=target, op=MIN)
                            )
                        )
                    ],
                    once=True,
                )
                pool = create_pool(Executor(cluster, jobs=2), plan)
                assert pool.begin_run(plan)
                print("READY", flush=True)
                signal.pause()
                """
            )
        )
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        before = _segments()
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            assert len(_segments()) > len(before)
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=20) != 0
        finally:
            if proc.poll() is None:  # pragma: no cover - hung child
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
        assert _segments() == before
