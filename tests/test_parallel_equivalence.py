"""The host-parallel (``jobs=N``) execution path's equivalence contract.

The process-parallel backend (``repro.exec.pool``) promises the same
byte-identity the bulk path does: ``RunResult.to_dict()`` - every
counter, conflict count, modeled second, and trace row - plus the final
property values must match the ``jobs=1`` run exactly, for every
algorithm, on either kernel backend, and under fault injection. These
tests enforce that contract: all twelve applications at ``jobs=2``
(scalar and bulk), a hypothesis sweep over random graphs x ``jobs in
{1, 2, 4}`` x ``bulk in {False, True}``, crash-mid-round recovery
equivalence under ``jobs=2``, and the coordinator's relay at ``jobs=3``.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.harness import APP_WEIGHTED, KIMBAP_APPS, run_kimbap
from repro.exec.pool import HostShardPool, fork_available
from repro.faults import FaultPlan, HostCrash
from repro.graph import generators

APPS = tuple(sorted(KIMBAP_APPS))

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="host-parallel execution needs POSIX fork"
)


def app_weighted(app: str) -> bool:
    return APP_WEIGHTED.get(app, False)


def random_graph(seed: int, weighted: bool = False):
    kind = seed % 3
    if kind == 0:
        return generators.erdos_renyi(40, 3.0, seed=seed, weighted=weighted)
    if kind == 1:
        return generators.road_like(6, 5, seed=seed, weighted=weighted)
    return generators.rmat(5, 4, seed=seed, weighted=weighted)


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def assert_jobs_equivalent(app, graph, hosts, jobs, bulk, **kwargs):
    serial = run_kimbap(
        app, "equiv", hosts, graph=graph, threads=4, bulk=bulk, **kwargs
    )
    parallel = run_kimbap(
        app, "equiv", hosts, graph=graph, threads=4, bulk=bulk, jobs=jobs, **kwargs
    )
    assert canonical(serial) == canonical(parallel), (
        f"{app} jobs={jobs} bulk={bulk}: RunResult.to_dict() diverged"
    )
    assert serial.values == parallel.values
    return serial, parallel


# ------------------------------------------------- all twelve applications


@needs_fork
@pytest.mark.parametrize("bulk", (False, True), ids=("scalar", "bulk"))
@pytest.mark.parametrize("app", APPS)
def test_every_app_identical_at_jobs2(app, bulk):
    graph = random_graph(3, weighted=app_weighted(app))
    assert_jobs_equivalent(app, graph, hosts=4, jobs=2, bulk=bulk)


@needs_fork
def test_jobs_beyond_hosts_degrades_to_available_shards():
    # jobs > num_hosts cannot shard finer than one host per process; the
    # pool clamps rather than erroring, and identity still holds.
    graph = random_graph(1)
    assert_jobs_equivalent("CC-SV", graph, hosts=2, jobs=4, bulk=False)


# ------------------------------------------------------- hypothesis sweep


@needs_fork
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=200),
    jobs=st.sampled_from((1, 2, 4)),
    bulk=st.booleans(),
)
def test_sweep_random_graphs_jobs_times_backend(seed, jobs, bulk):
    # Rotate through cheap, structurally distinct apps; the full registry
    # is covered by the deterministic jobs=2 matrix above.
    app = ("PR", "CC-SV", "BFS", "MIS", "K-CORE")[seed % 5]
    graph = random_graph(seed, weighted=app_weighted(app))
    assert_jobs_equivalent(app, graph, hosts=4, jobs=jobs, bulk=bulk)


# -------------------------------------------- fault recovery under jobs=2


@needs_fork
@pytest.mark.parametrize("app", ("PR", "CC-LP"))
def test_crash_mid_round_recovery_equivalence(app):
    """A host crash + checkpoint recovery replays identically on every
    process: the faulted parallel run matches the faulted serial run byte
    for byte, including the structured faults report."""
    graph = random_graph(3)
    plan = FaultPlan(
        name="crash@2",
        checkpoint_interval=2,
        crashes=(HostCrash(host=1, round=2),),
    )
    serial, parallel = assert_jobs_equivalent(
        app, graph, hosts=4, jobs=2, bulk=False, fault_plan=plan
    )
    assert serial.faults == parallel.faults
    assert serial.faults["recoveries"] >= 1


# ------------------------------------------ one fork per sharded run (jobs=N)


@needs_fork
@pytest.mark.parametrize("bulk", (False, True), ids=("scalar", "bulk"))
@pytest.mark.parametrize("app", ("CC-SV", "MSF"))
def test_repeated_runs_fork_once_each_and_leave_no_segments(monkeypatch, app, bulk):
    """CC-SV and MSF run the same plans again and again through one
    executor. Every sharded run is one fork from the coordinator's current
    state, and its ``end_run`` leaves no worker process behind."""
    left_behind = []  # one entry per sharded run: only those reach end_run
    end_run = HostShardPool.end_run

    def checking_end_run(pool, failed):
        end_run(pool, failed)
        left_behind.append(
            [
                child.name
                for child in multiprocessing.active_children()
                if child.name.startswith("repro-host-shard-")
            ]
        )

    monkeypatch.setattr(HostShardPool, "end_run", checking_end_run)
    graph = random_graph(11, weighted=app_weighted(app))
    serial, parallel = assert_jobs_equivalent(app, graph, hosts=4, jobs=2, bulk=bulk)
    stats = parallel.parallel
    assert stats["forks"] == len(left_behind) > 2 and not any(left_behind)
    assert stats["bytes_exchanged"] > 0
    assert serial.parallel is None or serial.parallel["forks"] == 0


@needs_fork
def test_back_to_back_runs_are_deterministic():
    """Two pools over the same inputs produce the same bytes - the
    exchange protocol has no run-to-run nondeterminism."""
    graph = random_graph(12)
    first = run_kimbap("PR", "warm", 4, graph=graph, jobs=2, bulk=True)
    second = run_kimbap("PR", "warm", 4, graph=graph, jobs=2, bulk=True)
    assert canonical(first) == canonical(second)


# --------------------------------------- the coordinator's relay (jobs=3)


@needs_fork
@pytest.mark.parametrize("fault", ("fault-free", "crash-plan"))
@pytest.mark.parametrize(
    "app,bulk", (("PR", True), ("CC-SV", False)), ids=("PR-bulk", "CC-SV-scalar")
)
def test_coordinator_relays_worker_bundles_at_jobs3(app, bulk, fault):
    """``jobs=3`` on 4 hosts: two workers, so each receives the other's
    bundle only as bytes the coordinator forwards. The relayed effects
    reach every replica: the report matches ``jobs=1`` byte for byte,
    fault-free and under a modeled crash."""
    graph = random_graph(3, weighted=app_weighted(app))
    kwargs = {}
    if fault == "crash-plan":
        kwargs["fault_plan"] = FaultPlan(
            name="crash@2",
            checkpoint_interval=2,
            crashes=(HostCrash(host=1, round=2),),
        )
    serial = run_kimbap(app, "relay", 4, graph=graph, threads=4, bulk=bulk, **kwargs)
    parallel = run_kimbap(
        app, "relay", 4, graph=graph, threads=4, bulk=bulk, jobs=3, **kwargs
    )
    assert canonical(parallel) == canonical(serial)
    assert parallel.values == serial.values
    assert parallel.faults == serial.faults
