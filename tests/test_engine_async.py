"""The execution-engine layer: BSP extraction and the async engine.

* ``BSPEngine`` is a pure extraction of the historical drive loop, so
  runs through it must be **byte-identical** to the default path.
* ``AsyncEngine`` replaces the schedule entirely (priority/delta, no
  global barrier), so it is held to **value equivalence** against the
  BSP oracle: exact for the monotone label-correcting apps (CC-LP, BFS),
  within the declared residual tolerance for SSSP and delta-PR, on all
  four partitioning policies; the conformance table
  (``tests/test_conformance.py``) carries the contract and the refusals
  across the other axes. Its *own* bytes are pinned too: the async pin
  table (``tests/pins.py``) holds the report digest, ``last_updates`` and
  ``last_chunks`` of every {app} x {road, powerlaw} x {chunk size} x
  {policy} cell as recorded before the chunk loop moved to per-chunk
  tallied accounting, plus the final values (``float.hex()``, or exact
  ints) of a custom ``MIN`` plan seeded with NaN, both zeros, ``inf`` and
  int labels, as recorded before the relax loop inlined its ``MIN`` test,
  and with int labels under float weights or spanning +-2**62, as
  recorded before the heap keyed its entries by one int. A model test
  drives the heap against a tuple heap. Counting tests keep the metering
  calls O(chunks), never O(updates), and the reducer out of the relax
  loop.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms.cc_lp import cc_lp_plan
from repro.algorithms.common import AlgorithmResult
from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.cluster.network import Network
from repro.core.propmap import NodePropMap
from repro.core.reducers import MAX, MIN, SUM, ReduceOp
from repro.core.variants import RuntimeVariant
from repro.eval.harness import KIMBAP_APPS, _finish, run_kimbap
from repro.exec import (
    ActiveFilter,
    AsyncEngine,
    EdgePush,
    Executor,
    Operator,
    OperatorStep,
    Plan,
    ResidualDecl,
    SyncStep,
    UnsupportedPlanError,
    make_engine,
)
from repro.exec.engine import _ChunkSchedule
from repro.faults import named_plan
from repro.graph import generators
from repro.partition import POLICIES, partition
from repro.verify import check_equivalent_values
from tests.conftest import canonical
from tests.pins import ASYNC_REPORTS, PinTable, sha256_json

# Async value-equivalence tolerance vs the BSP oracle, per app.
TOLERANCE = {"PR": 1e-6, "SSSP": 1e-9, "CC-LP": 0.0, "BFS": 0.0}
ASYNC_APPS = sorted(TOLERANCE)  # the residual-declared plans


def _run(app: str, policy: str, engine: str):
    # Weighted for SSSP (its plan folds edge weights); road-like keeps the
    # diameter high enough that scheduling order actually matters.
    pgraph = partition(generators.road_like(5, 4, seed=3, weighted=True), 3, policy)
    cluster = Cluster(3, threads_per_host=4)
    executor = Executor(cluster, engine=engine)
    try:
        result = KIMBAP_APPS[app](cluster, pgraph, executor=executor)
    finally:
        executor.close()
    return result, executor.engine


def _small(app: str = "CC-LP", **arguments):
    graph = generators.road_like(4, 3, seed=1, weighted=True)
    return run_kimbap(app, "road", 2, graph=graph, **arguments)


def assert_async_refuses(app: str, fragment: str, **arguments):
    """Every refusal fails the same way: ``UnsupportedPlanError`` itself,
    whether the executor or the engine is the one refusing."""
    with pytest.raises(UnsupportedPlanError, match=fragment) as refusal:
        _small(app, engine="async", **arguments)
    assert type(refusal.value) is UnsupportedPlanError


class TestAsyncValueEquivalence:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("app", ASYNC_APPS)
    def test_matches_bsp_oracle_on_every_policy(self, app, policy):
        oracle, _ = _run(app, policy, "bsp")
        result, engine = _run(app, policy, "async")
        check_equivalent_values(oracle.values, result.values, TOLERANCE[app])
        assert engine.name == "async" and engine.last_updates > 0

    @pytest.mark.parametrize("app", ASYNC_APPS)
    def test_deterministic_for_fixed_seed(self, app):
        (first, a), (second, b) = (_run(app, "cvc", "async") for _ in range(2))
        assert first.values == second.values
        assert (a.last_updates, a.last_chunks) == (b.last_updates, b.last_chunks)

    def test_pagerank_error_bounded_by_declared_tolerance(self):
        oracle, _ = _run("PR", "hvc", "bsp")
        result, _ = _run("PR", "hvc", "async")
        worst = max(abs(oracle.values[node] - result.values[node]) for node in oracle.values)
        assert worst <= TOLERANCE["PR"]
        assert math.isclose(sum(result.values.values()), 1.0, abs_tol=1e-6)


class TestBSPByteIdentity:
    def test_explicit_bsp_engine_is_byte_identical_to_default(self):
        assert canonical(_small()) == canonical(_small(engine="bsp"))

    def test_engine_key_serialized_only_when_not_bsp(self):
        bsp, asynchronous = _small(engine="bsp"), _small(engine="async")
        assert "engine" not in bsp.to_dict()
        assert asynchronous.to_dict()["engine"] == "async"
        assert asynchronous.async_stats["updates"] > 0
        assert asynchronous.async_stats["chunks"] > 0
        check_equivalent_values(bsp.values, asynchronous.values)


class TestEngineSelection:
    def test_make_engine_rejects_unknown_names(self):
        cluster = Cluster(2, threads_per_host=2)
        executor = Executor(cluster)
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine(executor, "speculative")

    def test_async_refuses_parallel_jobs(self):
        """The async chunk schedule is inherently sequential across hosts
        (owner-serialized apply order); the pool replays BSP rounds."""
        assert_async_refuses("CC-LP", "jobs", jobs=2)


class TestUnsupportedPlans:
    def test_plan_without_residual_declaration(self):
        """Apps whose kernels declare no residual cannot run async."""
        assert_async_refuses("CC-SV", "residual")

    def test_trans_vertex_forms_do_not_make_a_plan_async_eligible(self):
        """CC-SCLP's round holds an EdgePush next to KeyRequest/NodeGather:
        still no residual declared, still refused."""
        assert_async_refuses("CC-SCLP", "residual")

    def test_fault_injection_is_refused(self):
        plan = named_plan("crash", seed=0, hosts=2, crash_round=1, checkpoint_interval=2)
        assert_async_refuses("CC-LP", "fault", fault_plan=plan)

    def test_non_gar_variants_are_refused(self):
        """The async engine writes owner values straight through the GAR
        bulk path; the kvstore (MC) variant has no such surface."""
        assert_async_refuses("CC-LP", "GAR", variant=RuntimeVariant.MC)

    @pytest.mark.parametrize("op", [MAX, SUM], ids=lambda op: op.name)
    def test_monotone_plans_reduce_with_min_only(self, op):
        """The relax loop applies ``MIN`` inline, so a monotone plan with
        any other reducer is refused before the first pop."""
        with pytest.raises(UnsupportedPlanError, match=f"'{op.name}'") as refusal:
            _edge_run("float", 64, op=op)
        assert type(refusal.value) is UnsupportedPlanError


# ------------------------------------------------------- the byte contract

PIN_HOSTS = 4
PIN_GRAPHS = {
    "road": lambda weighted: generators.road_like(12, 6, seed=5, weighted=weighted),
    "powerlaw": lambda weighted: generators.powerlaw_like(6, seed=3, weighted=weighted),
}
PIN_CELLS = [
    (app, family, chunk_size, policy)
    for app in ASYNC_APPS
    for family in sorted(PIN_GRAPHS)
    for chunk_size in (1, 7, 64)
    for policy in ("oec", "cvc")
]


def _async_run(app: str, family: str, chunk_size: int, policy: str):
    """One async run the way ``run_kimbap`` assembles it, at a chosen
    chunk size; returns the ``RunResult`` and the engine."""
    graph = PIN_GRAPHS[family](app == "SSSP")
    pgraph = partition(graph, PIN_HOSTS, policy)
    cluster = Cluster(PIN_HOSTS, threads_per_host=8)
    executor = Executor(cluster)
    executor.engine = AsyncEngine(executor, chunk_size=chunk_size)
    try:
        result = KIMBAP_APPS[app](cluster, pgraph, executor=executor)
    finally:
        executor.close()
    run = _finish("Kimbap", app, family, PIN_HOSTS, cluster, result)
    run.engine = executor.engine.name
    return run, executor.engine


def _pin(app: str, family: str, chunk_size: int, policy: str) -> dict:
    run, engine = _async_run(app, family, chunk_size, policy)
    return {
        "report_sha256": sha256_json(run.to_dict()),
        "values_sha256": sha256_json(sorted(run.values.items())),
        "last_updates": engine.last_updates,
        "last_chunks": engine.last_chunks,
    }


def _pin_key(app: str, family: str, chunk_size: int, policy: str) -> str:
    return f"{app}/{family}/chunk{chunk_size}/{policy}"


# A custom monotone MIN plan seeded with the values where "apply the
# candidate when it is smaller" could part from ``min``: NaN (nothing is
# smaller, yet MIN re-applies it), both signed zeros (equal, so neither
# replaces the other), +inf, and int labels (exact integer compares).
EDGE_SEEDS = {
    "float": [math.nan, -0.0, 0.0, math.inf, 7.0, 3.5, -0.0, math.nan, 0.0],
    "float-weighted": [math.inf, math.nan, 0.0, -0.0, math.inf, 2.25, math.nan],
    "int": [(node * 7) % 11 - 5 for node in range(11)],
    # Float weights added to int labels: float candidates, so float gains,
    # flow into an int column.
    "int-weighted": [(node * 5) % 9 - 4 for node in range(9)],
    # Labels spanning +-2**62: gains above 2**53, distinct where a float
    # rounds them together.
    "int-wide": [(1 - 2 * (node % 2)) * (2**62 - 3 * node) for node in range(11)],
}
EDGE_CELLS = [(seeding, chunk_size) for seeding in sorted(EDGE_SEEDS) for chunk_size in (1, 64)]


def _edge_plan(pgraph, target: NodePropMap, seeding: str, op: ReduceOp) -> Plan:
    push = EdgePush(
        target=target,
        op=op,
        source=target,
        require_active=ActiveFilter(target),
        charge_per_source=1,
        with_weight="add" if seeding.endswith("-weighted") else None,
        edge_filter=(lambda src, dst: (src + dst) % 3 != 0) if seeding == "int" else None,
        residual=ResidualDecl(mode="monotone"),
    )
    return Plan(
        name="edge_min",
        pgraph=pgraph,
        steps=[
            OperatorStep(Operator("edge_min", "all", push)),
            SyncStep(target, "reduce"),
            SyncStep(target, "broadcast"),
        ],
        quiesce=(target,),
    )


def _edge_run(seeding: str, chunk_size: int, op: ReduceOp = MIN):
    seeds = EDGE_SEEDS[seeding]
    pgraph = partition(generators.road_like(6, 4, seed=5, weighted=True), PIN_HOSTS, "cvc")
    cluster = Cluster(PIN_HOSTS, threads_per_host=8)
    executor = Executor(cluster)
    executor.engine = AsyncEngine(executor, chunk_size=chunk_size)
    target = NodePropMap(cluster, pgraph, "edge_value")
    executor.init_map(target, lambda nodes: np.asarray([seeds[n % len(seeds)] for n in nodes]))
    target.pin_mirrors(invariant="none")
    try:
        rounds = executor.run(_edge_plan(pgraph, target, seeding, op))
    finally:
        executor.close()
    target.unpin_mirrors()
    values = target.snapshot()
    result = AlgorithmResult(name="EDGE-MIN", values=values, rounds=rounds)
    run = _finish("Kimbap", "EDGE-MIN", "road", PIN_HOSTS, cluster, result)
    run.engine = executor.engine.name
    return run, executor.engine


def _edge_pin(seeding: str, chunk_size: int) -> dict:
    run, engine = _edge_run(seeding, chunk_size)
    exact = int if seeding.startswith("int") else lambda value: float(value).hex()
    return {
        "report_sha256": sha256_json(run.to_dict()),
        "values": [exact(run.values[node]) for node in sorted(run.values)],
        "last_updates": engine.last_updates,
        "last_chunks": engine.last_chunks,
    }


def _edge_key(seeding: str, chunk_size: int) -> str:
    return f"EDGE-MIN/{seeding}/chunk{chunk_size}/cvc"


# A cell's arguments start with the function that computes it.
PINS = PinTable(
    ASYNC_REPORTS,
    {
        **{_pin_key(*cell): (_pin, *cell) for cell in PIN_CELLS},
        **{_edge_key(*cell): (_edge_pin, *cell) for cell in EDGE_CELLS},
    },
    lambda pin, *cell: pin(*cell),
)


class TestAsyncReportsArePinned:
    """``RunResult.to_dict()`` of an async run is a byte contract: the
    schedule (pop order, owner-serialized applies, lazy deletion, the
    mid-chunk re-push) and every counter and message it meters."""

    @pytest.mark.parametrize("app,family,chunk_size,policy", PIN_CELLS)
    def test_report_matches_the_recorded_digest(self, app, family, chunk_size, policy):
        PINS.check(_pin_key(app, family, chunk_size, policy))

    @pytest.mark.parametrize("seeding,chunk_size", EDGE_CELLS)
    def test_min_edge_cases_match_the_recorded_values(self, seeding, chunk_size):
        PINS.check(_edge_key(seeding, chunk_size))

    def test_the_table_covers_exactly_the_cells(self):
        PINS.check_coverage()


class TestAsyncMeteringIsPerChunk:
    """Structural twin of the codegen counting tests: the chunk loop
    tallies in local integers and flushes once per chunk, so the calls
    that reach the metering objects inside ``ASYNC_COMPUTE`` phases grow
    with chunks x hosts^2, never with updates or edge visits."""

    @pytest.mark.parametrize("app", ["CC-LP", "PR"])
    def test_metering_calls_are_bounded_by_chunks_not_updates(self, monkeypatch, app):
        calls = {"send": 0, "send_many": 0, "counters": 0}

        def counting(cls, name, open_phase):
            original = getattr(cls, name)

            def spy(self, *args, **kwargs):
                if getattr(self, open_phase).kind is PhaseKind.ASYNC_COMPUTE:
                    calls[name] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, spy)

        counting(Network, "send", "_phase")
        counting(Network, "send_many", "_phase")
        counting(Cluster, "counters", "_current")
        run, engine = _async_run(app, "road", 7, "cvc")
        chunks, hosts = engine.last_chunks, PIN_HOSTS
        # The bounds below have teeth: per-update calls would break them.
        assert engine.last_updates > 4 * chunks
        assert run.messages > chunks
        assert calls["send"] == 0
        assert 0 < calls["send_many"] <= chunks * hosts * (hosts - 1)
        assert calls["counters"] <= chunks * hosts
        assert calls["send_many"] + calls["counters"] < engine.last_updates


class TestRelaxLoopAppliesMinInline:
    def test_cc_lp_makes_no_reducer_calls(self, monkeypatch):
        """The relax loop compares ``candidate < old`` itself: a counting
        ``MIN`` sees no call, and the run is the pinned one."""
        calls = []

        def counting_min(left, right):
            calls.append(1)
            return min(left, right)

        # The package re-exports the function ``cc_lp`` over its module.
        module = importlib.import_module("repro.algorithms.cc_lp")
        monkeypatch.setattr(module, "MIN", ReduceOp("min", counting_min, ufunc=np.minimum))
        PINS.check(_pin_key("CC-LP", "road", 64, "cvc"))
        assert len(calls) == 0


class TestChunkOrder:
    def test_pop_returns_ascending_node_ids(self):
        """Ownership is blocked (the partition contract), so the (owner,
        node) apply order is ascending node id."""
        pgraph = partition(generators.road_like(6, 4, seed=5), 2, "oec")
        cluster = Cluster(2, threads_per_host=2)
        executor = Executor(cluster)
        engine = AsyncEngine(executor, chunk_size=9)
        label = NodePropMap(cluster, pgraph, "label")
        chunk = _ChunkSchedule(engine, cc_lp_plan(pgraph, label), "cc_lp", label)
        num_nodes = pgraph.num_nodes
        owner = pgraph.owner.tolist()
        # Distinct priorities, so every node is popped exactly once.
        chunk.schedule(num_nodes, [((node * 5) % num_nodes + 1.0, node) for node in range(num_nodes)])
        popped = []
        while chunk.heap:
            nodes = chunk.pop()
            assert len(nodes) <= 9
            assert nodes == sorted(nodes)
            assert nodes == sorted(nodes, key=lambda node: (owner[node], node))
            popped.append(nodes)
        assert sorted(node for nodes in popped for node in nodes) == list(range(num_nodes))
        # Teeth: some chunk spans both owners, so their order is observed.
        assert any(len({owner[node] for node in nodes}) == 2 for nodes in popped)
        executor.close()


@functools.lru_cache(maxsize=None)
def _bare_chunk() -> _ChunkSchedule:
    """A schedule to drive by hand: ``schedule`` resets every column it
    pops from, so one object serves every example."""
    pgraph = partition(generators.road_like(2, 2, seed=5), 1, "oec")
    cluster = Cluster(1, threads_per_host=1)
    executor = Executor(cluster)
    label = NodePropMap(cluster, pgraph, "label")
    chunk = _ChunkSchedule(AsyncEngine(executor), cc_lp_plan(pgraph, label), "cc_lp", label)
    executor.close()
    return chunk


_INT_GAINS = st.one_of(
    st.integers(1, 9), st.integers(2**64 - 9, 2**64 - 1), st.integers(1, 2**64 - 1)
)
_FLOAT_GAINS = st.one_of(
    st.sampled_from([5e-324, 1e-323, 2.2250738585072009e-308, 1.0, 1.5, math.inf]),
    st.floats(min_value=5e-324, max_value=2.2250738585072009e-308),  # subnormal
    st.floats(min_value=5e-324, allow_nan=False, allow_infinity=True),
)


@st.composite
def _streams(draw):
    """A schedule's life: seeds (``+inf`` ones, as the monotone mode seeds,
    and - float mode - never-live non-positive ones), then pushes and
    chunk pops. Gains come from a small pool, so ties, stale entries and a
    re-push at a priority an earlier entry still holds are common."""
    int_gains = draw(st.booleans())
    num_nodes = draw(st.integers(1, 9))
    pool = draw(st.lists(_INT_GAINS if int_gains else _FLOAT_GAINS, min_size=1, max_size=4))
    seed_gains = st.sampled_from([math.inf, *pool])
    if not int_gains:
        seed_gains = st.one_of(seed_gains, st.sampled_from([0.0, -0.0, -2.5]))
    seeded = draw(st.sets(st.integers(0, num_nodes - 1)))
    seeds = [(draw(seed_gains), node) for node in sorted(seeded)]
    ops = draw(
        st.lists(
            st.one_of(
                st.just(None),
                st.tuples(st.sampled_from(pool), st.integers(0, num_nodes - 1)),
            ),
            max_size=30,
        )
    )
    return int_gains, num_nodes, draw(st.integers(1, 4)), seeds, ops


def _tuple_pop(heap: list, priority: list, chunk_size: int) -> list[int]:
    """The reference chunk pop over ``(-priority, node)`` tuples."""
    nodes: list[int] = []
    while heap and len(nodes) < chunk_size:
        neg, node = heapq.heappop(heap)
        live = priority[node]
        if -neg == live and live > 0.0:
            priority[node] = 0.0
            nodes.append(node)
    return sorted(nodes)


class TestHeapKeysKeepTheTupleOrder:
    """``_ChunkSchedule`` keys each heap entry by one int ordered exactly as
    ``(-priority, node)``: driven against a tuple heap kept here, every
    chunk pops the same nodes and leaves the same priority column."""

    @settings(max_examples=300, deadline=None)
    @given(stream=_streams())
    # Gains a float rounds together: only the exact int rank tells them apart.
    @example(stream=(True, 2, 1, [], [((2**64 - 2), 0), ((2**64 - 1), 1), None, None]))
    # A tie across a chunk boundary, then a re-push at an earlier priority.
    @example(stream=(False, 3, 2, [(1.0, 2), (1.0, 0)], [(1.0, 1), None, (1.0, 0), None, None]))
    def test_every_chunk_pops_what_the_tuple_heap_pops(self, stream):
        int_gains, num_nodes, chunk_size, seeds, ops = stream
        chunk = _bare_chunk()
        chunk.chunk_size = chunk_size
        chunk.schedule(num_nodes, seeds, int_gains)
        priority = [0.0] * num_nodes
        for mass, node in seeds:
            priority[node] = mass
        reference = [(-mass, node) for mass, node in seeds]
        heapq.heapify(reference)
        for op in ops:
            if op is None:
                assert chunk.pop() == _tuple_pop(reference, priority, chunk_size)
            else:
                gain, node = op
                chunk.push(gain, node)
                priority[node] = gain
                heapq.heappush(reference, (-gain, node))
            assert chunk.priority == priority
        assert all(type(key) is int for key in chunk.heap)
        while reference:
            assert chunk.pop() == _tuple_pop(reference, priority, chunk_size)
        assert chunk.pop() == []
