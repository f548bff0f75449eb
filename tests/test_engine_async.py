"""The execution-engine layer: BSP extraction and the async engine.

* ``BSPEngine`` is a pure extraction of the historical drive loop, so
  runs through it must be **byte-identical** to the default path.
* ``AsyncEngine`` replaces the schedule entirely (priority/delta, no
  global barrier), so it is held to **value equivalence** against the
  BSP oracle: exact for the monotone label-correcting apps (CC-LP, BFS),
  within the declared residual tolerance for SSSP and delta-PR, on all
  four partitioning policies; the conformance table
  (``tests/test_conformance.py``) carries the contract and the refusals
  across the other axes. Its *own* bytes are pinned too:
  ``async_report_pins.json`` holds the report digest, ``last_updates`` and
  ``last_chunks`` of every {app} x {road, powerlaw} x {chunk size} x
  {policy} cell as recorded before the chunk loop moved to per-chunk
  tallied accounting (``python tests/test_engine_async.py`` re-records
  it), and a counting test keeps the metering calls O(chunks), never
  O(updates).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import pytest

from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.cluster.network import Network
from repro.core.variants import RuntimeVariant
from repro.eval.harness import KIMBAP_APPS, _finish, run_kimbap
from repro.exec import AsyncEngine, Executor, UnsupportedPlanError, make_engine
from repro.faults import named_plan
from repro.graph import generators
from repro.partition import POLICIES, partition
from repro.verify import check_equivalent_values
from tests.conftest import canonical

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


# ------------------------------------------------------- the byte contract

PINS_PATH = os.path.join(os.path.dirname(__file__), "async_report_pins.json")
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


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


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
        "report_sha256": _digest(run.to_dict()),
        "values_sha256": _digest(sorted(run.values.items())),
        "last_updates": engine.last_updates,
        "last_chunks": engine.last_chunks,
    }


def _pin_key(app: str, family: str, chunk_size: int, policy: str) -> str:
    return f"{app}/{family}/chunk{chunk_size}/{policy}"


class TestAsyncReportsArePinned:
    """``RunResult.to_dict()`` of an async run is a byte contract: the
    schedule (pop order, owner-serialized applies, lazy deletion, the
    mid-chunk re-push) and every counter and message it meters."""

    @pytest.mark.parametrize("app,family,chunk_size,policy", PIN_CELLS)
    def test_report_matches_the_recorded_digest(self, app, family, chunk_size, policy):
        with open(PINS_PATH, encoding="utf-8") as src:
            pins = json.load(src)
        assert _pin(app, family, chunk_size, policy) == pins[
            _pin_key(app, family, chunk_size, policy)
        ]

    def test_the_table_covers_exactly_the_cells(self):
        with open(PINS_PATH, encoding="utf-8") as src:
            assert sorted(json.load(src)) == sorted(_pin_key(*cell) for cell in PIN_CELLS)


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


if __name__ == "__main__":  # re-record the table: python tests/test_engine_async.py
    with open(PINS_PATH, "w", encoding="utf-8") as out:
        json.dump(
            {_pin_key(*cell): _pin(*cell) for cell in PIN_CELLS},
            out,
            indent=1,
            sort_keys=True,
        )
        out.write("\n")
