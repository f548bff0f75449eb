"""Memory census: the bytes the compiled kernels and the ingest steps hold.

Deterministic byte counts, no timing (DESIGN.md, "Why a compiled kernel
keeps one array per edge"):

* **Kernels.** Every compiled form is built, host by host, on
  ``powerlaw_like(scale=15, seed=7)`` under the Cartesian vertex cut at 4
  hosts. The arrays a host's round closure can reach - its cells, and the
  tables of its prepared fold - that hold one entry per edge of the
  host's iteration space are summed at the bytes they span (a broadcast
  view spans one item) and divided by the edges.
* **Fold tables.** A :class:`PreparedFold` keeps only its slot column of
  the batch; the batch it derives back must be the one it was built from,
  and a prepared reduce that takes the generic fallback through it must
  leave the state the direct call leaves.
* **Ingest.** tracemalloc peaks of generating the benchmark's power-law
  and road inputs and of partitioning them under every policy, as
  multiples of what they build.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core.reducers import MAX, MIN, SUM
from repro.core.reduction import PreparedFold, ThreadLocalReduction
from repro.eval.harness import run_kimbap
from repro.exec import codegen
from repro.graph import generators
from repro.partition import partition

HOSTS = 4
THREADS = 48


def _spanned(array: np.ndarray) -> int:
    """Bytes a 1-d array's elements span: a broadcast view spans one."""
    if array.size == 0:
        return 0
    return array.itemsize + (array.size - 1) * abs(array.strides[0])


def _edge_bytes(runner, edges: int) -> int:
    """Bytes of the edge-length arrays reachable from a round closure."""
    held: dict[int, int] = {}

    def visit(obj) -> None:
        if isinstance(obj, np.ndarray):
            if obj.ndim == 1 and obj.size == edges:
                held[id(obj)] = _spanned(obj)
        elif isinstance(obj, PreparedFold):
            for name in PreparedFold.__slots__:
                visit(getattr(obj, name))
        elif isinstance(obj, tuple):  # a strategy's bare (threads, keys) batch
            for item in obj:
                visit(item)

    for cell in runner.__closure__ or ():
        visit(cell.cell_contents)
    return sum(held.values())


class _Census:
    """Per compiled build: ``(form, op name, runner, edges, bytes at build)``."""

    def __init__(self, monkeypatch) -> None:
        self.builds: list[tuple[str, str, object, int, int]] = []
        for form, _ in codegen._SPECIALIZED_FORMS.values():
            monkeypatch.setattr(form, "_build", self._wrap(form._build))

    def _wrap(self, build):
        def census(kernel, cluster, part, host):
            runner = build(kernel, cluster, part, host)
            if runner is not codegen._noop:
                space = part.num_masters if kernel.space == "masters" else part.num_local
                edges = int(part.indptr[space])
                op = getattr(kernel.kernel, "op", None)
                held = _edge_bytes(runner, edges)
                self.builds.append(
                    (type(kernel).__name__, getattr(op, "name", ""), runner, edges, held)
                )
            return runner

        return census

    def per_edge(self, form: str, after_run: bool = False) -> list[float]:
        """Bytes per edge of each host's build of ``form``."""
        return [
            (_edge_bytes(runner, edges) if after_run else held) / edges
            for name, _, runner, edges, held in self.builds
            if name == form
        ]

    def forms(self) -> set[str]:
        return {name for name, *_ in self.builds}


@pytest.fixture(scope="module")
def inputs():
    graphs = {
        weighted: generators.powerlaw_like(scale=15, seed=7, weighted=weighted)
        for weighted in (False, True)
    }
    return {
        weighted: (graph, partition(graph, HOSTS, "cvc")) for weighted, graph in graphs.items()
    }


def _run(app: str, inputs, monkeypatch) -> _Census:
    census = _Census(monkeypatch)
    graph, pgraph = inputs[app == "SSSP"]
    run_kimbap(app, "powerlaw", HOSTS, threads=THREADS, graph=graph, pgraph=pgraph, bulk=True)
    return census


class TestKernelCensus:
    def test_a_sum_push_holds_its_slot_column_only(self, inputs, monkeypatch):
        """PageRank: every round is a full frontier, so the bound holds
        after the run too; its degree reduce and rebuild hold no edge array."""
        census = _run("PR", inputs, monkeypatch)
        assert census.forms() == {
            "PreparedFrontierPush", "SpecializedDegreeReduce", "SpecializedNodeUpdate",
        }
        for after_run in (False, True):
            per_edge = census.per_edge("PreparedFrontierPush", after_run)
            assert len(per_edge) == HOSTS
            assert max(per_edge) <= 8, per_edge
        assert census.per_edge("SpecializedDegreeReduce") == [0.0] * HOSTS
        assert census.per_edge("SpecializedNodeUpdate") == [0.0] * HOSTS

    def test_a_weighted_min_push_holds_its_slots_and_weights(self, inputs, monkeypatch):
        census = _run("SSSP", inputs, monkeypatch)
        assert {op for name, op, *_ in census.builds if name == "PreparedFrontierPush"} == {"min"}
        per_edge = census.per_edge("PreparedFrontierPush")
        assert len(per_edge) == HOSTS
        assert max(per_edge) <= 16, per_edge

    @pytest.mark.parametrize("app", ["BFS", "MIS"])
    def test_unit_weights_and_a_constant_push_are_broadcast(self, app, inputs, monkeypatch):
        """BFS adds unit weights, MIS pushes a constant: one value each,
        an 8-byte broadcast on top of the slot column, not a column."""
        census = _run(app, inputs, monkeypatch)
        pushes = [
            (held, edges) for name, _, _, edges, held in census.builds
            if name == "PreparedFrontierPush"
        ]
        assert len(pushes) >= HOSTS
        for held, edges in pushes:
            assert held <= 8 * edges + 8, held / edges

    def test_trans_vertex_forms(self, inputs, monkeypatch):
        """CC-SV: the neighbour vote holds its destination ids and a byte
        of thread id per edge; the pointer-jumping forms hold none."""
        census = _run("CC-SV", inputs, monkeypatch)
        assert {
            "SpecializedNeighborReduceToKey", "SpecializedKeyRequest", "SpecializedNodeGather",
        } <= census.forms()
        assert max(census.per_edge("SpecializedNeighborReduceToKey")) <= 9
        for form in ("SpecializedKeyRequest", "SpecializedNodeGather"):
            assert set(census.per_edge(form)) == {0.0}


batches = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 40)), max_size=60
).map(lambda pairs: sorted(pairs, key=lambda pair: pair[0]))


class TestPreparedFold:
    @given(batch=batches)
    @settings(max_examples=80, deadline=None)
    def test_derives_the_batch_it_was_built_from(self, batch):
        """Only the slot column is kept; ``batch()`` gives back the
        ``(threads, keys)`` it was built from, whole or at positions."""
        threads = np.array([t for t, _ in batch], dtype=np.int64)
        keys = np.array([k for _, k in batch], dtype=np.int64)
        plan = PreparedFold(threads, keys)
        assert plan.size == keys.size
        derived_threads, derived_keys = plan.batch()
        assert derived_threads.tolist() == threads.tolist()
        assert derived_keys.tolist() == keys.tolist()
        idx = np.arange(0, keys.size, 2)
        subset_threads, subset_keys = plan.batch(idx)
        assert subset_threads.tolist() == threads[idx].tolist()
        assert subset_keys.tolist() == keys[idx].tolist()

    @given(
        batch=batches.filter(bool),
        data=st.data(),
        op=st.sampled_from([SUM, MIN, MAX]),
    )
    @settings(max_examples=80, deadline=None)
    def test_the_fallback_over_dict_state_matches_the_direct_call(self, batch, data, op):
        """A prepared reduce issued over pending dict state (a scalar
        reduce came first) takes the generic path through the derived
        ``(threads, keys)``: the same state, charges and collect as the
        direct generic call."""
        threads = np.array([t for t, _ in batch], dtype=np.int64)
        keys = np.array([k for _, k in batch], dtype=np.int64)
        idx = np.array(
            sorted(data.draw(st.sets(st.integers(0, keys.size - 1), min_size=1))),
            dtype=np.int64,
        )
        values = np.array(
            data.draw(st.lists(st.floats(-4, 4, width=16), min_size=idx.size, max_size=idx.size))
        )
        prepared, direct = (
            ThreadLocalReduction(Cluster(1, threads_per_host=8), 0) for _ in range(2)
        )
        plan = prepared.prepare_bulk(threads, keys)
        with prepared.cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prepared.reduce(0, 3, 1.5, op)
            prepared.reduce_bulk_prepared(plan, values, op, idx)
        with direct.cluster.phase(PhaseKind.REDUCE_COMPUTE):
            direct.reduce(0, 3, 1.5, op)
            direct.reduce_bulk(threads[idx], keys[idx], values, op)
        assert repr(prepared.maps) == repr(direct.maps)
        collected = []
        for reduction in (prepared, direct):
            with reduction.cluster.phase(PhaseKind.REDUCE_SYNC):
                collected.append(reduction.collect_arrays(op))
        (got_keys, got), (want_keys, want) = collected
        assert got_keys.tobytes() == want_keys.tobytes()
        assert repr(got) == repr(want)
        assert (
            prepared.cluster.log.total_counters() == direct.cluster.log.total_counters()
        )


def _traced_peak(make):
    """``(result, peak traced bytes above the start)`` of one call."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start


def _nbytes(*arrays) -> int:
    return sum(array.nbytes for array in arrays if array is not None)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: generators.powerlaw_like(scale=15, seed=7), id="powerlaw_like-15"),
        pytest.param(lambda: generators.road_like(3072, 16), id="road_like-3072x16"),
    ],
)
def test_ingest_peaks_stay_within_budget(make):
    """Generating a graph peaks at no more than 5x its bytes; every
    partitioning policy at no more than 2.5x the graph plus its partition."""
    graph, generate_peak = _traced_peak(make)
    graph_bytes = _nbytes(graph.indptr, graph.indices, graph.weights)
    assert generate_peak <= 5 * graph_bytes, generate_peak / graph_bytes
    for policy in ("cvc", "oec", "iec", "hvc"):
        pgraph, partition_peak = _traced_peak(lambda: partition(graph, HOSTS, policy))
        held = graph_bytes + _nbytes(pgraph.owner) + sum(
            _nbytes(part.local_to_global, part.indptr, part.indices, part.weights)
            for part in pgraph.parts
        )
        assert partition_peak <= 2.5 * held, (policy, partition_peak / held)
