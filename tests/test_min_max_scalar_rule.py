"""Bulk MIN/MAX follow the scalar rule on NaN and on signed-zero ties.

``ReduceOp`` promises that a bulk fold equals the left fold of its ``fn``:
builtin ``min``/``max``, which keep the first operand. ``np.minimum`` /
``np.maximum`` instead propagate a NaN and keep the later of two tied
values, so a float batch holding a NaN, or a key that receives both
``+0.0`` and ``-0.0``, takes the per-item rule. Three repros of the bug
and a property of bulk against per-item reduces, compared bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.sssp import UNREACHED, sssp_plan
from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core.propmap import NodePropMap
from repro.core.reducers import MAX, MIN
from repro.exec import Executor
from repro.graph import generators
from repro.partition import partition


def _bits(values: dict) -> dict:
    return {key: float(value).hex() for key, value in values.items()}


def _one_host_map():
    pgraph = partition(generators.road_like(6, 2, seed=1, weighted=True), 1, "cvc")
    cluster = Cluster(1, threads_per_host=1)
    prop = NodePropMap(cluster, pgraph, "m")
    prop.set_initial_bulk(lambda nodes: np.full(nodes.size, 100.0))
    with cluster.phase(PhaseKind.INIT):
        prop.set(0, 3, 7.0)
    return cluster, prop


@pytest.mark.parametrize(
    "batch, want",
    [([0.0, -0.0], 0.0), ([5.0, math.nan], 5.0)],
    ids=["signed-zero-tie", "nan-operand"],
)
def test_one_reduce_phase_on_master_3(batch, want):
    # Master 3 holds 7.0; one reduce-compute phase folds ``batch`` onto
    # it. Before the fix the bulk map snapshot -0.0 and 7.0.
    snapshots = []
    for bulk in (False, True):
        cluster, prop = _one_host_map()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            if bulk:
                prop.reduce_bulk(
                    0, np.zeros(len(batch), dtype=np.int64),
                    np.full(len(batch), 3), np.array(batch), MIN,
                )
            else:
                for value in batch:
                    prop.reduce(0, 0, 3, value, MIN)
        prop.reduce_sync()
        snapshots.append(float(prop.snapshot()[3]).hex())
    assert snapshots == [float(want).hex()] * 2


def test_bulk_sssp_from_a_nan_node_quiesces_like_the_scalar_oracle():
    # Node 5 starts at NaN. Before the fix np.minimum spread the NaN and
    # the bulk run raised NonQuiescenceError after 100,000 rounds.
    graph = generators.road_like(6, 2, seed=1, weighted=True)
    pgraph = partition(graph, 2, "cvc")
    outcomes = []
    for bulk in (False, True):
        cluster = Cluster(2, threads_per_host=2)
        executor = Executor(cluster, bulk=bulk)
        dist = NodePropMap(cluster, pgraph, "d")
        executor.init_map(
            dist,
            lambda nodes: np.where(nodes == 0, 0.0, np.where(nodes == 5, np.nan, UNREACHED)),
        )
        rounds = executor.run(sssp_plan(pgraph, dist))
        executor.close()
        outcomes.append((rounds, _bits(dist.snapshot()), cluster.log.total_counters()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 6


SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -1.5, 2.0]
GRAPH = generators.road_like(4, 3, seed=0)
HOSTS = 2
THREADS = 3


@st.composite
def _batches(draw):
    """Per host a batch - threads non-decreasing, keys any node - of
    floats full of NaNs, both zeros and infinities, plus the initial
    master values and an ascending subset of each batch's positions."""
    initial = draw(st.lists(st.sampled_from(SPECIAL), min_size=12, max_size=12))
    batches = []
    for _ in range(HOSTS):
        count = draw(st.integers(0, 24))
        threads = sorted(draw(st.lists(st.integers(0, THREADS - 1), min_size=count, max_size=count)))
        # Mostly a few hot keys, so ties of the two zeros meet on a key.
        keys = draw(st.lists(
            st.integers(0, 2) | st.integers(0, 11), min_size=count, max_size=count
        ))
        values = draw(st.lists(st.sampled_from(SPECIAL), min_size=count, max_size=count))
        picked = draw(st.lists(st.booleans(), min_size=count, max_size=count))
        batches.append((threads, keys, values, picked))
    return initial, batches


def _run(initial, batches, op, route):
    pgraph = partition(GRAPH, HOSTS, "cvc")
    cluster = Cluster(HOSTS, threads_per_host=THREADS)
    prop = NodePropMap(cluster, pgraph, "p")
    prop.set_initial_bulk(lambda nodes: np.asarray(initial)[nodes])
    with cluster.phase(PhaseKind.REDUCE_COMPUTE):
        for host, (threads, keys, values, picked) in enumerate(batches):
            threads = np.asarray(threads, dtype=np.int64)
            keys = np.asarray(keys, dtype=np.int64)
            values = np.asarray(values, dtype=np.float64)
            idx = np.flatnonzero(picked) if route == "prepared-subset" else None
            if route == "scalar":
                for thread, key, value in zip(threads.tolist(), keys.tolist(), values.tolist()):
                    prop.reduce(host, thread, key, value, op)
            elif route == "scalar-subset":
                for position in np.flatnonzero(picked).tolist():
                    prop.reduce(host, int(threads[position]), int(keys[position]),
                                float(values[position]), op)
            elif route == "bulk":
                prop.reduce_bulk(host, threads, keys, values, op)
            else:
                prepared = prop.prepare_reduce_bulk(host, threads, keys)
                prop.reduce_bulk_prepared(
                    host, prepared, values if idx is None else values[idx], op, idx
                )
    pending = prop.pending_reductions()
    prop.reduce_sync()
    return (
        pending,
        _bits(prop.snapshot()),
        prop.is_updated(),
        [mask.tobytes() for mask in prop._updated_masters],
        cluster.log.total_counters(),
        cluster.peak_memory_slots,
    )


@pytest.mark.parametrize("op", [MIN, MAX], ids=lambda op: op.name)
@settings(max_examples=150, deadline=None)
@given(case=_batches())
def test_bulk_equals_per_item_bit_for_bit(op, case):
    initial, batches = case
    with np.errstate(invalid="ignore"):  # NaN operands of minimum / maximum
        want = _run(initial, batches, op, "scalar")
        assert _run(initial, batches, op, "bulk") == want
        assert _run(initial, batches, op, "prepared-full") == want
        assert _run(initial, batches, op, "prepared-subset") == _run(
            initial, batches, op, "scalar-subset"
        )
