"""The bulk execution path's building blocks against their scalar
definitions: closed-form thread dealing, bulk bitset sets, reduction folds,
the memory accounting's running totals and the kv snapshot scan. The
whole-run byte-identity of bulk against scalar is a column of the
conformance table (``tests/test_conformance.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.cluster import SimulatedOutOfMemory, static_thread
from repro.cluster.metrics import PhaseKind
from repro.core.bitset import ConcurrentBitset
from repro.core.reducers import MIN, SUM
from repro.core.reduction import SharedMapReduction, ThreadLocalReduction
from repro.core.variants import RuntimeVariant
from repro.eval.harness import run_kimbap
from repro.graph import generators


class TestThreadDealing:
    """The closed-form chunk bounds equal OpenMP-static dealing per item."""

    @given(
        total=st.integers(0, 500),
        threads=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_threads_of_matches_static_thread(self, total, threads):
        cluster = Cluster(1, threads_per_host=threads)
        dealt = cluster.threads_of(total)
        assert dealt.shape == (total,)
        expected = [static_thread(i, total, threads) for i in range(total)]
        assert dealt.tolist() == expected

    @given(total=st.integers(0, 500), threads=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_boundaries_partition_the_range(self, total, threads):
        cluster = Cluster(1, threads_per_host=threads)
        bounds = cluster.thread_boundaries(total)
        assert bounds[0] == 0 and bounds[-1] == total
        assert (np.diff(bounds) >= 0).all()


class TestBitsetBulk:
    @given(
        size=st.integers(1, 64),
        batches=st.lists(
            st.lists(st.integers(0, 63), max_size=30), max_size=5
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_set_many_matches_sequential_set(self, size, batches):
        batches = [[i % size for i in batch] for batch in batches]
        bulk = ConcurrentBitset(size)
        scalar = ConcurrentBitset(size)
        for batch in batches:
            newly = bulk.set_many(np.asarray(batch, dtype=np.int64))
            expected = [scalar.set(i) for i in batch]
            assert newly.tolist() == expected
        assert bulk.nonzero().tolist() == scalar.nonzero().tolist()


class TestReductionBulk:
    """reduce_bulk folds and charges exactly like the scalar sequence."""

    @given(
        items=st.lists(
            st.tuples(st.integers(0, 20), st.integers(-50, 50)), max_size=60
        ),
        threads=st.integers(1, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_thread_local_fold(self, items, threads):
        def dealt(cluster):
            total = len(items)
            return [cluster.thread_of(i, total) for i in range(total)]

        scalar_cluster = Cluster(1, threads_per_host=threads)
        scalar = ThreadLocalReduction(scalar_cluster, 0)
        with scalar_cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for thread, (key, value) in zip(dealt(scalar_cluster), items):
                scalar.reduce(thread, key, value, SUM)
        with scalar_cluster.phase(PhaseKind.REDUCE_SYNC):
            scalar_combined = scalar.collect(SUM)

        bulk_cluster = Cluster(1, threads_per_host=threads)
        bulk = ThreadLocalReduction(bulk_cluster, 0)
        with bulk_cluster.phase(PhaseKind.REDUCE_COMPUTE):
            bulk.reduce_bulk(
                np.asarray(dealt(bulk_cluster), dtype=np.int64),
                np.asarray([k for k, _ in items], dtype=np.int64),
                np.asarray([v for _, v in items], dtype=np.int64),
                SUM,
            )
        with bulk_cluster.phase(PhaseKind.REDUCE_SYNC):
            keys, values = bulk.collect_arrays(SUM)

        assert dict(zip(keys.tolist(), values.tolist())) == scalar_combined
        assert (
            scalar_cluster.log.total_counters().as_dict()
            == bulk_cluster.log.total_counters().as_dict()
        )

    @given(
        items=st.lists(
            st.tuples(st.integers(0, 12), st.integers(-50, 50)), max_size=50
        ),
        threads=st.integers(1, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_shared_map_conflicts(self, items, threads):
        def dealt(cluster):
            total = len(items)
            return [cluster.thread_of(i, total) for i in range(total)]

        scalar_cluster = Cluster(1, threads_per_host=threads)
        scalar = SharedMapReduction(scalar_cluster, 0)
        with scalar_cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for thread, (key, value) in zip(dealt(scalar_cluster), items):
                scalar.reduce(thread, key, value, MIN)
        scalar_combined = scalar.collect(MIN)

        bulk_cluster = Cluster(1, threads_per_host=threads)
        bulk = SharedMapReduction(bulk_cluster, 0)
        with bulk_cluster.phase(PhaseKind.REDUCE_COMPUTE):
            bulk.reduce_bulk(
                np.asarray(dealt(bulk_cluster), dtype=np.int64),
                np.asarray([k for k, _ in items], dtype=np.int64),
                np.asarray([v for _, v in items], dtype=np.int64),
                MIN,
            )
        keys, values = bulk.collect_arrays(MIN)

        assert dict(zip(keys.tolist(), values.tolist())) == scalar_combined
        assert (
            scalar_cluster.log.total_counters().as_dict()
            == bulk_cluster.log.total_counters().as_dict()
        ), "conflict arithmetic must match the scalar CAS sequence"


class TestMemoryAccountingTotals:
    """The O(1) per-host running totals (no per-report live-owner sum)."""

    def test_peak_tracks_running_totals(self):
        cluster = Cluster(2)
        cluster.track_memory(0, "a", 100)
        cluster.track_memory(0, "b", 50)
        cluster.track_memory(0, "a", 30)  # shrink: total 80, peak stays 150
        assert cluster.peak_memory_slots[0] == 150
        cluster.track_memory(1, "a", 10)
        assert cluster.peak_memory_slots[1] == 10

    def test_release_then_regrow(self):
        cluster = Cluster(1)
        cluster.track_memory(0, "a", 40)
        cluster.track_memory(0, "b", 10)
        cluster.release_memory("a")
        cluster.track_memory(0, "c", 20)  # total 30 < peak 50
        assert cluster.peak_memory_slots[0] == 50
        cluster.track_memory(0, "c", 45)  # total 55: new peak
        assert cluster.peak_memory_slots[0] == 55

    def test_totals_match_live_slot_sum(self):
        cluster = Cluster(3)
        sequence = [
            (0, "a", 5), (1, "a", 7), (0, "b", 3), (0, "a", 0),
            (2, "c", 9), (1, "a", 2), (0, "b", 8),
        ]
        for host, owner, slots in sequence:
            cluster.track_memory(host, owner, slots)
        cluster.release_memory("a")
        for host in range(3):
            expected = sum(
                s for (h, _), s in cluster._live_slots.items() if h == host
            )
            assert cluster._host_slot_totals[host] == expected

    def test_oom_still_raises(self):
        cluster = Cluster(1, memory_limit_slots=100)
        cluster.track_memory(0, "a", 60)
        with pytest.raises(SimulatedOutOfMemory):
            cluster.track_memory(0, "b", 41)


class TestKvSnapshotScan:
    """kv snapshot() reads shards by prefix scan, not per-id probing."""

    def test_scan_prefix_filters(self):
        from repro.kvstore.store import KvServer

        server = KvServer(server_id=0)
        server.set("npm:a:1", 10)
        server.set("npm:a:2", 20)
        server.set("npm:ab:3", 30)
        server.set("other", 40)
        found = dict(server.scan_prefix("npm:a:"))
        assert found == {"npm:a:1": 10, "npm:a:2": 20}

    def test_mc_snapshot_values(self):
        from repro.partition import partition

        graph = generators.erdos_renyi(30, 3.0, seed=4)
        result = run_kimbap(
            "CC-LP", "kv", 3, variant=RuntimeVariant.MC, graph=graph
        )
        assert set(result.values) == set(range(graph.num_nodes))

    def test_prefix_collision_between_map_names(self):
        """A map named ``x:9`` shards under ``npm:x:9:...``, which shares
        the ``npm:x:`` prefix; the integer-suffix filter must skip it."""
        from repro.cluster import Cluster as C
        from repro.core.propmap import NodePropMap
        from repro.partition import partition

        graph = generators.erdos_renyi(12, 2.0, seed=1)
        cluster = C(2)
        pgraph = partition(graph, 2, "cvc")
        outer = NodePropMap(cluster, pgraph, "x", variant=RuntimeVariant.MC)
        inner = NodePropMap(cluster, pgraph, "x:9", variant=RuntimeVariant.MC)
        outer.set_initial(lambda node: node)
        inner.set_initial(lambda node: node * 100)
        values = outer.snapshot()
        assert values == {node: node for node in range(graph.num_nodes)}
