"""Edge cases and failure injection across the stack."""

from __future__ import annotations

import math

import pytest

from repro import verify
from repro.algorithms import bfs, cc_lp, cc_sv, k_core, mis, pagerank
from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core import MIN, NodePropMap
from repro.graph import Graph, generators
from repro.partition import POLICIES, partition


class TestMoreHostsThanNodes:
    """Over-decomposition must degrade gracefully: empty partitions exist,
    answers stay exact."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_partition_keeps_all_hosts(self, policy):
        graph = generators.path(3)
        pgraph = partition(graph, 8, policy)
        assert pgraph.num_hosts == 8
        total_masters = sum(p.num_masters for p in pgraph.parts)
        assert total_masters == 3

    def test_cc_sv_still_correct(self):
        graph = generators.path(3)
        result = cc_sv(Cluster(8, threads_per_host=2), partition(graph, 8, "cvc"))
        verify.check_components(graph, result.values)

    def test_single_node_many_hosts(self):
        graph = Graph.from_edge_list(1, [])
        result = cc_lp(Cluster(4, threads_per_host=2), partition(graph, 4, "oec"))
        assert result.values == {0: 0}

    def test_mis_on_overdecomposed_graph(self):
        graph = generators.cycle(5)
        result = mis(Cluster(7, threads_per_host=2), partition(graph, 7, "cvc"))
        verify.check_independent_set(graph, result.values)


class TestPropMapMisuse:
    def make(self):
        graph = generators.path(4)
        pgraph = partition(graph, 2, "oec")
        cluster = Cluster(2, threads_per_host=2)
        return cluster, NodePropMap(cluster, pgraph, "m")

    def test_out_of_range_reduce_rejected(self):
        cluster, prop = self.make()
        prop.set_initial(lambda node: node)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            with pytest.raises(KeyError):
                prop.reduce(0, 0, 99, 1, MIN)
            with pytest.raises(KeyError):
                prop.reduce(0, 0, -1, 1, MIN)

    def test_read_before_initialization_raises(self):
        cluster, prop = self.make()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            with pytest.raises(KeyError):
                prop.read(0, 0)

    def test_double_pin_is_idempotent(self):
        cluster, prop = self.make()
        prop.set_initial(lambda node: node)
        prop.pin_mirrors()
        prop.pin_mirrors()
        assert prop.pinned
        prop.unpin_mirrors()
        assert not prop.pinned

    def test_unpin_without_pin_is_noop(self):
        cluster, prop = self.make()
        prop.unpin_mirrors()
        assert not prop.pinned

    def test_broadcast_unpinned_is_free(self):
        cluster, prop = self.make()
        prop.set_initial(lambda node: node)
        cluster.reset()
        prop.broadcast_sync()
        assert cluster.log.phases == []


class TestDegenerateGraphs:
    def test_self_loop_only_graph(self):
        graph = Graph.from_edge_list(3, [(0, 0), (1, 1)])
        result = cc_sv(Cluster(2, threads_per_host=2), partition(graph, 2, "oec"))
        assert result.values == {0: 0, 1: 1, 2: 2}

    def test_bfs_from_isolated_source(self):
        graph = generators.disjoint_union(
            Graph.from_edge_list(1, []), generators.path(4)
        )
        result = bfs(
            Cluster(2, threads_per_host=2), partition(graph, 2, "cvc"), source=0
        )
        assert result.values[0] == 0
        assert all(result.values[n] == math.inf for n in range(1, 5))

    def test_pagerank_on_single_node(self):
        graph = Graph.from_edge_list(1, [])
        result = pagerank(Cluster(1), partition(graph, 1, "oec"))
        assert result.values[0] == pytest.approx(1.0)

    def test_k_core_on_tree_is_one(self):
        graph = generators.path(10)
        result = k_core(Cluster(2, threads_per_host=2), partition(graph, 2, "oec"))
        assert all(v == 1 for v in result.values.values())

    def test_dense_parallel_structure(self):
        graph = generators.complete(5, weighted=True)
        for policy in sorted(POLICIES):
            result = cc_sv(
                Cluster(3, threads_per_host=2), partition(graph, 3, policy)
            )
            assert all(v == 0 for v in result.values.values())


class TestClusterEdgeCases:
    def test_single_thread_host(self):
        graph = generators.path(6)
        result = cc_lp(Cluster(2, threads_per_host=1), partition(graph, 2, "oec"))
        verify.check_components(graph, result.values)

    def test_many_threads_few_nodes(self):
        graph = generators.path(3)
        result = cc_lp(Cluster(1, threads_per_host=64), partition(graph, 1, "oec"))
        verify.check_components(graph, result.values)
