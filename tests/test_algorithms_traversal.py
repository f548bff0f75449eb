"""BFS / SSSP / PageRank tests against networkx ground truth."""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import bfs, pagerank, sssp
from repro.algorithms.common import left_sum
from repro.cluster import Cluster
from repro.core import RuntimeVariant
from repro.graph import Graph, generators
from repro.partition import partition


def run(algorithm, graph, hosts=3, policy="cvc", **kwargs):
    return algorithm(
        Cluster(hosts, threads_per_host=4), partition(graph, hosts, policy), **kwargs
    )


GRAPHS = {
    "road": generators.road_like(8, 4, seed=1, weighted=True),
    "powerlaw": generators.powerlaw_like(6, seed=3, weighted=True),
    "two_components": generators.disjoint_union(
        generators.path(6, weighted=True), generators.cycle(5, weighted=True)
    ),
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
class TestSssp:
    def test_matches_networkx_dijkstra(self, graph_name):
        graph = GRAPHS[graph_name]
        result = run(sssp, graph, source=0)
        expected = nx.single_source_dijkstra_path_length(
            graph.to_networkx().to_undirected(), 0
        )
        for node in range(graph.num_nodes):
            if node in expected:
                assert result.values[node] == pytest.approx(expected[node])
            else:
                assert result.values[node] == math.inf

    def test_bfs_levels(self, graph_name):
        graph = GRAPHS[graph_name]
        result = run(bfs, graph, source=0)
        expected = nx.single_source_shortest_path_length(
            graph.to_networkx().to_undirected(), 0
        )
        for node in range(graph.num_nodes):
            if node in expected:
                assert result.values[node] == expected[node]
            else:
                assert result.values[node] == math.inf


class TestSsspDetails:
    def test_source_distance_zero(self):
        result = run(sssp, GRAPHS["road"], source=5)
        assert result.values[5] == 0.0

    def test_bad_source_rejected(self):
        with pytest.raises(ValueError):
            run(sssp, GRAPHS["road"], source=10_000)

    def test_bfs_rounds_track_eccentricity(self):
        graph = generators.path(20)
        result = run(bfs, graph, hosts=2, policy="oec", source=0)
        # one round per level plus the final quiet round
        assert result.rounds == 20

    @pytest.mark.parametrize("variant", list(RuntimeVariant))
    def test_variants_agree(self, variant):
        graph = GRAPHS["powerlaw"]
        baseline = run(sssp, graph, source=0).values
        assert run(sssp, graph, source=0, variant=variant).values == baseline

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_graphs(self, seed):
        graph = generators.erdos_renyi(30, 3.0, seed=seed, weighted=True)
        result = run(sssp, graph, hosts=2, source=0)
        expected = nx.single_source_dijkstra_path_length(
            graph.to_networkx().to_undirected(), 0
        )
        for node, distance in expected.items():
            assert result.values[node] == pytest.approx(distance)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
class TestPagerank:
    def test_matches_networkx(self, graph_name):
        graph = GRAPHS[graph_name]
        result = run(pagerank, graph)
        expected = nx.pagerank(graph.to_networkx(), alpha=0.85, tol=1e-12, weight=None)
        for node in range(graph.num_nodes):
            assert result.values[node] == pytest.approx(expected[node], abs=1e-6)

    def test_mass_conserved(self, graph_name):
        result = run(pagerank, GRAPHS[graph_name])
        assert result.stats["mass"] == pytest.approx(1.0)


class TestPagerankDetails:
    def test_dangling_nodes_handled(self):
        # node 3 isolated: its mass redistributes, ranks still sum to 1
        graph = Graph.from_edge_list(4, [(0, 1), (1, 0), (1, 2), (2, 1)])
        result = run(pagerank, graph, hosts=2, policy="oec")
        assert result.stats["mass"] == pytest.approx(1.0)
        assert result.values[3] > 0

    def test_symmetric_star_concentrates_on_hub(self):
        graph = generators.star(10)
        result = run(pagerank, graph, hosts=2, policy="oec")
        hub = result.values[0]
        assert all(hub > result.values[leaf] for leaf in range(1, 11))

    def test_bad_damping_rejected(self):
        with pytest.raises(ValueError):
            run(pagerank, GRAPHS["road"], damping=1.5)

    def test_converges_before_max_rounds(self):
        result = run(pagerank, GRAPHS["powerlaw"], max_rounds=100)
        assert result.rounds < 100
        assert result.stats["delta"] < 1e-9

    @given(st.lists(
        st.floats(0.0, 1e18) | st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e16]),
        max_size=64,
    ))
    @settings(max_examples=200, deadline=None)
    def test_host_fold_is_the_plain_left_fold(self, values):
        # The dangling mass, the delta and the reported mass fold strictly
        # left to right, the bits of a plain loop on every interpreter -
        # builtin sum rounds differently from Python 3.12 on (compensated).
        acc = 0.0
        for value in values:
            acc += value
        assert left_sum(np.array(values, dtype=np.float64)).hex() == acc.hex()

    def test_host_fold_does_not_compensate(self):
        # A compensated sum would carry the two lost units: 1e16 + 2.
        assert left_sum(np.array([1e16, 1.0, 1.0])).hex() == (1e16).hex()
