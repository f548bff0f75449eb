"""Louvain and Leiden tests: partition validity, modularity, Leiden guarantee."""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest

from repro.algorithms import common, leiden, louvain
from repro.algorithms.common import coarsen, modularity, weighted_degrees
from repro.cluster import Cluster
from repro.core import RuntimeVariant
from repro.graph import Graph, generators
from repro.partition import partition


def planted_cliques(num_cliques=4, clique_size=8, seed=0):
    """Cliques joined by single bridge edges: unambiguous community truth."""
    blocks = generators.complete(clique_size)
    graph = blocks
    for _ in range(num_cliques - 1):
        graph = generators.disjoint_union(graph, blocks)
    srcs = list(graph.edge_sources())
    dsts = list(graph.indices)
    for i in range(num_cliques - 1):
        a = i * clique_size
        b = (i + 1) * clique_size
        srcs += [a, b]
        dsts += [b, a]
    return Graph.from_arrays(
        num_cliques * clique_size, np.array(srcs), np.array(dsts)
    ).symmetrized()


def run(algorithm, graph, hosts=2, policy="oec", **kwargs):
    return algorithm(
        Cluster(hosts, threads_per_host=4), partition(graph, hosts, policy), **kwargs
    )


class TestModularityHelper:
    def test_singletons_modularity(self):
        graph = generators.complete(4)
        labels = np.arange(4)
        # Each singleton: no internal edges; Q = -sum((k/2m)^2)
        assert modularity(graph, labels) == pytest.approx(-4 * (3 / 12) ** 2)

    def test_matches_networkx(self):
        graph = generators.powerlaw_like(6, seed=1, weighted=True)
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 5, graph.num_nodes)
        communities = [
            {int(n) for n in np.flatnonzero(labels == c)} for c in range(5)
        ]
        communities = [c for c in communities if c]
        expected = nx.algorithms.community.modularity(
            graph.to_networkx().to_undirected(), communities, weight="weight"
        )
        assert modularity(graph, labels) == pytest.approx(expected)

    def test_all_in_one_community(self):
        graph = generators.cycle(6)
        assert modularity(graph, np.zeros(6, dtype=int)) == pytest.approx(0.0)

    def test_community_totals_fold_left_to_right(self, monkeypatch):
        # Three self-loop communities of strengths 1e8, 1 and 1: their
        # squares fold to 1e16 left to right, to 1e16 + 2 under the
        # compensated builtin sum of Python 3.12 - which stands in for
        # builtin sum here, on every interpreter.
        monkeypatch.setattr(common, "sum", math.fsum, raising=False)
        graph = Graph.from_arrays(3, np.arange(3), np.arange(3), np.array([1e8, 1.0, 1.0]))
        two_m = 1e8 + 2
        want = 1.0 - ((1e16 + 1.0) + 1.0) / (two_m * two_m)
        assert modularity(graph, np.arange(3)).hex() == want.hex()


class TestCoarsen:
    def test_preserves_total_weight(self):
        graph = generators.powerlaw_like(6, seed=2, weighted=True)
        labels = np.arange(graph.num_nodes) // 4
        coarse, _ = coarsen(graph, labels)
        assert coarse.weights.sum() == pytest.approx(graph.weights.sum())

    def test_preserves_strengths(self):
        graph = generators.road_like(6, 4, seed=1, weighted=True)
        labels = np.arange(graph.num_nodes) % 7
        coarse, coarse_of = coarsen(graph, labels)
        fine_strengths = weighted_degrees(graph)
        coarse_strengths = weighted_degrees(coarse)
        for coarse_node in range(coarse.num_nodes):
            members = np.flatnonzero(coarse_of == coarse_node)
            assert coarse_strengths[coarse_node] == pytest.approx(
                fine_strengths[members].sum()
            )

    def test_intra_edges_become_self_loops(self):
        graph = generators.complete(4).with_unit_weights()
        coarse, _ = coarsen(graph, np.zeros(4, dtype=int))
        assert coarse.num_nodes == 1
        assert coarse.num_edges == 1  # one self-loop
        assert coarse.weights[0] == pytest.approx(12.0)

    def test_modularity_invariant_under_coarsening(self):
        """Aggregating a partition must not change its modularity - the
        invariant Louvain's level structure relies on."""
        graph = generators.powerlaw_like(6, seed=3, weighted=True)
        labels = np.arange(graph.num_nodes) % 9
        coarse, coarse_of = coarsen(graph, labels)
        fine_q = modularity(graph, labels)
        coarse_q = modularity(coarse, np.arange(coarse.num_nodes) % 3 * 0 + np.arange(coarse.num_nodes) * 0 + np.arange(coarse.num_nodes) // 3)
        # compare with the same grouping projected down
        projected = (np.arange(coarse.num_nodes) // 3)[coarse_of]
        assert modularity(graph, projected) == pytest.approx(
            modularity(coarse, np.arange(coarse.num_nodes) // 3)
        )


@pytest.mark.parametrize("algorithm", [louvain, leiden])
class TestCommunityDetection:
    def test_recovers_planted_cliques(self, algorithm):
        graph = planted_cliques(4, 6)
        result = run(algorithm, graph)
        assert result.stats["num_communities"] == 4
        # every clique ends up in a single community
        labels = [result.values[n] for n in range(graph.num_nodes)]
        for clique in range(4):
            members = labels[clique * 6 : (clique + 1) * 6]
            assert len(set(members)) == 1

    def test_partition_is_total(self, algorithm):
        graph = generators.powerlaw_like(6, seed=5, weighted=True)
        result = run(algorithm, graph)
        assert set(result.values) == set(range(graph.num_nodes))

    def test_positive_modularity_on_modular_graph(self, algorithm):
        graph = planted_cliques(3, 7)
        result = run(algorithm, graph)
        assert result.stats["modularity"] > 0.5

    def test_single_host(self, algorithm):
        graph = planted_cliques(3, 5)
        result = run(algorithm, graph, hosts=1)
        assert result.stats["num_communities"] == 3

    def test_deterministic(self, algorithm):
        graph = generators.powerlaw_like(6, seed=8, weighted=True)
        first = run(algorithm, graph)
        second = run(algorithm, graph)
        assert first.values == second.values


class TestLeidenGuarantee:
    def test_all_communities_connected(self):
        """Leiden's headline property (Traag et al.): every community is
        internally connected. Louvain does not guarantee this."""
        graph = generators.powerlaw_like(7, seed=4, weighted=True)
        result = run(leiden, graph, hosts=3)
        nx_graph = graph.to_networkx().to_undirected()
        labels = result.values
        for community in set(labels.values()):
            members = [n for n, c in labels.items() if c == community]
            induced = nx_graph.subgraph(members)
            assert nx.is_connected(induced), f"community {community} disconnected"

    def test_leiden_quality_at_least_comparable(self):
        graph = planted_cliques(4, 6)
        louvain_q = run(louvain, graph).stats["modularity"]
        leiden_q = run(leiden, graph).stats["modularity"]
        assert leiden_q >= louvain_q - 0.05

    def test_leiden_slower_than_louvain(self):
        """The paper reports LD ~7x slower than LV (more edge iterations for
        refining). Directionally, LD must cost more modeled time."""
        graph = generators.powerlaw_like(6, seed=6, weighted=True)
        lv_cluster = Cluster(2, threads_per_host=4)
        louvain(lv_cluster, partition(graph, 2, "oec"))
        ld_cluster = Cluster(2, threads_per_host=4)
        leiden(ld_cluster, partition(graph, 2, "oec"))
        assert ld_cluster.elapsed().total > lv_cluster.elapsed().total


class TestVariants:
    @pytest.mark.parametrize("variant", list(RuntimeVariant))
    def test_louvain_all_variants_agree(self, variant):
        graph = planted_cliques(3, 5)
        baseline = run(louvain, graph).values
        assert run(louvain, graph, variant=variant).values == baseline
