"""Boruvka MSF tests: exact weight against networkx, forest validity."""

from __future__ import annotations

import importlib
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import boruvka_msf
from repro.baselines import galois_msf
from repro.cluster import Cluster
from repro.core import RuntimeVariant
from repro.graph import Graph, generators
from repro.partition import partition


def run_msf(graph, hosts=3, policy="cvc", variant=RuntimeVariant.KIMBAP):
    return boruvka_msf(
        Cluster(hosts, threads_per_host=4), partition(graph, hosts, policy), variant=variant
    )


def networkx_msf_weight(graph):
    nx_graph = graph.to_networkx().to_undirected()
    return sum(
        data["weight"] for _, _, data in nx.minimum_spanning_edges(nx_graph, data=True)
    )


GRAPHS = {
    "road": generators.road_like(6, 4, seed=2, weighted=True),
    "powerlaw": generators.powerlaw_like(5, seed=7, weighted=True),
    "cycle": generators.cycle(11, weighted=True),
    "two_components": generators.disjoint_union(
        generators.path(6, weighted=True), generators.cycle(5, weighted=True)
    ),
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
class TestWeight:
    def test_matches_networkx_msf_weight(self, graph_name):
        graph = GRAPHS[graph_name]
        result = run_msf(graph)
        assert result.stats["forest_weight"] == pytest.approx(
            networkx_msf_weight(graph)
        )

    def test_forest_is_spanning_and_acyclic(self, graph_name):
        graph = GRAPHS[graph_name]
        result = run_msf(graph)
        forest = nx.Graph()
        forest.add_nodes_from(range(graph.num_nodes))
        forest.add_weighted_edges_from(result.extra["forest"])
        assert nx.is_forest(forest)
        original_components = nx.number_connected_components(
            graph.to_networkx().to_undirected()
        )
        assert nx.number_connected_components(forest) == original_components

    def test_component_labels_match_connectivity(self, graph_name):
        graph = GRAPHS[graph_name]
        result = run_msf(graph)
        expected = {}
        for component in nx.connected_components(graph.to_networkx().to_undirected()):
            smallest = min(component)
            for node in component:
                expected[node] = smallest
        assert {n: result.values[n] for n in range(graph.num_nodes)} == expected


class TestEdgeCases:
    def test_unweighted_graph_uses_unit_weights(self):
        graph = generators.path(6)
        result = run_msf(graph, hosts=2, policy="oec")
        assert result.stats["forest_edges"] == 5
        assert result.stats["forest_weight"] == pytest.approx(5.0)

    def test_single_node(self):
        graph = Graph.from_edge_list(1, [])
        result = run_msf(graph, hosts=1, policy="oec")
        assert result.stats["forest_edges"] == 0

    def test_equal_weights_still_forest(self):
        """Tie-breaking by endpoints must prevent cycles with equal weights."""
        graph = generators.complete(8).with_unit_weights()
        result = run_msf(graph, hosts=2, policy="oec")
        forest = nx.Graph()
        forest.add_weighted_edges_from(result.extra["forest"])
        assert nx.is_forest(forest)
        assert result.stats["forest_edges"] == 7

    @pytest.mark.parametrize("variant", list(RuntimeVariant))
    def test_all_variants_same_forest(self, variant):
        graph = GRAPHS["road"]
        baseline = run_msf(graph).extra["forest"]
        assert run_msf(graph, variant=variant).extra["forest"] == baseline

    def test_deterministic_across_partitionings(self):
        graph = GRAPHS["powerlaw"]
        baseline = run_msf(graph, hosts=1, policy="oec").extra["forest"]
        for hosts, policy in [(2, "oec"), (4, "cvc")]:
            assert run_msf(graph, hosts=hosts, policy=policy).extra["forest"] == baseline

    @pytest.mark.parametrize("module", ("repro.algorithms.boruvka", "repro.baselines.galois"))
    def test_forest_weight_folds_left_to_right(self, monkeypatch, module):
        # A path whose tree weighs 1e16 + 1 + 1: the left fold keeps 1e16,
        # the compensated builtin sum of Python 3.12 makes it 1e16 + 2 - and
        # stands in for builtin sum here, on every interpreter.
        monkeypatch.setattr(importlib.import_module(module), "sum", math.fsum, raising=False)
        graph = Graph.from_arrays(
            4, np.arange(3), np.arange(1, 4), np.array([1.0, 1e16, 1.0])
        ).symmetrized()
        if module.endswith("galois"):
            result = galois_msf(Cluster(1), graph)
        else:
            result = run_msf(graph, hosts=2, policy="oec")
        assert result.stats["forest_weight"].hex() == (1e16).hex()


class TestProperty:
    @given(st.integers(0, 10000))
    @settings(max_examples=10, deadline=None)
    def test_random_graphs_match_networkx(self, seed):
        graph = generators.erdos_renyi(25, 3.0, seed=seed, weighted=True)
        result = run_msf(graph, hosts=2)
        assert result.stats["forest_weight"] == pytest.approx(
            networkx_msf_weight(graph)
        )
