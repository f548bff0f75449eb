"""Baseline system tests: correctness plus the paper's comparative shapes."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.algorithms import boruvka_msf, cc_lp, cc_sv, louvain
from repro.baselines import (
    galois_cc_lp,
    galois_cc_sv,
    galois_leiden,
    galois_louvain,
    galois_mis,
    galois_msf,
    gluon_cc_lp,
    vite_louvain,
)
from repro.cluster import Cluster
from repro.graph import generators
from repro.partition import partition

ROAD = generators.road_like(8, 4, seed=2, weighted=True)
POWERLAW = generators.powerlaw_like(6, seed=3, weighted=True)
# Kimbap's LV once stopped this graph's first level early (32 rounds
# against Vite's 37): a quiescent parity half-round is not convergence.
ROAD20 = generators.road_like(20, 10, seed=5, weighted=True)


def components_truth(graph):
    expected = {}
    for component in nx.connected_components(graph.to_networkx().to_undirected()):
        smallest = min(component)
        for node in component:
            expected[node] = smallest
    return expected


class TestVite:
    def test_same_clustering_as_kimbap_lv(self):
        """Vite and Kimbap run the same deterministic algorithm (Section
        6.1): the same labels after the same number of rounds."""
        for graph in (ROAD, POWERLAW, ROAD20):
            for hosts in (1, 4):
                pgraph = partition(graph, hosts, "oec")
                vite = vite_louvain(Cluster(hosts, threads_per_host=4), pgraph)
                kimbap = louvain(Cluster(hosts, threads_per_host=4), pgraph)
                assert kimbap.values == vite.values
                assert kimbap.rounds == vite.rounds
                assert kimbap.stats == vite.stats

    def test_kimbap_faster_than_vite(self):
        """The headline result: Kimbap LV beats hand-optimized Vite."""
        for graph in (ROAD, POWERLAW):
            vite_cluster = Cluster(4, threads_per_host=8)
            vite_louvain(vite_cluster, partition(graph, 4, "oec"))
            kimbap_cluster = Cluster(4, threads_per_host=8)
            louvain(kimbap_cluster, partition(graph, 4, "oec"))
            assert kimbap_cluster.elapsed().total < vite_cluster.elapsed().total

    def test_gap_wider_on_powerlaw(self):
        """Section 6.2: 'the difference is higher for larger, power-law
        graphs due to more atomic write conflicts among threads in Vite'."""

        def ratio(graph):
            vite_cluster = Cluster(4, threads_per_host=8)
            vite_louvain(vite_cluster, partition(graph, 4, "oec"))
            kimbap_cluster = Cluster(4, threads_per_host=8)
            louvain(kimbap_cluster, partition(graph, 4, "oec"))
            return vite_cluster.elapsed().total / kimbap_cluster.elapsed().total

        assert ratio(POWERLAW) > ratio(ROAD)

    def test_vite_has_serial_inspection_phase(self):
        from repro.cluster.metrics import PhaseKind

        cluster = Cluster(2, threads_per_host=4)
        vite_louvain(cluster, partition(ROAD, 2, "oec"))
        serial = [p for p in cluster.log.phases if p.kind is PhaseKind.SERIAL]
        assert serial and all(not p.parallel for p in serial)

    def test_rejects_vertex_cut(self):
        with pytest.raises(ValueError):
            vite_louvain(Cluster(4), partition(ROAD, 4, "cvc"))

    def test_early_termination_keeps_validity(self):
        """The 75%-skip heuristic must not break the clustering (it may
        change the trajectory, including the number of rounds)."""
        with_et = Cluster(2, threads_per_host=4)
        result = vite_louvain(
            with_et, partition(POWERLAW, 2, "oec"), early_termination=True, seed=1
        )
        without_et = Cluster(2, threads_per_host=4)
        baseline = vite_louvain(without_et, partition(POWERLAW, 2, "oec"))
        assert result.stats["modularity"] > 0
        assert result.stats["modularity"] > baseline.stats["modularity"] - 0.1

    def test_early_termination_is_deterministic(self):
        first = vite_louvain(
            Cluster(2, threads_per_host=4),
            partition(POWERLAW, 2, "oec"),
            early_termination=True,
            seed=3,
        )
        second = vite_louvain(
            Cluster(2, threads_per_host=4),
            partition(POWERLAW, 2, "oec"),
            early_termination=True,
            seed=3,
        )
        assert first.values == second.values


class TestGluon:
    def test_same_components_as_kimbap(self):
        for graph in (ROAD, POWERLAW):
            expected = components_truth(graph)
            result = gluon_cc_lp(Cluster(4, threads_per_host=4), partition(graph, 4, "cvc"))
            assert {n: result.values[n] for n in range(graph.num_nodes)} == expected

    def test_comparable_to_kimbap_lp(self):
        """Figure 9c/10c: Kimbap-LP and Gluon-LP within a small factor."""
        for graph in (ROAD, POWERLAW):
            gluon_cluster = Cluster(4, threads_per_host=8)
            gluon_cc_lp(gluon_cluster, partition(graph, 4, "cvc"))
            kimbap_cluster = Cluster(4, threads_per_host=8)
            cc_lp(kimbap_cluster, partition(graph, 4, "cvc"))
            ratio = kimbap_cluster.elapsed().total / gluon_cluster.elapsed().total
            assert 0.4 < ratio < 2.5

    def test_no_request_phases(self):
        from repro.cluster.metrics import PhaseKind

        cluster = Cluster(4, threads_per_host=4)
        gluon_cc_lp(cluster, partition(POWERLAW, 4, "cvc"))
        request_traffic = sum(
            sum(p.msgs_sent)
            for p in cluster.log.phases
            if p.kind is PhaseKind.REQUEST_SYNC
        )
        assert request_traffic == 0


class TestGalois:
    def test_cc_sv_correct(self):
        expected = components_truth(ROAD)
        result = galois_cc_sv(Cluster(1, threads_per_host=8), ROAD)
        assert {n: result.values[n] for n in range(ROAD.num_nodes)} == expected

    def test_cc_lp_correct(self):
        expected = components_truth(POWERLAW)
        result = galois_cc_lp(Cluster(1, threads_per_host=8), POWERLAW)
        assert {n: result.values[n] for n in range(POWERLAW.num_nodes)} == expected

    def test_msf_matches_networkx(self):
        nx_weight = sum(
            d["weight"]
            for _, _, d in nx.minimum_spanning_edges(
                ROAD.to_networkx().to_undirected(), data=True
            )
        )
        result = galois_msf(Cluster(1, threads_per_host=8), ROAD)
        assert result.stats["forest_weight"] == pytest.approx(nx_weight)

    def test_mis_valid(self):
        result = galois_mis(Cluster(1, threads_per_host=8), POWERLAW)
        nx_graph = POWERLAW.to_networkx().to_undirected()
        values = result.values
        for u, v in nx_graph.edges():
            assert not (values[u] == 1 and values[v] == 1)
        for node in nx_graph.nodes():
            assert values[node] == 1 or any(
                values[m] == 1 for m in nx_graph.neighbors(node)
            )

    def test_louvain_positive_modularity(self):
        result = galois_louvain(Cluster(1, threads_per_host=8), ROAD)
        assert result.stats["modularity"] > 0.3

    def test_requires_single_host(self):
        with pytest.raises(ValueError):
            galois_cc_sv(Cluster(2), ROAD)

    def test_async_beats_bsp_on_pointer_jumping(self):
        """Table 3: Galois wins MSF and CC-SV on one host because async
        pointer jumping converges in a few sweeps."""
        galois_cluster = Cluster(1, threads_per_host=8)
        galois_cc_sv(galois_cluster, ROAD)
        kimbap_cluster = Cluster(1, threads_per_host=8)
        cc_sv(kimbap_cluster, partition(ROAD, 1, "oec"))
        assert galois_cluster.elapsed().total < kimbap_cluster.elapsed().total

        galois_cluster = Cluster(1, threads_per_host=8)
        galois_msf(galois_cluster, ROAD)
        kimbap_cluster = Cluster(1, threads_per_host=8)
        boruvka_msf(kimbap_cluster, partition(ROAD, 1, "oec"))
        assert galois_cluster.elapsed().total < kimbap_cluster.elapsed().total

    def test_leiden_pays_conflict_penalty(self):
        """Table 3: LD's subcluster updates contend through atomics - LD
        must cost meaningfully more than LV in Galois."""
        lv_cluster = Cluster(1, threads_per_host=8)
        galois_louvain(lv_cluster, POWERLAW)
        ld_cluster = Cluster(1, threads_per_host=8)
        galois_leiden(ld_cluster, POWERLAW)
        assert ld_cluster.elapsed().total > lv_cluster.elapsed().total
        ld_conflicts = ld_cluster.log.total_counters().cas_conflicts
        lv_conflicts = lv_cluster.log.total_counters().cas_conflicts
        assert ld_conflicts > lv_conflicts


class TestGluonSuite:
    """The extended adjacent-vertex suite (bfs/sssp) on the Gluon engine."""

    def test_gluon_bfs_matches_kimbap(self):
        from repro.algorithms import bfs
        from repro.baselines import gluon_bfs

        graph = generators.powerlaw_like(6, seed=3)
        gluon = gluon_bfs(Cluster(4, threads_per_host=4), partition(graph, 4, "cvc"))
        kimbap = bfs(Cluster(4, threads_per_host=4), partition(graph, 4, "cvc"))
        assert gluon.values == kimbap.values

    def test_gluon_sssp_matches_networkx(self):
        import math

        from repro.baselines import gluon_sssp

        graph = generators.road_like(8, 4, seed=2, weighted=True)
        result = gluon_sssp(
            Cluster(3, threads_per_host=4), partition(graph, 3, "cvc"), source=0
        )
        expected = nx.single_source_dijkstra_path_length(
            graph.to_networkx().to_undirected(), 0
        )
        for node in range(graph.num_nodes):
            if node in expected:
                assert abs(result.values[node] - expected[node]) < 1e-9
            else:
                assert result.values[node] == math.inf

    def test_gluon_suite_comparable_cost(self):
        from repro.algorithms import sssp
        from repro.baselines import gluon_sssp

        graph = generators.powerlaw_like(6, seed=3, weighted=True)
        gluon_cluster = Cluster(4, threads_per_host=8)
        gluon_sssp(gluon_cluster, partition(graph, 4, "cvc"))
        kimbap_cluster = Cluster(4, threads_per_host=8)
        sssp(kimbap_cluster, partition(graph, 4, "cvc"))
        ratio = kimbap_cluster.elapsed().total / gluon_cluster.elapsed().total
        assert 0.3 < ratio < 3.0
