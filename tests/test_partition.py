"""Partitioning tests: coverage, proxies, and structural invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators
from repro.partition import POLICIES, partition
from repro.partition.base import balanced_node_blocks, build_partitioned
from repro.partition.cartesian import grid_shape


def reassemble_edges(pgraph):
    """All edges across all partitions, translated back to global ids."""
    edges = []
    for part in pgraph.parts:
        for local_src in range(part.num_local):
            for local_dst in part.neighbors(local_src):
                edges.append(
                    (
                        int(part.local_to_global[local_src]),
                        int(part.local_to_global[local_dst]),
                    )
                )
    return sorted(edges)


GRAPHS = {
    "road": generators.road_like(6, 4, seed=0),
    "powerlaw": generators.powerlaw_like(6, seed=1),
    "star": generators.star(20),
}


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("num_hosts", [1, 2, 4, 6])
class TestEveryPolicy:
    def test_every_edge_exactly_once(self, policy, graph_name, num_hosts):
        graph = GRAPHS[graph_name]
        pgraph = partition(graph, num_hosts, policy)
        assert reassemble_edges(pgraph) == sorted(graph.iter_edges())

    def test_every_node_has_one_master(self, policy, graph_name, num_hosts):
        graph = GRAPHS[graph_name]
        pgraph = partition(graph, num_hosts, policy)
        seen = np.zeros(graph.num_nodes, dtype=int)
        for part in pgraph.parts:
            for master in part.masters_global:
                seen[master] += 1
        assert np.all(seen == 1)

    def test_owner_array_matches_masters(self, policy, graph_name, num_hosts):
        graph = GRAPHS[graph_name]
        pgraph = partition(graph, num_hosts, policy)
        for part in pgraph.parts:
            assert np.all(pgraph.owner[part.masters_global] == part.host_id)
            mirrors = part.mirrors_global
            if mirrors.size:
                assert np.all(pgraph.owner[mirrors] != part.host_id)

    def test_masters_precede_mirrors_and_sorted(self, policy, graph_name, num_hosts):
        graph = GRAPHS[graph_name]
        pgraph = partition(graph, num_hosts, policy)
        for part in pgraph.parts:
            masters = part.masters_global
            mirrors = part.mirrors_global
            assert np.all(np.diff(masters) > 0) if masters.size > 1 else True
            assert np.all(np.diff(mirrors) > 0) if mirrors.size > 1 else True

    def test_masters_contiguous_global_range(self, policy, graph_name, num_hosts):
        """The blocked policies give contiguous master ranges - the property
        GAR's O(1) master translation relies on."""
        graph = GRAPHS[graph_name]
        pgraph = partition(graph, num_hosts, policy)
        for part in pgraph.parts:
            masters = part.masters_global
            if masters.size > 1:
                assert masters[-1] - masters[0] + 1 == masters.size


class TestStructuralInvariants:
    def test_oec_mirrors_have_no_outgoing_edges(self):
        pgraph = partition(GRAPHS["powerlaw"], 4, "oec")
        assert not pgraph.any_mirror_has_outgoing

    def test_iec_mirrors_have_no_incoming_edges(self):
        pgraph = partition(GRAPHS["powerlaw"], 4, "iec")
        assert not pgraph.any_mirror_has_incoming

    def test_cvc_grid_shape(self):
        assert grid_shape(1) == (1, 1)
        assert grid_shape(4) == (2, 2)
        assert grid_shape(6) == (2, 3)
        assert grid_shape(8) == (2, 4)
        assert grid_shape(16) == (4, 4)
        assert grid_shape(7) == (1, 7)

    def test_cvc_bounds_fanout(self):
        """Under CVC a node's proxies live only in its owner's grid row and
        column, bounding replication by pr + pc - 1."""
        graph = GRAPHS["powerlaw"]
        pgraph = partition(graph, 4, "cvc")
        rows, cols = grid_shape(4)
        proxies = np.zeros(graph.num_nodes, dtype=int)
        for part in pgraph.parts:
            proxies[part.local_to_global] += 1
        assert proxies.max() <= rows + cols - 1

    def test_single_host_has_no_mirrors(self):
        for policy in POLICIES:
            pgraph = partition(GRAPHS["road"], 1, policy)
            assert pgraph.total_mirrors() == 0
            assert pgraph.replication_factor() == 1.0

    def test_replication_factor_grows_with_hosts(self):
        graph = GRAPHS["powerlaw"]
        small = partition(graph, 2, "oec").replication_factor()
        large = partition(graph, 6, "oec").replication_factor()
        assert large >= small


class TestBalancedBlocks:
    def test_uniform_degrees_split_evenly(self):
        graph = generators.cycle(12)
        blocks = balanced_node_blocks(graph, 4)
        sizes = np.bincount(blocks, minlength=4)
        assert sizes.tolist() == [3, 3, 3, 3]

    def test_blocks_are_contiguous_and_monotone(self):
        graph = generators.powerlaw_like(7, seed=0)
        blocks = balanced_node_blocks(graph, 5)
        assert np.all(np.diff(blocks) >= 0)
        assert blocks.max() < 5

    def test_edge_balance_beats_node_balance_on_skew(self):
        graph = generators.star(100)
        blocks = balanced_node_blocks(graph, 2)
        degrees = graph.out_degrees() + 1
        load = [degrees[blocks == b].sum() for b in (0, 1)]
        assert max(load) / max(min(load), 1) < 3

    @given(st.integers(2, 40), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_every_node_gets_a_valid_block(self, num_nodes, num_blocks):
        graph = generators.cycle(num_nodes)
        blocks = balanced_node_blocks(graph, num_blocks)
        assert blocks.shape == (num_nodes,)
        assert blocks.min() >= 0
        assert blocks.max() < num_blocks


class TestFanOut:
    def test_mirror_hosts_by_owner_covers_all_mirrors(self):
        pgraph = partition(GRAPHS["powerlaw"], 4, "cvc")
        recorded = {
            (mirror_host, int(g))
            for owner in range(4)
            for mirror_host, ids in pgraph.mirror_hosts_by_owner[owner]
            for g in ids
        }
        expected = {
            (part.host_id, int(g))
            for part in pgraph.parts
            for g in part.mirrors_global
        }
        assert recorded == expected

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            partition(GRAPHS["road"], 2, "nope")

    def test_zero_hosts_rejected(self):
        with pytest.raises(ValueError):
            partition(GRAPHS["road"], 0, "oec")

    def test_scattered_owners_rejected(self):
        """Ownership is blocked by contract (GAR's arithmetic master
        translation): a round-robin owner array is refused, naming the
        first node that breaks the order."""
        graph = GRAPHS["road"]
        owner = np.arange(graph.num_nodes, dtype=np.int64) % 4
        with pytest.raises(ValueError, match="node 4 is owned by host 0"):
            build_partitioned(
                graph, "round-robin", owner, owner[graph.edge_sources()], num_hosts=4
            )
        blocked = np.sort(owner)
        pgraph = build_partitioned(
            graph, "blocked", blocked, blocked[graph.edge_sources()], num_hosts=4
        )
        assert [part.num_masters for part in pgraph.parts] == [
            int(np.count_nonzero(blocked == host)) for host in range(4)
        ]
