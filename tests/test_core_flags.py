"""Tests for the ablation flags and activity tracking on the property map."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core import MIN, NodePropMap, RuntimeVariant
from repro.graph import generators
from repro.partition import partition


def setting(hosts=3, **map_kwargs):
    graph = generators.road_like(6, 4, seed=0)
    pgraph = partition(graph, hosts, "oec")
    cluster = Cluster(hosts, threads_per_host=4)
    prop = NodePropMap(cluster, pgraph, "p", **map_kwargs)
    prop.set_initial(lambda node: node)
    return graph, pgraph, cluster, prop


class TestRemoteLayout:
    def test_hash_layout_reads_correctly(self):
        _, pgraph, cluster, prop = setting(remote_layout="hash")
        remote = int(pgraph.parts[-1].masters_global[0])
        with cluster.phase(PhaseKind.REQUEST_COMPUTE):
            prop.request(0, remote)
        prop.request_sync()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert prop.read(0, remote) == remote

    def test_hash_layout_charges_probes_not_binsearch(self):
        _, pgraph, cluster, prop = setting(remote_layout="hash")
        remote = int(pgraph.parts[-1].masters_global[0])
        with cluster.phase(PhaseKind.REQUEST_COMPUTE):
            prop.request(0, remote)
        prop.request_sync()
        cluster.reset()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prop.read(0, remote)
        counters = cluster.log.total_counters()
        assert counters.hash_probes >= 1
        assert counters.binsearch_steps == 0

    def test_hash_layout_dropped_after_reduce_sync(self):
        _, pgraph, cluster, prop = setting(remote_layout="hash")
        remote = int(pgraph.parts[-1].masters_global[0])
        with cluster.phase(PhaseKind.REQUEST_COMPUTE):
            prop.request(0, remote)
        prop.request_sync()
        prop.reduce_sync()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            with pytest.raises(KeyError):
                prop.read(0, remote)

    def test_unknown_layout_rejected(self):
        # Every variant refuses it, not only the GAR store that reads it.
        for variant in RuntimeVariant:
            with pytest.raises(ValueError, match="unknown remote layout 'btree'"):
                setting(remote_layout="btree", variant=variant)


class TestSerialCombine:
    def test_serial_combine_charges_more(self):
        def combine_cost(serial):
            _, _, cluster, prop = setting(serial_combine=serial)
            with cluster.phase(PhaseKind.REDUCE_COMPUTE):
                for thread in range(4):
                    prop.reduce(0, thread, 5, thread, MIN)
            prop.reduce_sync()
            return cluster.log.total_counters().combine_ops

        assert combine_cost(True) == 4 * combine_cost(False)

    def test_serial_combine_same_values(self):
        _, _, cluster, prop = setting(serial_combine=True)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for thread in range(4):
                prop.reduce(0, thread, 5, -thread, MIN)
        prop.reduce_sync()
        assert prop.snapshot()[5] == -3


class TestRequestDedup:
    def test_dedup_off_keeps_duplicates(self):
        _, pgraph, cluster, prop = setting(request_dedup=False)
        remote = int(pgraph.parts[-1].masters_global[0])
        with cluster.phase(PhaseKind.REQUEST_COMPUTE):
            for _ in range(5):
                prop.request(0, remote)
        prop.request_sync()
        dedup_setting = setting(request_dedup=True)
        _, pgraph2, cluster2, prop2 = dedup_setting
        with cluster2.phase(PhaseKind.REQUEST_COMPUTE):
            for _ in range(5):
                prop2.request(0, remote)
        prop2.request_sync()
        assert cluster.log.total_bytes() > cluster2.log.total_bytes()

    def test_dedup_off_still_reads_correctly(self):
        _, pgraph, cluster, prop = setting(request_dedup=False)
        remote = int(pgraph.parts[-1].masters_global[0])
        with cluster.phase(PhaseKind.REQUEST_COMPUTE):
            prop.request(0, remote)
            prop.request(0, remote)
        prop.request_sync()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert prop.read(0, remote) == remote


def mirrored_setting():
    """A cvc-partitioned map with pinned mirrors, plus one (owner host,
    mirror host, node) triple to drive a broadcast through."""
    graph = generators.powerlaw_like(6, seed=2)
    pgraph = partition(graph, 4, "cvc")
    cluster = Cluster(4, threads_per_host=4)
    prop = NodePropMap(cluster, pgraph, "p")
    prop.set_initial(lambda node: node)
    prop.pin_mirrors(invariant="none")
    for owner, pairs in enumerate(pgraph.mirror_hosts_by_owner):
        if pairs:
            mirror_host, ids = pairs[0]
            return pgraph, cluster, prop, owner, mirror_host, int(ids[0])
    raise AssertionError("partition has no mirrors")


def reduce_bulk_synced(cluster, prop, host, keys, values):
    """One compute phase of MIN ``reduce_bulk`` on ``host``, reduce-synced."""
    keys = np.asarray(keys, dtype=np.int64)
    with cluster.phase(PhaseKind.REDUCE_COMPUTE):
        prop.reduce_bulk(
            host, np.zeros(keys.size, dtype=np.int64), keys, np.asarray(values), MIN
        )
    prop.reduce_sync()


def reduce_bulk_round(cluster, prop, host, keys, values):
    """One whole bulk round: reduce, reduce-sync, broadcast-sync."""
    reduce_bulk_synced(cluster, prop, host, keys, values)
    prop.broadcast_sync()


class TestActivityTracking:
    def test_everything_active_initially(self):
        _, pgraph, cluster, prop = setting()
        prop.reset_updated()
        for host in range(cluster.num_hosts):
            for node in pgraph.parts[host].local_to_global.tolist():
                assert prop.is_active(host, int(node))

    def test_only_changed_keys_active_after_round(self):
        _, pgraph, cluster, prop = setting()
        prop.reset_updated()
        target = int(pgraph.parts[0].masters_global[0])
        untouched = int(pgraph.parts[0].masters_global[1])
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prop.reduce(0, 0, target, -1, MIN)
        prop.reduce_sync()
        prop.reset_updated()
        assert prop.is_active(0, target)
        assert not prop.is_active(0, untouched)

    def test_no_change_means_inactive(self):
        _, pgraph, cluster, prop = setting()
        prop.reset_updated()
        target = int(pgraph.parts[0].masters_global[0])
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prop.reduce(0, 0, target, 10_000, MIN)  # loses to current value
        prop.reduce_sync()
        prop.reset_updated()
        assert not prop.is_active(0, target)

    def test_mirror_becomes_active_via_broadcast(self):
        _, cluster, prop, owner, mirror_host, node = mirrored_setting()
        prop.reset_updated()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prop.reduce(owner, 0, node, -5, MIN)
        prop.reduce_sync()
        prop.broadcast_sync()
        prop.reset_updated()
        assert prop.is_active(mirror_host, node)

    def test_non_gar_variants_always_active(self):
        _, pgraph, cluster, prop = setting(variant=RuntimeVariant.SGR_ONLY)
        prop.reset_updated()
        prop.reset_updated()
        assert prop.is_active(0, int(pgraph.parts[0].masters_global[0]))

    # Bulk twins: the same predicates through reduce_bulk + the array
    # sync path (set_initial_bulk keeps the store columns in array mode).

    def bulk_setting(self):
        _, pgraph, cluster, prop = setting()
        prop.reset_values_bulk(lambda keys: keys)
        prop.reset_updated()
        return pgraph, cluster, prop

    def test_bulk_changed_master_active_on_owner(self):
        pgraph, cluster, prop = self.bulk_setting()
        target, untouched = pgraph.parts[0].masters_global[:2].tolist()
        reduce_bulk_round(cluster, prop, 0, [target], [-1])
        prop.reset_updated()
        assert prop.is_active(0, target)
        assert not prop.is_active(0, untouched)
        assert prop.active_mask(0)[[target, untouched]].tolist() == [True, False]

    def test_bulk_losing_reduce_inactive(self):
        pgraph, cluster, prop = self.bulk_setting()
        target = int(pgraph.parts[0].masters_global[0])
        reduce_bulk_round(cluster, prop, 0, [target], [10_000])
        prop.reset_updated()
        assert not prop.is_active(0, target)
        assert prop.active_mask(0) is None

    def test_bulk_mirror_active_only_after_broadcast(self):
        _, cluster, prop, owner, mirror_host, node = mirrored_setting()
        prop.reset_updated()
        reduce_bulk_synced(cluster, prop, owner, [node], [-5])
        prop.reset_updated()
        assert prop.is_active(owner, node)
        assert not prop.is_active(mirror_host, node)
        prop.broadcast_sync()
        prop.reset_updated()
        assert prop.is_active(mirror_host, node)
        assert not prop.is_active(owner, node)

    def test_bulk_reset_leaves_nothing_pending(self):
        _, cluster, prop, owner, _, node = mirrored_setting()
        reduce_bulk_synced(cluster, prop, owner, [node], [-5])
        prop.reset_values_bulk(lambda keys: keys)
        before = cluster.log.total_bytes()
        prop.broadcast_sync()
        assert cluster.log.total_bytes() == before

    def test_active_mask_is_read_only(self):
        _, cluster, prop, owner, _, node = mirrored_setting()
        for _ in range(2):  # the initial buffer, then a swapped-in one
            mask = prop.active_mask(owner)
            assert mask is not None and mask[node]
            with pytest.raises(ValueError):
                mask[node] = False
            assert prop.is_active(owner, node)
            reduce_bulk_round(cluster, prop, owner, [node], [-5])
            prop.reset_updated()

    @settings(max_examples=25, deadline=None)
    @given(
        rounds=st.lists(
            st.lists(
                st.tuples(st.integers(0, 10_000), st.integers(-50, 50)),
                max_size=12,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_probes_agree_with_set_model(self, rounds):
        """The set of changed keys is the oracle: after every round, a
        copy on ``h`` is active iff its master changed this round."""
        pgraph, cluster, prop, *_ = mirrored_setting()
        prop.reset_values_bulk(lambda keys: keys)
        prop.reset_updated()
        for pushes in rounds:
            before = prop.snapshot_array()
            host = len(pushes) % cluster.num_hosts
            reduce_bulk_round(
                cluster, prop, host,
                [key % pgraph.num_nodes for key, _ in pushes],
                [value for _, value in pushes],
            )
            prop.reset_updated()
            reference_set = set(np.flatnonzero(prop.snapshot_array() != before).tolist())
            for h in range(cluster.num_hosts):
                for k in pgraph.parts[h].local_to_global.tolist():
                    expected = k in reference_set
                    assert prop.is_active(h, k) == expected
                    mask = prop.active_mask(h)
                    assert (mask is not None and bool(mask[k])) == expected
