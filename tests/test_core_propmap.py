"""Node-property map tests: BSP semantics across all runtime variants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.metrics import CELL_FIELDS, PhaseKind
from repro.core import MIN, SUM, NodePropMap, RuntimeVariant
from repro.core.reducers import PAIR_MIN
from repro.graph import generators
from repro.partition import partition

ALL_VARIANTS = list(RuntimeVariant)


def make_map(variant=RuntimeVariant.KIMBAP, hosts=3, policy="oec", graph=None):
    graph = graph or generators.road_like(6, 4, seed=0)
    pgraph = partition(graph, hosts, policy)
    cluster = Cluster(hosts, threads_per_host=4)
    prop = NodePropMap(cluster, pgraph, "p", variant=variant)
    return cluster, pgraph, prop


@pytest.mark.parametrize("variant", ALL_VARIANTS)
class TestEveryVariant:
    def test_initialize_and_read_own_masters(self, variant):
        cluster, pgraph, prop = make_map(variant)
        prop.set_initial(lambda n: n * 10)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for host in range(cluster.num_hosts):
                for node in pgraph.parts[host].masters_global.tolist():
                    assert prop.read(host, node) == node * 10

    def test_snapshot_reflects_init(self, variant):
        _, pgraph, prop = make_map(variant)
        prop.set_initial(lambda n: n + 1)
        snap = prop.snapshot()
        assert len(snap) == pgraph.num_nodes
        assert all(snap[n] == n + 1 for n in snap)

    def test_reduce_visible_next_round_at_owner(self, variant):
        cluster, pgraph, prop = make_map(variant)
        prop.set_initial(lambda n: 100)
        target = 5
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prop.reduce(0, 0, target, 7, MIN)
        prop.reduce_sync()
        assert prop.snapshot()[target] == 7
        assert prop.is_updated()

    def test_no_change_means_not_updated(self, variant):
        cluster, _, prop = make_map(variant)
        prop.set_initial(lambda n: 0)
        prop.reset_updated()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prop.reduce(0, 0, 3, 5, MIN)  # 0 is already smaller
        prop.reduce_sync()
        assert not prop.is_updated()

    def test_request_then_read_remote(self, variant):
        cluster, pgraph, prop = make_map(variant)
        prop.set_initial(lambda n: n * 2)
        # host 0 requests a node owned elsewhere
        remote = pgraph.parts[-1].masters_global[0]
        with cluster.phase(PhaseKind.REQUEST_COMPUTE):
            prop.request(0, remote)
        prop.request_sync()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert prop.read(0, remote) == remote * 2

    def test_remote_cache_dropped_after_reduce_sync(self, variant):
        cluster, pgraph, prop = make_map(variant)
        prop.set_initial(lambda n: 1)
        remote = int(pgraph.parts[-1].masters_global[0])
        with cluster.phase(PhaseKind.REQUEST_COMPUTE):
            prop.request(0, remote)
        prop.request_sync()
        prop.reduce_sync()
        if variant.uses_gar:
            # GAR: the sorted remote arrays are gone, reads must fail.
            with cluster.phase(PhaseKind.REDUCE_COMPUTE):
                with pytest.raises(KeyError):
                    prop.read(0, remote)

    def test_concurrent_reduces_combine(self, variant):
        cluster, _, prop = make_map(variant)
        prop.set_initial(lambda n: 1000)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for thread, value in enumerate([30, 10, 20]):
                prop.reduce(0, thread, 2, value, MIN)
            prop.reduce(1, 0, 2, 5, MIN)  # another host piles on
        prop.reduce_sync()
        assert prop.snapshot()[2] == 5

    def test_sum_reduction(self, variant):
        cluster, _, prop = make_map(variant)
        prop.set_initial(lambda n: 0)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for thread in range(3):
                prop.reduce(0, thread, 1, 10, SUM)
        prop.reduce_sync()
        assert prop.snapshot()[1] == 30

    def test_tuple_values_stay_tuples(self, variant):
        """The one batch writer and the one reduce-sync route take a plain
        list as given, on every store: tuples stay tuples through the
        per-node initializer, a list-valued batch reset and an owner apply
        of partials reduced on every host."""
        cluster, _, prop = make_map(variant)
        prop.set_initial(lambda n: (float(n), n))
        assert prop.snapshot() == {n: (float(n), n) for n in prop.snapshot()}
        prop.reset_values_bulk(lambda nodes: [(1.0, n) for n in nodes.tolist()])
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for host in range(cluster.num_hosts):
                prop.reduce(host, 0, 2, (0.5, host), PAIR_MIN)
        prop.reduce_sync()
        snap = prop.snapshot()
        assert snap[2] == (0.5, 0) and snap[3] == (1.0, 3)
        assert {type(value) for value in snap.values()} == {tuple}

    def test_mixed_ops_rejected(self, variant):
        cluster, _, prop = make_map(variant)
        prop.set_initial(lambda n: 0)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prop.reduce(0, 0, 1, 1, SUM)
            with pytest.raises(ValueError):
                prop.reduce(0, 0, 2, 1, MIN)


class TestGarSpecifics:
    def test_master_read_is_vector_read(self):
        cluster, pgraph, prop = make_map(RuntimeVariant.KIMBAP)
        prop.set_initial(lambda n: n)
        node = int(pgraph.parts[0].masters_global[0])
        cluster.reset()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prop.read(0, node)
        counters = cluster.log.total_counters()
        assert counters.vector_reads == 1
        assert counters.hash_probes == 0
        assert counters.binsearch_steps == 0

    def test_remote_read_uses_binary_search(self):
        cluster, pgraph, prop = make_map(RuntimeVariant.KIMBAP)
        prop.set_initial(lambda n: n)
        remote = int(pgraph.parts[-1].masters_global[0])
        with cluster.phase(PhaseKind.REQUEST_COMPUTE):
            prop.request(0, remote)
        prop.request_sync()
        cluster.reset()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prop.read(0, remote)
        assert cluster.log.total_counters().binsearch_steps >= 1

    def test_request_for_own_master_skipped(self):
        cluster, pgraph, prop = make_map(RuntimeVariant.KIMBAP)
        prop.set_initial(lambda n: n)
        own = int(pgraph.parts[0].masters_global[0])
        with cluster.phase(PhaseKind.REQUEST_COMPUTE):
            assert not prop.request(0, own)
        assert len(prop.bitsets[0]) == 0

    def test_request_deduplicated(self):
        cluster, pgraph, prop = make_map(RuntimeVariant.KIMBAP)
        prop.set_initial(lambda n: n)
        remote = int(pgraph.parts[-1].masters_global[0])
        with cluster.phase(PhaseKind.REQUEST_COMPUTE):
            assert prop.request(0, remote)
            assert not prop.request(0, remote)
        assert len(prop.bitsets[0]) == 1

    def test_unrequested_remote_read_raises(self):
        cluster, pgraph, prop = make_map(RuntimeVariant.KIMBAP)
        prop.set_initial(lambda n: n)
        remote = int(pgraph.parts[-1].masters_global[0])
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            with pytest.raises(KeyError):
                prop.read(0, remote)


class TestPinnedMirrors:
    def make_pinned(self, policy="cvc", invariant="none"):
        graph = generators.powerlaw_like(6, seed=2)
        pgraph = partition(graph, 4, policy)
        cluster = Cluster(4, threads_per_host=4)
        prop = NodePropMap(cluster, pgraph, "p", variant=RuntimeVariant.KIMBAP)
        prop.set_initial(lambda n: n)
        prop.pin_mirrors(invariant=invariant)
        return cluster, pgraph, prop

    def test_pin_materializes_mirror_values(self):
        cluster, pgraph, prop = self.make_pinned()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for part in pgraph.parts:
                for mirror in part.mirrors_global.tolist():
                    assert prop.read(part.host_id, mirror) == mirror

    def test_broadcast_refreshes_updated_mirrors(self):
        cluster, pgraph, prop = self.make_pinned()
        # find a node that has a mirror somewhere
        owner, mirror_host, node = None, None, None
        for candidate_owner, pairs in enumerate(pgraph.mirror_hosts_by_owner):
            if pairs:
                owner = candidate_owner
                mirror_host, ids = pairs[0]
                node = int(ids[0])
                break
        assert node is not None
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prop.reduce(owner, 0, node, -5, MIN)
        prop.reduce_sync()
        prop.broadcast_sync()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert prop.read(mirror_host, node) == -5

    def test_broadcast_without_updates_sends_nothing(self):
        cluster, _, prop = self.make_pinned()
        cluster.reset()
        prop.broadcast_sync()
        assert cluster.log.total_messages() == 0

    def test_unpin_drops_mirror_values(self):
        cluster, pgraph, prop = self.make_pinned()
        prop.unpin_mirrors()
        part = next(p for p in pgraph.parts if p.num_mirrors)
        mirror = int(part.mirrors_global[0])
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            with pytest.raises(KeyError):
                prop.read(part.host_id, mirror)

    def test_push_invariant_skips_outgoing_free_mirrors(self):
        """Under OEC no mirror has outgoing edges, so a push-invariant pin
        broadcasts nothing at all - Gluon's elision."""
        graph = generators.powerlaw_like(6, seed=2)
        pgraph = partition(graph, 4, "oec")
        cluster = Cluster(4, threads_per_host=4)
        prop = NodePropMap(cluster, pgraph, "p", variant=RuntimeVariant.KIMBAP)
        prop.set_initial(lambda n: n)
        cluster.reset()
        prop.pin_mirrors(invariant="push")
        assert cluster.log.total_messages() == 0

    def test_none_invariant_broadcasts_to_all_mirrors(self):
        graph = generators.powerlaw_like(6, seed=2)
        pgraph = partition(graph, 4, "oec")
        cluster = Cluster(4, threads_per_host=4)
        prop = NodePropMap(cluster, pgraph, "p", variant=RuntimeVariant.KIMBAP)
        prop.set_initial(lambda n: n)
        cluster.reset()
        prop.pin_mirrors(invariant="none")
        assert cluster.log.total_messages() > 0

    def test_bad_invariant_rejected(self):
        cluster, _, prop = self.make_pinned()
        with pytest.raises(ValueError):
            prop.pin_mirrors(invariant="sideways")


class TestActivitySnapshots:
    """Checkpoints carry *copies* of the pending/activity
    masks: the live ones are scattered into and cleared in place, which a
    snapshot sharing their memory would silently follow."""

    MASKS = ("updated_masters", "active", "next_active")

    def make(self):
        """A pinned map mid-loop: one node active from a finished round,
        another changed but still pending broadcast."""
        cluster, pgraph, prop = TestPinnedMirrors().make_pinned()
        _, ids = pgraph.mirror_hosts_by_owner[0][0]
        mirrored = ids[:2].tolist()
        assert len(set(mirrored)) == 2
        prop.reset_updated()
        self.round(cluster, prop, mirrored[0], -5)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prop.reduce(0, 0, mirrored[1], -6, MIN)
        prop.reduce_sync()
        return cluster, pgraph, prop

    @staticmethod
    def round(cluster, prop, node, value):
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prop.reduce(0, 0, node, value, MIN)
        prop.reduce_sync()
        TestActivitySnapshots.finish_round(prop)

    @staticmethod
    def finish_round(prop):
        prop.broadcast_sync()
        prop.reset_updated()

    @staticmethod
    def activity(pgraph, prop):
        return [
            [prop.is_active(part.host_id, k) for k in part.local_to_global.tolist()]
            for part in pgraph.parts
        ]

    def assert_disjoint(self, state, prop):
        live = {
            "updated_masters": prop._updated_masters,
            "active": prop._active,
            "next_active": prop._next_active,
        }
        for name in self.MASKS:
            for saved in state[name]:
                assert saved.dtype == bool
                assert not any(np.shares_memory(saved, mask) for mask in live[name])

    def test_checkpoint_restores_activity_twice(self):
        cluster, pgraph, prop = self.make()
        saved = prop.checkpoint_state()
        self.assert_disjoint(saved, prop)
        now = self.activity(pgraph, prop)
        self.finish_round(prop)
        after = self.activity(pgraph, prop)
        assert now != after and any(any(host) for host in after)
        for value in (-7, -8):
            self.round(cluster, prop, int(pgraph.parts[1].masters_global[0]), value)
            assert self.activity(pgraph, prop) != now
            prop.restore_state(saved)
            self.assert_disjoint(saved, prop)
            assert self.activity(pgraph, prop) == now
            self.finish_round(prop)
            assert self.activity(pgraph, prop) == after

    def test_checkpoint_state_installs_activity_on_a_second_map(self):
        _, pgraph, prop = self.make()
        state = prop.checkpoint_state()
        replica = NodePropMap(Cluster(4, threads_per_host=4), pgraph, "p")
        replica.restore_state(state)
        self.assert_disjoint(state, replica)
        assert self.activity(pgraph, replica) == self.activity(pgraph, prop)
        self.finish_round(prop)
        self.finish_round(replica)
        after = self.activity(pgraph, prop)
        assert any(any(host) for host in after)
        assert self.activity(pgraph, replica) == after


class TestDenseTranslation:
    """The bulk paths translate global ids with the store's dense
    global->local array; the per-key dict is the reference."""

    @pytest.mark.parametrize("policy", ["oec", "cvc", "hvc"])
    @pytest.mark.parametrize("dedup", [True, False])
    def test_pinned_request_bulk_matches_per_key_requests(self, policy, dedup):
        graph = generators.powerlaw_like(6, seed=2)
        pgraph = partition(graph, 4, policy)
        # Every node twice, plus the same again: masters, pinned mirrors,
        # keys with no proxy on the host, and duplicates.
        keys = np.concatenate([np.arange(graph.num_nodes)] * 2)[::-1].copy()
        outcomes = []
        for bulk in (False, True):
            cluster = Cluster(4, threads_per_host=4)
            prop = NodePropMap(cluster, pgraph, "p", request_dedup=dedup)
            prop.set_initial(lambda n: n)
            prop.pin_mirrors()
            cluster.reset()
            accepted = []
            with cluster.phase(PhaseKind.REDUCE_COMPUTE):
                for host in range(4):
                    if bulk:
                        accepted.append(prop.request_bulk(host, keys).tolist())
                    else:
                        accepted.append([prop.request(host, k) for k in keys.tolist()])
            pending = [bitset.nonzero().tolist() for bitset in prop.bitsets]
            outcomes.append(
                (accepted, pending, prop._dup_requests, cluster.log.total_counters())
            )
        assert outcomes[0] == outcomes[1]
        assert any(any(row) for row in outcomes[0][0])

    @pytest.mark.parametrize("policy", ["cvc", "hvc", "iec"])
    @pytest.mark.parametrize("invariant", ["push", "pull"])
    def test_mirror_targets_match_dict_translation(self, policy, invariant):
        graph = generators.powerlaw_like(6, seed=2)
        pgraph = partition(graph, 4, policy)
        prop = NodePropMap(Cluster(4, threads_per_host=4), pgraph, "p")
        fan_out = prop._mirror_targets(invariant)
        kept_any = False
        for owner_host, pairs in enumerate(pgraph.mirror_hosts_by_owner):
            expected = {}
            for mirror_host, ids in pairs:
                part = pgraph.parts[mirror_host]
                locals_ = [part.global_to_local[g] for g in ids.tolist()]
                if invariant == "push":
                    degrees = [part.indptr[i + 1] - part.indptr[i] for i in locals_]
                else:
                    degrees = [part.in_degrees[i] for i in locals_]
                kept = [g for g, d in zip(ids.tolist(), degrees) if d > 0]
                if kept:
                    expected[mirror_host] = kept
            got = {feed.mirror_host: feed.ids.tolist() for feed in fan_out[owner_host]}
            assert got == expected
            # The frozen translations are the dict ones, on either side.
            for feed in fan_out[owner_host]:
                owner_part = pgraph.parts[owner_host]
                mirror_part = pgraph.parts[feed.mirror_host]
                assert feed.owner_locals.tolist() == [
                    owner_part.global_to_local[g] for g in feed.ids.tolist()
                ]
                assert feed.mirror_locals.tolist() == [
                    mirror_part.global_to_local[g] for g in feed.ids.tolist()
                ]
                assert (feed.mirror_locals >= mirror_part.num_masters).all()
            kept_any = kept_any or bool(expected)
        assert kept_any or policy != "cvc"  # some policies elide every mirror

    def test_snapshot_array_rejects_unset_masters(self):
        _, pgraph, prop = make_map()
        with pytest.raises(ValueError, match="uninitialized or non-numeric"):
            prop.snapshot_array()


class TestSyncRoute:
    def test_route_is_reused_for_the_same_collected_keys_only(self):
        cluster, pgraph, prop = make_map(hosts=3, policy="cvc")
        keys = np.arange(pgraph.num_nodes, dtype=np.int64)
        route = prop._route(1, keys)
        assert prop._route(1, keys) is route
        assert prop._route(1, keys.copy()) is not route
        own, remote = route
        assert own.owner == 1 and [leg.owner for leg in remote] == [0, 2]
        for leg in (own, *remote):
            # Blocked ownership (every policy's): legs are range cuts.
            assert isinstance(leg.idx, slice) and leg.keys.base is keys
            store = prop.stores[leg.owner]
            assert keys[leg.idx].tolist() == leg.keys.tolist()
            assert set(pgraph.owner[leg.keys].tolist()) == {leg.owner}
            with cluster.phase(PhaseKind.REDUCE_SYNC):
                assert leg.locals_.tolist() == [
                    store.master_local(k) for k in leg.keys.tolist()
                ]

    @given(
        picked=st.lists(st.booleans(), min_size=24, max_size=24),
        policy=st.sampled_from(["oec", "iec", "cvc", "hvc"]),
        host=st.integers(0, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_cut_route_equals_the_per_owner_route(self, picked, policy, host):
        # The same ascending keys routed both ways: by cutting them at
        # the owners' block starts, and - blockedness forgotten - by the
        # general per-owner selection off the owner column, each leg
        # translated through its owner's dict.
        _, pgraph, prop = make_map(hosts=3, policy=policy)
        keys = np.flatnonzero(picked[: pgraph.num_nodes]).astype(np.int64)
        assert prop._owner_starts is not None
        cut_own, cut_remote = prop._route(host, keys)
        owners = pgraph.owner[keys]
        positions = {
            owner: np.flatnonzero(owners == owner) for owner in np.unique(owners).tolist()
        }
        assert (cut_own is None) == (host not in positions)
        assert [leg.owner for leg in cut_remote] == [o for o in positions if o != host]
        for cut in (leg for leg in [cut_own, *cut_remote] if leg is not None):
            leg_keys = keys[positions[cut.owner]].tolist()
            assert keys[cut.idx].tolist() == leg_keys
            assert cut.keys.tolist() == leg_keys
            to_local = pgraph.parts[cut.owner].global_to_local
            assert cut.locals_.tolist() == [to_local[k] for k in leg_keys]


class TestCrossVariantAgreement:
    @given(
        st.lists(
            st.tuples(st.integers(0, 23), st.integers(-100, 100)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_min_reductions_agree_everywhere(self, updates):
        """All four runtimes must produce identical canonical values for the
        same reduction stream - the paper's variants differ in cost only."""
        snapshots = []
        for variant in ALL_VARIANTS:
            cluster, pgraph, prop = make_map(variant)
            prop.set_initial(lambda n: 1000)
            with cluster.phase(PhaseKind.REDUCE_COMPUTE):
                for index, (key, value) in enumerate(updates):
                    host = index % cluster.num_hosts
                    thread = index % cluster.threads_per_host
                    prop.reduce(host, thread, key, value, MIN)
            prop.reduce_sync()
            snapshots.append(prop.snapshot())
        assert all(snapshot == snapshots[0] for snapshot in snapshots[1:])


class TestMessageAccounting:
    def test_value_nbytes_scales_reduce_traffic(self):
        cluster8, pgraph, prop8 = make_map(RuntimeVariant.KIMBAP)
        prop8.set_initial(lambda n: 0)
        cluster8.reset()
        remote = int(pgraph.parts[-1].masters_global[0])
        with cluster8.phase(PhaseKind.REDUCE_COMPUTE):
            prop8.reduce(0, 0, remote, -1, MIN)
        prop8.reduce_sync()
        bytes8 = cluster8.log.total_bytes()

        cluster32, pgraph2, _ = make_map(RuntimeVariant.KIMBAP)
        prop32 = NodePropMap(
            cluster32, pgraph2, "wide", variant=RuntimeVariant.KIMBAP, value_nbytes=32
        )
        prop32.set_initial(lambda n: 0)
        cluster32.reset()
        with cluster32.phase(PhaseKind.REDUCE_COMPUTE):
            prop32.reduce(0, 0, remote, -1, MIN)
        prop32.reduce_sync()
        assert cluster32.log.total_bytes() > bytes8

    def test_mismatched_cluster_rejected(self):
        graph = generators.road_like(6, 4, seed=0)
        pgraph = partition(graph, 2, "oec")
        cluster = Cluster(3)
        with pytest.raises(ValueError):
            NodePropMap(cluster, pgraph, "p")


class TestReadBulk:
    """``read_bulk`` is the per-key ``read`` loop with aggregate charges:
    same values, same ``Counters`` in every field, same ``KeyError``."""

    HOSTS = 4

    def build(self, policy, variant, layout, list_mode):
        """One map in the state a pointer-jumping round reads it in:
        requested remotes materialized, then mirrors pinned under the
        ``push`` invariant - so some pinned mirrors are broadcast, some
        are empty and were requested (served from the cache), and some
        are empty and unreadable."""
        graph = generators.powerlaw_like(6, seed=2)
        pgraph = partition(graph, self.HOSTS, policy)
        cluster = Cluster(self.HOSTS, threads_per_host=4)
        prop = NodePropMap(
            cluster, pgraph, "p", variant=variant, remote_layout=layout
        )
        prop.set_initial_bulk(lambda nodes: nodes * 3)
        if list_mode:
            # What MSF's hook does to msf_parent: a scalar reduce and its
            # sync flip every owner's column to list mode.
            with cluster.phase(PhaseKind.REDUCE_COMPUTE):
                for part in pgraph.parts:
                    key = int(part.masters_global[0])
                    prop.reduce(part.host_id, 0, key, key * 3 - 1, MIN)
            prop.reduce_sync()
        rng = np.random.default_rng(5)
        with cluster.phase(PhaseKind.REQUEST_COMPUTE):
            for host in range(self.HOSTS):
                wanted = rng.choice(graph.num_nodes, size=graph.num_nodes // 2)
                prop.request_bulk(host, wanted)
        prop.request_sync()
        prop.pin_mirrors(invariant="push")
        cluster.reset()
        return cluster, pgraph, prop

    def readable(self, policy, variant, layout, list_mode):
        """Per host: the keys a per-key ``read`` serves, and those it
        refuses (probed on a map of its own: a scalar read flips modes)."""
        cluster, pgraph, prop = self.build(policy, variant, layout, list_mode)
        served, refused = [], []
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for host in range(self.HOSTS):
                ok, bad = [], []
                for key in range(pgraph.num_nodes):
                    try:
                        prop.read(host, key)
                        ok.append(key)
                    except KeyError:
                        bad.append(key)
                served.append(ok)
                refused.append(bad)
        return served, refused

    def read_all(self, prop, cluster, batches, bulk):
        values = []
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for host, keys in enumerate(batches):
                if bulk:
                    values.append(prop.read_bulk(host, keys).tolist())
                else:
                    values.append([prop.read(host, key) for key in keys.tolist()])
        return values, [counters.as_dict() for counters in cluster.log.phases[-1].counters]

    @pytest.mark.parametrize("list_mode", [False, True], ids=["array", "list"])
    @pytest.mark.parametrize(
        "variant,layout",
        [(RuntimeVariant.KIMBAP, "sorted"), (RuntimeVariant.KIMBAP, "hash")]
        + [(v, "sorted") for v in ALL_VARIANTS if v is not RuntimeVariant.KIMBAP],
        ids=lambda value: getattr(value, "name", value),
    )
    @pytest.mark.parametrize("policy", ["oec", "cvc"])
    def test_matches_the_per_key_read_loop(self, policy, variant, layout, list_mode):
        args = (policy, variant, layout, list_mode)
        served, refused = self.readable(*args)
        rng = np.random.default_rng(9)
        # Every readable key, then as many again drawn with repeats.
        batches = [
            np.concatenate([keys, rng.choice(keys, size=len(keys))])
            for keys in map(np.asarray, served)
        ]
        cluster, pgraph, prop = self.build(*args)
        twin_cluster, _, twin = self.build(*args)
        if variant.uses_gar:
            assert all((store._valid is None) == list_mode for store in prop.stores)
        got, got_counters = self.read_all(prop, cluster, batches, bulk=True)
        want, want_counters = self.read_all(twin, twin_cluster, batches, bulk=False)
        assert got == want
        assert got_counters == want_counters
        total = cluster.log.total_counters()
        assert total.reads_master and total.reads_remote
        if variant.uses_gar:
            # Every path was crossed: own masters, pinned mirrors, and the
            # requested-remote cache.
            cache_lookups = total.hash_probes if layout == "hash" else total.binsearch_steps
            assert cache_lookups and total.vector_reads > total.reads_master
        for host, keys in enumerate(refused):
            if keys:
                batch = np.append(batches[host][:5], keys[0])
                with cluster.phase(PhaseKind.REDUCE_COMPUTE):
                    with pytest.raises(KeyError):
                        prop.read_bulk(host, batch)
                with twin_cluster.phase(PhaseKind.REDUCE_COMPUTE):
                    with pytest.raises(KeyError):
                        [twin.read(host, key) for key in batch.tolist()]
        if variant.uses_gar:
            assert any(refused)

    def test_empty_batch_reads_nothing_and_charges_nothing(self):
        cluster, _, prop = self.build("oec", RuntimeVariant.KIMBAP, "sorted", False)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert prop.read_bulk(0, np.empty(0, dtype=np.int64)).size == 0
        assert cluster.log.total_counters() == type(cluster.log.total_counters())()

    def test_a_host_without_nodes_refuses_like_the_per_key_read(self):
        """More hosts than nodes leaves a host with no slot at all: its bulk
        read refuses the first key with the per-key read's ``KeyError``."""
        pgraph = partition(generators.path(3), 5, "oec")
        empty = next(part.host_id for part in pgraph.parts if part.num_local == 0)
        cluster = Cluster(5, threads_per_host=2)
        prop = NodePropMap(cluster, pgraph, "p")
        prop.set_initial_bulk(lambda nodes: nodes * 3)
        refusals = []
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for read in (lambda: prop.read_bulk(empty, np.array([0, 1])),
                         lambda: prop.read(empty, 0)):
                with pytest.raises(KeyError) as refused:
                    read()
                refusals.append(str(refused.value))
        assert refusals[0] == refusals[1]


class TestOutOfRangeIds:
    """A read or request of an id outside ``[0, num_nodes)`` raises the
    ``KeyError`` a reduce does, before anything is charged or recorded.
    The dense tables behind the GAR paths would otherwise wrap a negative
    id round to the last nodes (a scalar read of -1 read node 28, a bulk
    read node 31, and a request of -1 requested node 31) or index past
    the end."""

    VALUE = 10.0

    @pytest.mark.parametrize("key", [-1, -32, 32, 10**6])
    @pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.name)
    def test_reads_and_requests_refuse_before_charging(self, variant, key):
        graph = generators.road_like(rows=8, cols=4, seed=1)
        cluster, pgraph, prop = make_map(variant, hosts=2, policy="cvc", graph=graph)
        assert pgraph.num_nodes == 32
        prop.set_initial_bulk(lambda nodes: nodes * self.VALUE)
        before = cluster.log.total_counters()
        calls = (
            lambda: prop.read(1, key),
            lambda: prop.read_bulk(1, np.array([0, key])),
            lambda: prop.request(0, key),
            lambda: prop.request_bulk(0, np.array([key, 5])),
        )
        with cluster.phase(PhaseKind.REQUEST_COMPUTE):
            for call in calls:
                with pytest.raises(KeyError, match=f"{key} is not a node id"):
                    call()
        assert cluster.log.total_counters() == before
        assert not any(len(bitset) for bitset in prop.bitsets)
        assert prop._dup_requests == [[], []]

    @pytest.mark.parametrize("key", [-1, 10**6])
    def test_reduce_raises_the_same_error(self, key):
        cluster, _, prop = make_map(hosts=2, policy="cvc")
        calls = (
            lambda: prop.reduce(0, 0, key, 1.0, MIN),
            lambda: prop.reduce_bulk(
                0, np.zeros(1, dtype=np.int64), np.array([key]), np.ones(1), MIN
            ),
        )
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for call in calls:
                with pytest.raises(KeyError, match=f"reduce target {key} is not a node id"):
                    call()


class TestRequestSyncModel:
    """Request-sync against a per-owner reference model kept here: per
    requester (ascending) the keys it asked for that are neither its own
    masters nor - while pinned - its mirrors, ascending (repeats kept
    without deduplication); per owner of those (ascending) one request
    message of 8 bytes a key and one reply of 16; the owner reads each
    key once (``vector_reads``), the requester materializes each. The
    cache then holds every accepted key with its owner's value."""

    HOSTS = 4

    @settings(max_examples=60, deadline=None)
    @given(
        policy=st.sampled_from(["oec", "cvc", "hvc"]),
        dedup=st.booleans(),
        pinned=st.booleans(),
        list_mode=st.booleans(),
        layout=st.sampled_from(["sorted", "hash"]),
        scalar=st.booleans(),
        wanted=st.lists(
            st.lists(st.integers(0, 63), max_size=40), min_size=4, max_size=4
        ),
    )
    def test_matches_the_per_owner_model(
        self, policy, dedup, pinned, list_mode, layout, scalar, wanted
    ):
        graph = generators.powerlaw_like(6, seed=2)
        pgraph = partition(graph, self.HOSTS, policy)
        cluster = Cluster(self.HOSTS, threads_per_host=4)
        prop = NodePropMap(
            cluster, pgraph, "p", request_dedup=dedup, remote_layout=layout
        )
        if list_mode:
            prop.set_initial(lambda node: node * 3 + 1)
        else:
            prop.set_initial_bulk(lambda nodes: nodes * 3 + 1)
        if pinned:
            prop.pin_mirrors()
        with cluster.phase(PhaseKind.REQUEST_COMPUTE):
            for host, keys in enumerate(wanted):
                if scalar:
                    for key in keys:
                        prop.request(host, key)
                else:
                    prop.request_bulk(host, np.array(keys, dtype=np.int64))
        sent = []
        send = cluster.network.send
        cluster.network.send = lambda src, dst, nbytes: (
            sent.append((src, dst, nbytes)), send(src, dst, nbytes)
        )
        prop.request_sync()

        want_sent = []
        want_cells = np.zeros((self.HOSTS, len(CELL_FIELDS)), dtype=np.int64)
        for host, keys in enumerate(wanted):
            part = pgraph.parts[host]
            accepted = [
                key for key in keys
                if pgraph.owner[key] != host
                and not (
                    pinned and part.global_to_local.get(key, -1) >= part.num_masters
                )
            ]
            accepted = sorted(set(accepted) if dedup else accepted)
            for owner in sorted({int(pgraph.owner[key]) for key in accepted}):
                count = sum(1 for key in accepted if pgraph.owner[key] == owner)
                want_sent += [(host, owner, 8 * count), (owner, host, 16 * count)]
                want_cells[owner, CELL_FIELDS.index("vector_reads")] += count
            want_cells[host, CELL_FIELDS.index("materialize_ops")] += len(accepted)
            store = prop.stores[host]
            if layout == "hash":
                cache = sorted(store._remote_hash.items())
            else:
                cache = list(zip(store._remote_keys.tolist(), store._remote_values))
            assert cache == [(key, key * 3 + 1) for key in sorted(set(accepted))]
            assert all(type(value) is int for _, value in cache)
        assert sent == want_sent
        field = CELL_FIELDS.index
        for src, dst, nbytes in want_sent:
            want_cells[src, field("msgs_sent")] += 1
            want_cells[src, field("bytes_sent")] += nbytes
            want_cells[dst, field("msgs_recv")] += 1
            want_cells[dst, field("bytes_recv")] += nbytes
        assert cluster.log.cells()[-1].tolist() == want_cells.tolist()
