"""Backend contract suite: ``can_read`` <-> ``read`` parity and metering.

Regression tests for the four metering/contract bugs (pinned-but-unbroadcast
mirrors, unmetered readability checks, double-counted read statistics,
unstable duplicate-key materialization) plus a hypothesis model test driving
``GarHostStore`` (both remote layouts) and ``HashHostStore`` through
identical op sequences.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.costmodel import DEFAULT_WEIGHTS
from repro.cluster.metrics import STATISTIC_FIELDS, Counters, PhaseKind
from repro.core.backends import GarHostStore, HashHostStore
from repro.graph import generators
from repro.partition import partition

NUM_HOSTS = 3


def make_setup():
    graph = generators.road_like(6, 4, seed=0)
    pgraph = partition(graph, NUM_HOSTS, "oec")
    cluster = Cluster(NUM_HOSTS, threads_per_host=4)
    return graph, pgraph, cluster


def mirror_host(pgraph):
    return next(p for p in pgraph.parts if p.num_mirrors).host_id


class TestPinnedUnbroadcastMirror:
    """Bug 1: can_read said True for a pinned mirror with no value."""

    def test_unbroadcast_mirror_is_not_readable(self):
        _, pgraph, cluster = make_setup()
        host = mirror_host(pgraph)
        store = GarHostStore(cluster, pgraph, host)
        mirror = int(pgraph.parts[host].mirrors_global[0])
        store.pin()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert not store.can_read(mirror)
            with pytest.raises(KeyError):
                store.read(mirror)

    def test_broadcast_mirror_becomes_readable(self):
        _, pgraph, cluster = make_setup()
        host = mirror_host(pgraph)
        store = GarHostStore(cluster, pgraph, host)
        mirror = int(pgraph.parts[host].mirrors_global[0])
        store.pin()
        with cluster.phase(PhaseKind.BROADCAST_SYNC):
            store.write_mirror_bulk(np.array([mirror]), [11])
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert store.can_read(mirror)
            assert store.read(mirror) == 11

    @pytest.mark.parametrize("layout", ["sorted", "hash"])
    def test_unbroadcast_mirror_falls_through_to_remote_cache(self, layout):
        # The key may still have been requested this round: both can_read
        # and read must consult the remote cache behind the empty mirror.
        _, pgraph, cluster = make_setup()
        host = mirror_host(pgraph)
        store = GarHostStore(cluster, pgraph, host, remote_layout=layout)
        mirror = int(pgraph.parts[host].mirrors_global[0])
        store.pin()
        with cluster.phase(PhaseKind.REQUEST_SYNC):
            store.materialize_remote(np.array([mirror], dtype=np.int64), [7])
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert store.can_read(mirror)
            assert store.read(mirror) == 7

    def test_uninitialized_master_is_not_readable(self):
        _, pgraph, cluster = make_setup()
        store = GarHostStore(cluster, pgraph, 0)
        master = int(pgraph.parts[0].masters_global[0])
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert not store.can_read(master)
            with pytest.raises(KeyError):
                store.read(master)
            store.write_master(master, 1)
            assert store.can_read(master)
            assert store.read(master) == 1


class TestCanReadMetering:
    """Bug 2: readability checks performed real probes but charged nothing."""

    def test_sorted_layout_charges_binsearch_steps(self):
        _, pgraph, cluster = make_setup()
        store = GarHostStore(cluster, pgraph, 0, remote_layout="sorted")
        keys = [int(k) for k in pgraph.parts[1].masters_global[:4]]
        with cluster.phase(PhaseKind.REQUEST_SYNC):
            store.materialize_remote(np.array(keys, dtype=np.int64), list(keys))
        expected = int(math.log2(len(keys))) + 1
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert store.can_read(keys[0])
        check_cost = cluster.log.phases[-1].counters[0].binsearch_steps
        assert check_cost == expected
        # ...and priced exactly like the read it guards.
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            store.read(keys[0])
        read_cost = cluster.log.phases[-1].counters[0].binsearch_steps
        assert check_cost == read_cost

    def test_hash_layout_charges_hash_probes(self):
        _, pgraph, cluster = make_setup()
        store = GarHostStore(cluster, pgraph, 0, remote_layout="hash")
        key = int(pgraph.parts[1].masters_global[0])
        with cluster.phase(PhaseKind.REQUEST_SYNC):
            store.materialize_remote(np.array([key], dtype=np.int64), [5])
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert store.can_read(key)
        counters = cluster.log.phases[-1].counters[0]
        assert counters.hash_probes == 1
        assert counters.binsearch_steps == 0

    def test_hash_store_charges_hash_probes(self):
        _, pgraph, cluster = make_setup()
        store = HashHostStore(cluster, pgraph, 1, NUM_HOSTS)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            store.can_read(4)
        assert cluster.log.phases[-1].counters[1].hash_probes == 1

    def test_checks_outside_a_phase_are_free_and_legal(self):
        _, pgraph, cluster = make_setup()
        store = GarHostStore(cluster, pgraph, 0)
        key = int(pgraph.parts[0].masters_global[0])
        assert not store.can_read(key)  # no phase open: must not raise
        assert not cluster.log.phases


class TestTotalEvents:
    """Bug 3: statistics mirrors double-counted every read."""

    def test_statistics_fields_excluded(self):
        counters = Counters(reads_master=3, reads_remote=4, vector_reads=7)
        assert counters.total_events() == 7

    def test_zero_weight_set_is_shared_with_cost_model(self):
        zero_weight = {name for name, w in DEFAULT_WEIGHTS.items() if w == 0.0}
        assert zero_weight == set(STATISTIC_FIELDS)

    def test_all_priced_fields_still_counted(self):
        counters = Counters(node_iters=1, edge_iters=2, hash_probes=3)
        assert counters.total_events() == 6


class TestDuplicateKeyMaterialize:
    """Bug 4: same-key ties within a batch resolved by unstable argsort."""

    @pytest.mark.parametrize("layout", ["sorted", "hash"])
    def test_last_value_wins_within_one_batch(self, layout):
        _, pgraph, cluster = make_setup()
        store = GarHostStore(cluster, pgraph, 0, remote_layout=layout)
        k1 = int(pgraph.parts[1].masters_global[0])
        k2 = int(pgraph.parts[1].masters_global[1])
        keys = np.array([k1, k1, k2, k1], dtype=np.int64)
        with cluster.phase(PhaseKind.REQUEST_SYNC):
            store.materialize_remote(keys, ["a", "b", "c", "d"])
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert store.read(k1) == "d"
            assert store.read(k2) == "c"
        assert store.remote_cache_size == 2

    def test_last_wins_across_many_duplicates(self):
        # Enough duplicates that quicksort's tie order would be arbitrary.
        _, pgraph, cluster = make_setup()
        store = GarHostStore(cluster, pgraph, 0)
        key = int(pgraph.parts[1].masters_global[0])
        keys = np.array([key] * 64, dtype=np.int64)
        with cluster.phase(PhaseKind.REQUEST_SYNC):
            store.materialize_remote(keys, list(range(64)))
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert store.read(key) == 63
        assert store.remote_cache_size == 1


# --------------------------------------------------------------------------
# Hypothesis model: identical op sequences through all three backends.
# --------------------------------------------------------------------------

_GRAPH, _PGRAPH, _ = make_setup()
_HOST = mirror_host(_PGRAPH)
_MASTERS = [int(g) for g in _PGRAPH.parts[_HOST].masters_global]
_MIRRORS = [int(g) for g in _PGRAPH.parts[_HOST].mirrors_global]
_VALUES = st.integers(min_value=-100, max_value=100)

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("write_master"),
            st.integers(min_value=0, max_value=len(_MASTERS) - 1),
            _VALUES,
        ),
        st.tuples(
            st.just("materialize"),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=_GRAPH.num_nodes - 1),
                    _VALUES,
                ),
                min_size=1,
                max_size=8,
            ),
        ),
        st.tuples(st.just("drop")),
        st.tuples(st.just("pin")),
        st.tuples(st.just("unpin")),
        st.tuples(
            st.just("write_mirror"),
            st.integers(min_value=0, max_value=len(_MIRRORS) - 1),
            _VALUES,
        ),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_backend_contract_parity(ops):
    """For every backend and every key: can_read(k) == (read(k) succeeds);
    the two GAR remote layouts agree on readability *and* values."""
    _, pgraph, cluster = make_setup()
    gar_sorted = GarHostStore(cluster, pgraph, _HOST, remote_layout="sorted")
    gar_hash = GarHostStore(cluster, pgraph, _HOST, remote_layout="hash")
    hash_store = HashHostStore(cluster, pgraph, _HOST, NUM_HOSTS)
    stores = (gar_sorted, gar_hash, hash_store)
    gar_stores = (gar_sorted, gar_hash)

    with cluster.phase(PhaseKind.REDUCE_COMPUTE):
        for op in ops:
            if op[0] == "write_master":
                key, value = _MASTERS[op[1]], op[2]
                for store in stores:
                    store.write_master(key, value)
            elif op[0] == "materialize":
                keys = np.array([k for k, _ in op[1]], dtype=np.int64)
                values = [v for _, v in op[1]]
                for store in stores:
                    store.materialize_remote(keys, values)
            elif op[0] == "drop":
                for store in stores:
                    store.drop_remote()
            elif op[0] == "pin":
                for store in stores:
                    store.pin()
            elif op[0] == "unpin":
                for store in stores:
                    store.unpin()
            elif op[0] == "write_mirror":
                key, value = _MIRRORS[op[1]], op[2]
                for store in gar_stores:  # no mirror slots without GAR
                    store.write_mirror_bulk(np.array([key]), [value])

        for key in range(pgraph.num_nodes):
            outcomes = []
            for store in stores:
                claimed = store.can_read(key)
                try:
                    value = store.read(key)
                    readable = True
                except KeyError:
                    value, readable = None, False
                assert claimed == readable, (
                    f"{type(store).__name__}/{getattr(store, 'remote_layout', '-')}"
                    f": can_read({key})={claimed} but read "
                    f"{'succeeded' if readable else 'raised'}"
                )
                outcomes.append((readable, value))
            # The two GAR layouts differ only in remote-cache representation:
            # identical ops must yield identical readability and values.
            assert outcomes[0] == outcomes[1]


# --------------------------------------------------------------------------
# Type-leak guard: array-mode columns must never let a numpy scalar out.
# --------------------------------------------------------------------------


def _assert_native(values, where):
    leaked = {type(v).__name__ for v in values if type(v) not in (int, float)}
    assert not leaked, f"{where} holds non-native values: {sorted(leaked)}"


def _assert_checkpoint_native(state, where):
    for host, store_state in enumerate(state["stores"]):
        column = store_state["column"]
        if column[0] == "list":
            _assert_native([v for v in column[1] if v is not None], f"{where} list")
        else:
            assert column[1] is None or column[1].dtype in (np.int64, np.float64)
        _assert_native(store_state["remote_values"], f"{where} remote cache {host}")
        _assert_native(store_state["remote_hash"].values(), f"{where} remote hash")


@pytest.mark.parametrize("app", ["PR", "SSSP", "CC-SV"])
def test_bulk_runs_leak_no_numpy_scalars(app, monkeypatch):
    """PR and SSSP keep their columns in array mode for the whole run and
    CC-SV's scalar kernels convert them mid-run; in every case what leaves
    the stores - final values, snapshots, the requested-remote cache at
    the moment it is filled, checkpoints - is plain ``int``/``float``."""
    from repro.core.propmap import NodePropMap
    from repro.eval.harness import run_kimbap

    maps = []
    init = NodePropMap.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        maps.append(self)

    materialize = GarHostStore.materialize_remote
    cached = []

    def checking_materialize(self, keys, values):
        materialize(self, keys, values)
        _assert_native(self._remote_values, "remote cache")
        cached.append(len(self._remote_values))

    monkeypatch.setattr(NodePropMap, "__init__", recording_init)
    monkeypatch.setattr(GarHostStore, "materialize_remote", checking_materialize)
    run = run_kimbap(app, "powerlaw", 4, bulk=True)

    _assert_native(run.values.values(), "run.values")
    assert maps
    array_mode = 0
    for prop in maps:
        _assert_native(prop.snapshot().values(), f"{prop.name}.snapshot()")
        _assert_checkpoint_native(prop.checkpoint_state(), prop.name)
        array_mode += sum(store._valid is not None for store in prop.stores)
    if app == "CC-SV":
        assert cached and max(cached) > 0  # the trans-vertex requests ran
    else:
        assert array_mode  # the guard looked at live ndarray columns


def test_serve_requests_from_an_array_mode_owner_materializes_natives():
    from repro.core import NodePropMap

    _, pgraph, cluster = make_setup()
    prop = NodePropMap(cluster, pgraph, "p")
    prop.set_initial_bulk(lambda nodes: nodes * 0.5)
    host = mirror_host(pgraph)
    wanted = pgraph.parts[host].mirrors_global
    with cluster.phase(PhaseKind.REDUCE_COMPUTE):
        assert prop.request_bulk(host, wanted).all()
    prop.request_sync()
    store = prop.stores[host]
    assert store._remote_keys.tolist() == sorted(wanted.tolist())
    _assert_native(store._remote_values, "remote cache")
    assert store._remote_values == [k * 0.5 for k in sorted(wanted.tolist())]
    # Serving never needed the per-element API: the owners stay array mode.
    assert all(s._valid is not None for s in prop.stores)
    with cluster.phase(PhaseKind.REDUCE_COMPUTE):
        assert type(prop.read(host, int(wanted[0]))) is float
