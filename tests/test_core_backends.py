"""Direct unit tests for the per-host storage backends."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core.backends import GarHostStore, HashHostStore
from repro.core.reducers import MIN, OVERWRITE, PAIR_MIN, SUM
from repro.graph import generators
from repro.partition import partition


@pytest.fixture
def setup():
    graph = generators.road_like(6, 4, seed=0)
    pgraph = partition(graph, 3, "oec")
    cluster = Cluster(3, threads_per_host=4)
    return graph, pgraph, cluster


class TestGarHostStore:
    def test_master_translation_is_contiguous(self, setup):
        _, pgraph, cluster = setup
        store = GarHostStore(cluster, pgraph, 1)
        masters = pgraph.parts[1].masters_global
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for offset, key in enumerate(masters.tolist()):
                assert store.master_local(key) == offset
            assert store.master_local(int(pgraph.parts[0].masters_global[0])) is None
        # contiguity path charges no hash probes
        assert cluster.log.total_counters().hash_probes == 0

    def test_write_then_serve(self, setup):
        _, pgraph, cluster = setup
        store = GarHostStore(cluster, pgraph, 0)
        key = int(pgraph.parts[0].masters_global[0])
        with cluster.phase(PhaseKind.INIT):
            store.write_master(key, 42)
            assert store.serve_master(key) == 42

    def test_write_foreign_master_rejected(self, setup):
        _, pgraph, cluster = setup
        store = GarHostStore(cluster, pgraph, 0)
        foreign = int(pgraph.parts[1].masters_global[0])
        with cluster.phase(PhaseKind.INIT):
            with pytest.raises(KeyError):
                store.write_master(foreign, 1)

    def test_apply_master_reports_change(self, setup):
        _, pgraph, cluster = setup
        store = GarHostStore(cluster, pgraph, 0)
        key = int(pgraph.parts[0].masters_global[0])
        with cluster.phase(PhaseKind.INIT):
            store.write_master(key, 10)
            assert store.apply_master(key, 5, MIN) is True
            assert store.apply_master(key, 7, MIN) is False
            assert store.serve_master(key) == 5

    def test_apply_to_unset_master_takes_value(self, setup):
        _, pgraph, cluster = setup
        store = GarHostStore(cluster, pgraph, 0)
        key = int(pgraph.parts[0].masters_global[0])
        with cluster.phase(PhaseKind.INIT):
            assert store.apply_master(key, 3, SUM) is True
            assert store.serve_master(key) == 3

    def test_remote_merge_keeps_both_batches(self, setup):
        _, pgraph, cluster = setup
        store = GarHostStore(cluster, pgraph, 0)
        keys = [int(k) for k in pgraph.parts[1].masters_global[:3]]
        with cluster.phase(PhaseKind.REQUEST_SYNC):
            store.materialize_remote(np.array(keys[:2][::-1]), ["b", "a"])
            store.materialize_remote(np.array([keys[2]]), ["c"])
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert store.read(keys[0]) == "a"
            assert store.read(keys[1]) == "b"
            assert store.read(keys[2]) == "c"
        assert store.remote_cache_size == 3

    def test_remote_merge_newer_value_wins(self, setup):
        _, pgraph, cluster = setup
        store = GarHostStore(cluster, pgraph, 0)
        key = int(pgraph.parts[1].masters_global[0])
        with cluster.phase(PhaseKind.REQUEST_SYNC):
            store.materialize_remote(np.array([key]), ["old"])
            store.materialize_remote(np.array([key]), ["new"])
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert store.read(key) == "new"

    def test_mirror_write_requires_mirror(self, setup):
        _, pgraph, cluster = setup
        store = GarHostStore(cluster, pgraph, 0)
        master = int(pgraph.parts[0].masters_global[0])
        with cluster.phase(PhaseKind.BROADCAST_SYNC):
            with pytest.raises(KeyError):
                store.write_mirror(master, 1)

    def test_unpin_invalidates_mirrors_only(self, setup):
        _, pgraph, cluster = setup
        part = next(p for p in pgraph.parts if p.num_mirrors)
        store = GarHostStore(cluster, pgraph, part.host_id)
        master = int(part.masters_global[0])
        mirror = int(part.mirrors_global[0])
        with cluster.phase(PhaseKind.INIT):
            store.write_master(master, 1)
            store.pin()
            store.write_mirror(mirror, 2)
            store.unpin()
            assert store.serve_master(master) == 1
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            with pytest.raises(KeyError):
                store.read(mirror)

    def test_can_read_covers_all_sources(self, setup):
        _, pgraph, cluster = setup
        part = next(p for p in pgraph.parts if p.num_mirrors)
        store = GarHostStore(cluster, pgraph, part.host_id)
        master = int(part.masters_global[0])
        mirror = int(part.mirrors_global[0])
        # a node with no proxy at all on this host
        foreign = next(
            node
            for node in range(pgraph.num_nodes)
            if node not in part.global_to_local
        )
        with cluster.phase(PhaseKind.INIT):
            store.write_master(master, 1)
        assert store.can_read(master)
        assert not store.can_read(mirror)
        with cluster.phase(PhaseKind.INIT):
            store.pin()
            store.write_mirror(mirror, 2)
        assert store.can_read(mirror)
        assert not store.can_read(foreign)


class TestHashHostStore:
    def test_modulo_ownership(self, setup):
        _, pgraph, cluster = setup
        store = HashHostStore(cluster, pgraph, 1, 3)
        assert store.hash_owner(4) == 1
        assert store.hash_owner(5) == 2

    def test_owned_write_and_read(self, setup):
        _, pgraph, cluster = setup
        store = HashHostStore(cluster, pgraph, 1, 3)
        with cluster.phase(PhaseKind.INIT):
            store.write_master(4, "x")
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            assert store.read(4) == "x"

    def test_unfetched_read_raises(self, setup):
        _, pgraph, cluster = setup
        store = HashHostStore(cluster, pgraph, 1, 3)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            with pytest.raises(KeyError):
                store.read(0)

    def test_always_fetch_grows_when_pinned(self, setup):
        _, pgraph, cluster = setup
        part = next(p for p in pgraph.parts if p.num_mirrors)
        store = HashHostStore(cluster, pgraph, part.host_id, 3)
        base = set(store.always_fetch_keys())
        store.pin()
        pinned = set(store.always_fetch_keys())
        assert base == {int(g) for g in part.masters_global}
        assert pinned - base == {int(g) for g in part.mirrors_global}
        store.unpin()
        assert set(store.always_fetch_keys()) == base

    def test_cache_cleared_on_drop(self, setup):
        _, pgraph, cluster = setup
        store = HashHostStore(cluster, pgraph, 1, 3)
        with cluster.phase(PhaseKind.REQUEST_SYNC):
            store.materialize_remote(np.array([7]), ["v"])
        assert store.remote_cache_size == 1
        store.drop_remote()
        assert store.remote_cache_size == 0


class TestReadBulkStores:
    """Store-level corners of ``read_bulk`` (the map-level contract is in
    ``tests/test_core_propmap.py``): an untyped column, and the hash store."""

    @pytest.mark.parametrize("layout", ["sorted", "hash"])
    def test_untyped_column_serves_the_remote_cache_only(self, setup, layout):
        _, pgraph, cluster = setup
        remote = pgraph.parts[1].masters_global[:4]
        master = int(pgraph.parts[0].masters_global[0])
        batch = np.concatenate([remote, remote[::2]])
        outcomes = []
        for bulk in (False, True):
            cluster.reset()
            store = GarHostStore(cluster, pgraph, 0, remote_layout=layout)
            with cluster.phase(PhaseKind.REQUEST_SYNC):
                store.materialize_remote(remote[::-1].copy(), [40, 30, 20, 10])
            with cluster.phase(PhaseKind.REDUCE_COMPUTE) as record:
                if bulk:
                    values = store.read_bulk(batch).tolist()
                else:
                    values = [store.read(key) for key in batch.tolist()]
                # Nothing was ever written: the column stays untyped, so
                # an own master is unreadable either way.
                assert store._col is None
                with pytest.raises(KeyError, match="before initialization"):
                    if bulk:
                        store.read_bulk(np.asarray([master]))
                    else:
                        store.read(master)
            outcomes.append((values, record.counters[0].as_dict()))
            assert store._col is None and _is_array_mode(store) == bulk
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == [10, 20, 30, 40, 10, 30]

    def test_hash_store_matches_the_per_key_loop(self, setup):
        _, pgraph, cluster = setup
        part = _mirror_part(pgraph)
        host = part.host_id
        owned = [key for key in range(pgraph.num_nodes) if key % 3 == host]
        fetched = part.local_to_global[::2]
        batch = np.asarray(owned + fetched.tolist() + owned[:3])
        outcomes = []
        for bulk in (False, True):
            cluster.reset()
            store = HashHostStore(cluster, pgraph, host, 3)
            with cluster.phase(PhaseKind.INIT):
                store.write_master_bulk(np.asarray(owned), [k * 2 for k in owned])
                store.materialize_remote(fetched, (fetched * 5).tolist())
            with cluster.phase(PhaseKind.REDUCE_COMPUTE) as record:
                if bulk:
                    values = store.read_bulk(batch).tolist()
                else:
                    values = [store.read(key) for key in batch.tolist()]
                unfetched = next(
                    key for key in range(pgraph.num_nodes)
                    if key % 3 != host and key not in store.cache
                )
                with pytest.raises(KeyError, match="was it requested"):
                    if bulk:
                        store.read_bulk(np.asarray([unfetched]))
                    else:
                        store.read(unfetched)
            outcomes.append((values, record.counters[host].as_dict()))
        assert outcomes[0] == outcomes[1]
        counters = outcomes[0][1]
        assert counters["reads_master"] and counters["reads_remote"]


# --------------------------------------------------------------------------
# Typed property column: array mode vs list mode.
# --------------------------------------------------------------------------


def _mirror_part(pgraph):
    return next(p for p in pgraph.parts if p.num_mirrors)


def _natives(values):
    """A bulk result as plain values, refusing numpy scalars in lists."""
    if isinstance(values, np.ndarray):
        assert values.dtype in (np.int64, np.float64)
        return values.tolist()
    assert all(not isinstance(v, np.generic) for v in values)
    return list(values)


def _typed(values):
    """Values with their exact types (repr tells 0.0 from -0.0)."""
    return [(type(v), repr(v)) for v in values]


def _is_array_mode(store):
    return store._valid is not None


class TestTypedColumn:
    def _store(self, setup, host=None):
        _, pgraph, cluster = setup
        part = _mirror_part(pgraph) if host is None else pgraph.parts[host]
        return GarHostStore(cluster, pgraph, part.host_id), part, cluster

    def test_typed_bulk_ops_stay_in_array_mode(self, setup):
        store, part, cluster = self._store(setup)
        masters = part.masters_global
        with cluster.phase(PhaseKind.INIT):
            store.write_master_bulk(masters, np.full(masters.size, 10.0))
            changed = store.apply_master_bulk(
                masters[:3], np.array([4.0, 10.0, 12.0]), MIN
            )
            assert changed.tolist() == masters[:1].tolist()
            changed = store.apply_master_bulk(masters[:2], np.array([1.5, 0.0]), SUM)
            assert changed.tolist() == masters[:1].tolist()
            changed = store.apply_master_bulk(
                masters[1:3], np.array([10.0, 7.0]), OVERWRITE
            )
            assert changed.tolist() == masters[2:3].tolist()
            served = store.serve_master_bulk(masters[:3])
        assert isinstance(served, np.ndarray) and served.dtype == np.float64
        assert served.tolist() == [5.5, 10.0, 7.0]
        assert _is_array_mode(store)
        assert dict(store.master_items())[int(masters[0])] == 5.5

    def test_unchanged_slots_keep_their_bits(self, setup):
        # (0.0, -0.0) compare equal, so neither the scalar rule nor the
        # column may rewrite the slot: the old sign bit survives.
        store, part, cluster = self._store(setup)
        masters = part.masters_global[:2]
        with cluster.phase(PhaseKind.INIT):
            store.write_master_bulk(masters, np.array([0.0, -0.0]))
            for op in (OVERWRITE, MIN):
                changed = store.apply_master_bulk(masters, np.array([-0.0, 0.0]), op)
                assert changed.size == 0
            served = store.serve_master_bulk(masters)
        assert _is_array_mode(store)
        assert _typed(_natives(served)) == _typed([0.0, -0.0])

    def test_scalar_touch_converts_once_and_sticks(self, setup):
        store, part, cluster = self._store(setup)
        masters = part.masters_global
        with cluster.phase(PhaseKind.INIT):
            store.write_master_bulk(masters, np.arange(masters.size, dtype=np.int64))
            assert _is_array_mode(store)
            assert store.read_local(1) == 1
            assert not _is_array_mode(store)
            column = store.values
            assert type(column) is list
            assert _typed(column[: masters.size]) == _typed(range(masters.size))
            assert all(v is None for v in column[masters.size :])
            # Later typed bulk traffic keeps the same list: no flip-flop.
            store.write_master_bulk(masters[:2], np.array([7, 8], dtype=np.int64))
            store.apply_master_bulk(masters[:2], np.array([1, 9], dtype=np.int64), MIN)
            assert store.values is column
            assert _typed(column[:2]) == _typed([1, 8])
            assert _typed(_natives(store.read_local_bulk(np.array([0, 1])))) == _typed(
                [1, 8]
            )

    def test_mixed_int_float_falls_back_to_list_mode(self, setup):
        store, part, cluster = self._store(setup)
        masters = part.masters_global[:3]
        with cluster.phase(PhaseKind.INIT):
            store.write_master_bulk(masters, np.array([5, 6, 7], dtype=np.int64))
            changed = store.apply_master_bulk(masters, np.array([4.5, 6.0, 9.0]), MIN)
        assert changed.tolist() == masters[:1].tolist()
        assert not _is_array_mode(store)
        # The scalar rule keeps the untouched ints as ints.
        assert _typed(store.values[:3]) == _typed([4.5, 6, 7])

    def test_bool_batch_is_not_an_int_column(self, setup):
        store, part, cluster = self._store(setup)
        masters = part.masters_global[:2]
        with cluster.phase(PhaseKind.INIT):
            store.write_master_bulk(masters, np.array([True, False]))
        assert not _is_array_mode(store)
        assert _typed(store.values[:2]) == _typed([True, False])

    def test_narrow_dtype_batch_round_trips_through_tolist(self, setup):
        store, part, cluster = self._store(setup)
        masters = part.masters_global[:2]
        with cluster.phase(PhaseKind.INIT):
            store.write_master_bulk(masters, np.array([1, 2], dtype=np.int32))
        assert not _is_array_mode(store)
        assert _typed(store.values[:2]) == _typed([1, 2])

    def test_unset_slots(self, setup):
        store, part, cluster = self._store(setup)
        masters = part.masters_global
        with cluster.phase(PhaseKind.INIT):
            store.write_master_bulk(masters[:2], np.array([1.0, 2.0]))
            with pytest.raises(KeyError, match=r"local node 2 \(global"):
                store.read_local_bulk(np.array([0, 2, 3]))
            assert _is_array_mode(store)
            assert store.master_column() is None
            assert dict(store.master_items()) == {
                int(masters[0]): 1.0,
                int(masters[1]): 2.0,
            }
            # Applying onto an unset master lands the value as is (the
            # scalar rule), which needs list mode.
            changed = store.apply_master_bulk(masters[1:3], np.array([5.0, 6.0]), SUM)
        assert changed.tolist() == masters[1:3].tolist()
        assert not _is_array_mode(store)
        assert store.values[:3] == [1.0, 7.0, 6.0]

    def test_apply_on_fresh_store_takes_values(self, setup):
        store, part, cluster = self._store(setup)
        masters = part.masters_global[:2]
        with cluster.phase(PhaseKind.INIT):
            changed = store.apply_master_bulk(masters, np.array([3, 4]), SUM)
            served = store.serve_master_bulk(masters)
        assert changed.tolist() == masters.tolist()
        assert _typed(_natives(served)) == _typed([3, 4])

    def test_huge_ints_stay_in_list_mode(self, setup):
        store, part, cluster = self._store(setup)
        masters = part.masters_global[:2]
        huge = 2**70
        with cluster.phase(PhaseKind.INIT):
            store.write_master_bulk(masters, [huge, 1])
            assert not _is_array_mode(store)
            changed = store.apply_master_bulk(
                masters, np.array([1, 1], dtype=np.int64), SUM
            )
        assert changed.tolist() == masters.tolist()
        assert _typed(store.values[:2]) == _typed([huge + 1, 2])

    def test_dtype_mismatched_write_goes_to_list_mode(self, setup):
        store, part, cluster = self._store(setup)
        masters = part.masters_global[:2]
        with cluster.phase(PhaseKind.INIT):
            store.write_master_bulk(masters, np.array([1.0, 2.0]))
            store.write_master_bulk(masters[:1], np.array([3], dtype=np.int64))
        assert not _is_array_mode(store)
        assert _typed(store.values[:2]) == _typed([3, 2.0])

    def test_non_ufunc_op_and_object_values_use_the_scalar_rule(self, setup):
        store, part, cluster = self._store(setup)
        masters = part.masters_global[:2]
        pairs = np.empty(2, dtype=object)
        pairs[:] = [(1, 2), (0, 9)]
        with cluster.phase(PhaseKind.INIT):
            store.write_master_bulk(masters, [(1, 5), (0, 1)])
            changed = store.apply_master_bulk(masters, pairs, PAIR_MIN)
        assert changed.tolist() == masters[:1].tolist()
        assert store.values[:2] == [(1, 2), (0, 1)]

    def test_unpin_clears_mirrors_in_array_mode(self, setup):
        store, part, cluster = self._store(setup)
        masters, mirrors = part.masters_global, part.mirrors_global
        with cluster.phase(PhaseKind.BROADCAST_SYNC):
            store.write_master_bulk(masters, np.zeros(masters.size))
            store.pin()
            store.write_mirror_bulk(mirrors, np.ones(mirrors.size))
            mirror_locals = np.arange(part.num_masters, part.num_local)
            assert store.read_local_bulk(mirror_locals).tolist() == [1.0] * mirrors.size
            store.unpin()
            assert _is_array_mode(store)
            with pytest.raises(KeyError):
                store.read_local_bulk(mirror_locals[:1])
            assert store.serve_master_bulk(masters).tolist() == [0.0] * masters.size
            with pytest.raises(KeyError, match="not a mirror"):
                store.write_mirror_bulk(masters[:1], np.ones(1))

    def test_checkpoint_restores_twice_in_array_mode(self, setup):
        store, part, cluster = self._store(setup)
        masters = part.masters_global
        with cluster.phase(PhaseKind.INIT):
            store.write_master_bulk(masters, np.arange(masters.size, dtype=np.int64))
            saved = store.checkpoint()
            for _ in range(2):
                store.apply_master_bulk(
                    masters, np.full(masters.size, -1, dtype=np.int64), MIN
                )
                assert set(store.serve_master_bulk(masters).tolist()) == {-1}
                store.restore(saved)
                assert _is_array_mode(store)
                assert store.serve_master_bulk(masters).tolist() == list(
                    range(masters.size)
                )
            # A scalar-touched (list mode) checkpoint restores as a list.
            store.read_local(0)
            listed = store.checkpoint()
            store.write_master(int(masters[0]), 99)
            store.restore(listed)
            assert not _is_array_mode(store)
            assert _typed(store.values[:2]) == _typed([0, 1])

    @pytest.mark.parametrize("scalar_touch", [False, True])
    def test_checkpoint_round_trip(self, setup, scalar_touch):
        # Onto a second store, in the mode it was taken in (list: any values).
        store, part, cluster = self._store(setup)
        _, pgraph, _ = setup
        masters, mirrors = part.masters_global, part.mirrors_global
        with cluster.phase(PhaseKind.INIT):
            store.write_master_bulk(masters, np.linspace(0.0, 1.0, masters.size))
            store.pin()
            store.write_mirror_bulk(mirrors[:1], np.array([0.25]))
            if scalar_touch:
                store.write_master(int(masters[1]), ("pair", 2))
            twin = GarHostStore(cluster, pgraph, part.host_id)
            twin.restore(store.checkpoint())
            assert _is_array_mode(twin) != scalar_touch and twin.pinned
            # The twin owns its buffers: writes do not reach the exporter.
            twin.write_master_bulk(masters[:1], np.array([-5.0]))
            assert store.serve_master_bulk(masters[:1])[0] == 0.0
            with pytest.raises(KeyError):
                twin.read_local_bulk(np.array([part.num_masters + 1]))
            rest = range(1, part.num_masters + 1)
            assert _typed(map(twin.read_local, rest)) == _typed(
                map(store.read_local, rest)
            )
            assert (twin.read_local(1) == ("pair", 2)) == scalar_touch

    def test_checkpoint_of_untouched_store_stays_untyped(self, setup):
        store, part, cluster = self._store(setup)
        _, pgraph, _ = setup
        twin = GarHostStore(cluster, pgraph, part.host_id)
        twin.restore(store.checkpoint())
        with cluster.phase(PhaseKind.INIT):
            twin.write_master_bulk(part.masters_global[:1], np.array([0.5]))
        assert _is_array_mode(twin) and twin._col.dtype == np.float64


# Interleaved scalar and bulk ops: the column store against a twin forced
# into list mode up front (every bulk op then runs the per-element rule)
# and, for values, a plain dict applying the scalar rule.

_COL_GRAPH = generators.road_like(6, 4, seed=0)
_COL_PGRAPH = partition(_COL_GRAPH, 3, "oec")
_COL_PART = _mirror_part(_COL_PGRAPH)
_NM, _NL = _COL_PART.num_masters, _COL_PART.num_local
_INTS = st.sampled_from([-3, 0, 1, 2, 7])
_FLOATS = st.sampled_from([-2.5, -0.0, 0.0, 0.5, 1.0, 7.0, float("inf")])
_COL_OPS = {"min": MIN, "sum": SUM, "overwrite": OVERWRITE}


def _values(draw, kind, size):
    def exactly(elements):
        return draw(st.lists(elements, min_size=size, max_size=size))

    if kind == "int":
        return np.array(exactly(_INTS), dtype=np.int64)
    if kind == "float":
        return np.array(exactly(_FLOATS), dtype=np.float64)
    if kind == "bool":
        return np.array(exactly(st.booleans()), dtype=bool)
    values = np.empty(size, dtype=object)
    values[:] = exactly(st.one_of(_INTS, _FLOATS))
    return values


@st.composite
def _column_sequences(draw):
    """(initial full-column write or None, steps). Most batches share one
    ``main`` dtype so runs of ops stay in array mode; the rest mix in the
    other numeric dtype, bools and objects."""
    main = draw(st.sampled_from(["int", "float"]))
    other = "float" if main == "int" else "int"
    kinds = st.sampled_from([main] * 7 + [other, "bool", "object"])

    def batch(low, high):
        locals_ = draw(
            st.lists(st.integers(low, high - 1), min_size=1, max_size=6, unique=True)
        )
        return (
            np.array(sorted(locals_), dtype=np.int64),
            _values(draw, draw(kinds), len(locals_)),
        )

    def step():
        kind = draw(
            st.sampled_from(
                ["write_bulk", "apply_bulk", "apply_bulk", "mirror_bulk", "serve_bulk"]
                + ["read_bulk", "unpin", "checkpoint", "write", "apply", "read"]
            )
        )
        if kind in ("write_bulk", "serve_bulk"):
            return kind, batch(0, _NM)
        if kind == "apply_bulk":
            return kind, batch(0, _NM), draw(st.sampled_from(sorted(_COL_OPS)))
        if kind == "mirror_bulk":
            return kind, batch(_NM, _NL)
        if kind == "read_bulk":
            return kind, batch(0, _NL)
        if kind == "write":
            return kind, draw(st.integers(0, _NM - 1)), draw(st.one_of(_INTS, _FLOATS))
        if kind == "apply":
            return (
                kind,
                draw(st.integers(0, _NM - 1)),
                draw(st.one_of(_INTS, _FLOATS)),
                draw(st.sampled_from(sorted(_COL_OPS))),
            )
        if kind == "read":
            return kind, draw(st.integers(0, _NL - 1))
        return (kind,)

    initial = _values(draw, main, _NL) if draw(st.integers(0, 4)) else None
    return initial, [step() for _ in range(draw(st.integers(0, 14)))]


@settings(max_examples=150, deadline=None)
@given(drawn=_column_sequences())
def test_column_matches_list_only_reference(drawn):
    initial, sequence = drawn
    part = _COL_PART
    l2g = part.local_to_global
    clusters = [Cluster(3, threads_per_host=4) for _ in range(2)]
    column, reference = (
        GarHostStore(cluster, _COL_PGRAPH, part.host_id) for cluster in clusters
    )
    reference._to_list_mode()
    model: dict[int, object] = {}

    def both(call):
        """Run on both stores; results (or KeyErrors) must agree."""
        outcomes = []
        for store in (column, reference):
            try:
                outcomes.append(("ok", call(store)))
            except KeyError as err:
                outcomes.append(("missing", str(err)))
        assert outcomes[0][0] == outcomes[1][0]
        if outcomes[0][0] == "missing":
            assert outcomes[0][1] == outcomes[1][1]
            return None
        return outcomes[0][1], outcomes[1][1]

    def model_apply(local, value, op):
        old = model.get(local)
        new = value if old is None else op(old, value)
        if new != old:
            model[local] = new
            return True
        return False

    phases = [cluster.phase(PhaseKind.REDUCE_SYNC) for cluster in clusters]
    for phase in phases:
        phase.__enter__()
    try:
        if initial is not None:
            both(lambda s: s.write_master_bulk(l2g[:_NM], initial[:_NM]))
            both(lambda s: s.write_mirror_bulk(l2g[_NM:], initial[_NM:]))
            model.update(enumerate(initial.tolist()))
        for step in sequence:
            kind = step[0]
            if kind == "write_bulk":
                locals_, values = step[1]
                both(lambda s: s.write_master_bulk(l2g[locals_], values))
                model.update(zip(locals_.tolist(), values.tolist()))
            elif kind == "apply_bulk":
                (locals_, values), op = step[1], _COL_OPS[step[2]]
                got = both(lambda s: s.apply_master_bulk(l2g[locals_], values, op))
                expected = [
                    int(l2g[local])
                    for local, value in zip(locals_.tolist(), values.tolist())
                    if model_apply(local, value, op)
                ]
                assert got[0].tolist() == got[1].tolist() == expected
            elif kind == "mirror_bulk":
                locals_, values = step[1]
                both(lambda s: s.write_mirror_bulk(l2g[locals_], values))
                model.update(zip(locals_.tolist(), values.tolist()))
            elif kind == "serve_bulk":
                locals_, _ = step[1]
                got = both(lambda s: s.serve_master_bulk(l2g[locals_]))
                assert (
                    _typed(_natives(got[0]))
                    == _typed(_natives(got[1]))
                    == _typed(model.get(local) for local in locals_.tolist())
                )
            elif kind == "read_bulk":
                locals_, _ = step[1]
                got = both(lambda s: s.read_local_bulk(locals_))
                if got is None:
                    assert any(model.get(local) is None for local in locals_.tolist())
                else:
                    assert got[0].dtype == got[1].dtype
                    assert _typed(got[0].tolist()) == _typed(got[1].tolist())
            elif kind == "unpin":
                both(lambda s: s.unpin())
                for local in range(_NM, _NL):
                    model.pop(local, None)
            elif kind == "checkpoint":
                both(lambda s: s.restore(s.checkpoint()))
            elif kind == "write":
                both(lambda s: s.write_master(int(l2g[step[1]]), step[2]))
                model[step[1]] = step[2]
            elif kind == "apply":
                op = _COL_OPS[step[3]]
                got = both(lambda s: s.apply_master(int(l2g[step[1]]), step[2], op))
                assert got[0] == got[1] == model_apply(step[1], step[2], op)
            elif kind == "read":
                got = both(lambda s: s.read_local(step[1]))
                if got is not None:
                    assert _typed(got[:1]) == _typed(got[1:]) == _typed([model[step[1]]])
    finally:
        for phase in phases:
            phase.__exit__(None, None, None)

    final = [store._to_list_mode() for store in (column, reference)]
    assert _typed(final[0]) == _typed(final[1])
    assert _typed(final[0]) == _typed(model.get(local) for local in range(_NL))
    totals = [cluster.log.total_counters() for cluster in clusters]
    assert totals[0] == totals[1]
