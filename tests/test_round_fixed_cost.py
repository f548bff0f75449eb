"""What a BSP round pays that is not proportional to its frontier.

O(1) flags stand in for scans the compiled round used to repeat. On a
:class:`NodePropMap`, one bool per host and mask ("any copy active",
"any master pending broadcast", "any copy written this round") and one
per host "reduced since the last collect"; on a
:class:`ThreadLocalReduction`, "some thread dict holds an entry". A flag
that went stale would skip a host that has work, or fold a batch over
pending dict state - so they are checked here against the scans they
replaced, at every site that installs or mutates the state behind them,
and end to end on the runs where they matter: road grids on which most
hosts idle most rounds, under checkpoint restore and a second-run fork;
and paths / ladders whose frontier is one or two sources wide for
thousands of rounds, where a round must touch its dirty hosts only.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.algorithms.cc_lp import cc_lp_plan
from repro.algorithms.sssp import UNREACHED, sssp_plan
from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core.propmap import NodePropMap
from repro.core.reducers import MIN, SUM
from repro.core.reduction import PreparedFold, ThreadLocalReduction
from repro.eval.harness import run_kimbap
from repro.exec import Executor
from repro.exec.pool import fork_available
from repro.faults import FaultPlan, HostCrash
from repro.graph import generators
from repro.partition import partition
from tests.conftest import canonical

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="host-parallel execution needs POSIX fork"
)


# ------------------------------------------------------- the activity flag

# Four hosts own four bands of a tall grid: the SSSP wave (and, after its
# first rounds, the CC-LP minimum label) crosses one band at a time.
IDLE_GRID = {
    "SSSP": generators.road_like(rows=40, cols=3, seed=5, weighted=True),
    "CC-LP": generators.road_like(rows=40, cols=3, seed=5),
}
CRASH = FaultPlan(
    name="crash@6", checkpoint_interval=4, crashes=(HostCrash(host=2, round=6),)
)


def _flags_match_masks(prop: NodePropMap) -> None:
    for host in range(prop.cluster.num_hosts):
        live = bool(prop._active[host].any())
        assert prop._host_active[host] == live
        assert (prop.active_mask(host) is not None) == live
        assert prop._host_pending[host] == bool(prop._updated_masters[host].any())
        assert prop._host_next[host] == bool(prop._next_active[host].any())
        # The collect visits every host that holds pending reductions.
        assert prop._host_reduced[host] or prop.reductions[host].pending() == 0


# Every NodePropMap method that installs, swaps, writes or clears the
# masks behind the flags - or collects behind the reduced flag.
FLAG_SITES = (
    "reset_updated", "reduce_sync", "broadcast_sync", "pin_mirrors",
    "reset_values", "reset_values_bulk", "restore_state",
)


@pytest.fixture
def checked_sites(monkeypatch):
    """Check the flags after every call of a :data:`FLAG_SITES` method
    (in a forked worker too); returns the calls per site."""
    calls = dict.fromkeys(FLAG_SITES, 0)
    for name in FLAG_SITES:
        original = getattr(NodePropMap, name)

        def checked(self, *args, _name=name, _original=original, **kwargs):
            result = _original(self, *args, **kwargs)
            calls[_name] += 1
            _flags_match_masks(self)
            return result

        monkeypatch.setattr(NodePropMap, name, checked)
    return calls


@pytest.fixture(scope="module")
def idle_oracle():
    """The scalar ``jobs=1`` report per (app, fault plan), computed once."""
    reports: dict[tuple[str, bool], str] = {}

    def oracle(app: str, faults: FaultPlan | None = None) -> str:
        key = (app, faults is not None)
        if key not in reports:
            reports[key] = canonical(
                run_kimbap(
                    app, "idle", 4, graph=IDLE_GRID[app], threads=2, fault_plan=faults
                )
            )
        return reports[key]

    return oracle


@pytest.mark.parametrize("app", sorted(IDLE_GRID))
class TestActivityFlagEndToEnd:
    def run(self, app, **kwargs):
        return run_kimbap(
            app, "idle", 4, graph=IDLE_GRID[app], threads=2, bulk=True, **kwargs
        )

    def test_most_host_visits_are_idle(self, app, idle_oracle):
        result = self.run(app)
        assert canonical(result) == idle_oracle(app)
        pushes = [r for r in result.cluster.log.phases if r.operator]
        idle = sum(c.edge_iters == 0 for r in pushes for c in r.counters)
        assert idle > 2 * len(pushes)  # of four visits a round

    def test_checkpoint_restore(self, app, idle_oracle, checked_sites):
        result = self.run(app, fault_plan=CRASH)
        assert result.faults["recoveries"] == 1
        assert canonical(result) == idle_oracle(app, CRASH)
        assert checked_sites["restore_state"] >= 1
        assert checked_sites["reset_updated"] > 2 * checked_sites["restore_state"]

    @needs_fork
    def test_second_run_forks_from_the_reset_state(self, app, checked_sites):
        # The same plan twice on one executor: the second run's workers
        # are forked from the coordinator's state as the driver left it -
        # values reset, mirrors re-pinned, activity masks and their flags.
        graph = IDLE_GRID[app]
        pgraph = partition(graph, 4, "cvc")
        far = graph.num_nodes - 1

        def first_values(nodes):
            if app == "SSSP":
                return np.where(nodes == 0, 0.0, UNREACHED)
            return nodes.copy()

        def second_values(nodes):
            if app == "SSSP":
                return np.where(nodes == far, 0.0, UNREACHED)
            return far - nodes

        outcomes = []
        for bulk, jobs in ((False, 1), (True, 2)):
            cluster = Cluster(4, threads_per_host=2)
            executor = Executor(cluster, bulk=bulk, jobs=jobs)
            try:
                prop = NodePropMap(cluster, pgraph, "prop")
                executor.init_map(prop, first_values)
                # The plan pins prop's mirrors at entry, each run anew.
                plan = (sssp_plan if app == "SSSP" else cc_lp_plan)(pgraph, prop)
                rounds = [executor.run(plan)]
                middle = prop.snapshot()
                if bulk:
                    prop.reset_values_bulk(second_values)
                else:
                    prop.reset_values(lambda node: second_values(np.int64(node)).item())
                rounds.append(executor.run(plan))
                stats = executor.parallel_stats()
            finally:
                executor.close()
            _flags_match_masks(prop)
            outcomes.append(
                (rounds, middle, prop.snapshot(), cluster.log.total_counters(),
                 cluster.log.total_bytes(), cluster.elapsed().total)
            )
        assert stats["forks"] == 2
        assert outcomes[0] == outcomes[1]
        assert checked_sites["reset_values"] == checked_sites["reset_values_bulk"] == 1
        assert checked_sites["pin_mirrors"] == 4


class TestActivityFlagInstallSites:
    def _map(self):
        cluster = Cluster(3, threads_per_host=2)
        pgraph = partition(generators.road_like(9, 3, seed=2), 3, "cvc")
        prop = NodePropMap(cluster, pgraph, "p")
        prop.set_initial_bulk(lambda nodes: np.full(nodes.size, 100.0))
        prop.pin_mirrors(invariant="none")
        return cluster, pgraph, prop

    def _touch(self, cluster, prop, host, keys):
        # Every touch lowers the value further, so every apply changes it.
        self.lowest = getattr(self, "lowest", 0.0) - 1.0
        keys = np.asarray(keys, dtype=np.int64)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            prop.reduce_bulk(
                host, np.zeros(keys.size, dtype=np.int64), keys,
                np.full(keys.size, self.lowest), MIN,
            )
        assert prop._host_reduced[host]
        _flags_match_masks(prop)
        prop.reduce_sync()
        assert not any(prop._host_reduced)
        _flags_match_masks(prop)
        prop.broadcast_sync()
        _flags_match_masks(prop)

    def test_flag_equals_mask_any_after_every_install(self):
        cluster, pgraph, prop = self._map()
        _flags_match_masks(prop)  # construction, initial values, pinning
        prop.reset_updated()  # the other initially full buffer
        _flags_match_masks(prop)
        prop.reset_updated()  # nothing changed: every host idle
        assert prop._host_active == [False] * 3
        _flags_match_masks(prop)
        # One master of host 0 with no mirror anywhere: exactly one host wakes.
        mirrored = {
            int(k) for pairs in pgraph.mirror_hosts_by_owner for _, ids in pairs for k in ids
        }
        lonely = next(
            int(k) for k in pgraph.parts[0].masters_global if int(k) not in mirrored
        )
        self._touch(cluster, prop, 1, [lonely])
        assert prop._host_next == [True, False, False]
        prop.reset_updated()
        assert prop._host_active == [True, False, False]
        _flags_match_masks(prop)
        busy = prop.checkpoint_state()
        prop.reset_updated()
        assert prop._host_active == [False] * 3
        prop.restore_state(busy)  # checkpoint restore
        assert prop._host_active == [True, False, False]
        _flags_match_masks(prop)
        prop.reset_updated()
        replica = NodePropMap(Cluster(3, threads_per_host=2), pgraph, "p")
        replica.restore_state(busy)  # ... onto a second map
        assert replica._host_active == [True, False, False]
        _flags_match_masks(replica)
        # A mirrored master: the broadcast wakes its mirror hosts as well.
        owner, pairs = next(
            (owner, pairs) for owner, pairs in enumerate(pgraph.mirror_hosts_by_owner)
            if pairs
        )
        mirror_host, ids = pairs[0]
        self._touch(cluster, prop, owner, [int(ids[0])])
        assert prop._host_next[owner] and prop._host_next[mirror_host]
        assert prop._host_pending == [False] * 3
        prop.reset_updated()
        _flags_match_masks(prop)
        # Unpinned, nothing broadcasts: a change stays pending across the
        # round boundary while its host's next-round mask is swapped away -
        # which is why pending and next-round writes are flagged apart.
        prop.unpin_mirrors()
        self._touch(cluster, prop, owner, [int(ids[1])])
        prop.reset_updated()
        assert prop._host_pending[owner] and not any(prop._host_next)
        _flags_match_masks(prop)
        prop.pin_mirrors(invariant="none")  # the full broadcast clears it
        assert prop._host_pending == [False] * 3
        _flags_match_masks(prop)
        resets = (
            lambda: prop.reset_values(lambda node: 100.0),
            lambda: prop.reset_values_bulk(lambda nodes: np.full(nodes.size, 100.0)),
        )
        for reset in resets:
            prop.unpin_mirrors()
            self._touch(cluster, prop, owner, [int(ids[0])])
            assert prop._host_pending[owner]
            reset()
            assert prop._host_pending == [False] * 3
            _flags_match_masks(prop)
            prop.pin_mirrors(invariant="none")
            _flags_match_masks(prop)

    def test_non_gar_variants_never_report_idle(self):
        from repro.core.variants import RuntimeVariant

        cluster = Cluster(2, threads_per_host=2)
        pgraph = partition(generators.road_like(4, 3, seed=2), 2, "oec")
        prop = NodePropMap(cluster, pgraph, "p", variant=RuntimeVariant.SGR_ONLY)
        prop.reset_updated()
        prop.reset_updated()
        # No activity mask is kept, so a compiled push takes every
        # candidate (it reads ``active_mask`` off GAR maps only).
        assert all(
            prop.is_active(host, key)
            for host in range(2)
            for key in pgraph.parts[host].local_to_global.tolist()
        )


# ----------------------------------------------------- the dict-state flag


class PendingStateMachine(RuleBasedStateMachine):
    """Every way pending reduction state comes and goes, against the
    brute-force walk of ``maps`` + ``_batch`` the flag replaced."""

    THREADS = 3
    KEYS = 12

    def __init__(self):
        super().__init__()
        self.cluster = Cluster(1, threads_per_host=self.THREADS)
        self.reduction = ThreadLocalReduction(self.cluster, 0)
        self.peer = ThreadLocalReduction(self.cluster, 0)
        self.static_threads = np.repeat(np.arange(self.THREADS), 4)
        self.static_keys = np.arange(self.THREADS * 4, dtype=np.int64) % self.KEYS
        self.prepared = self.reduction.prepare_bulk(
            self.static_threads, self.static_keys
        )

    def _in_phase(self, fn, *args):
        with self.cluster.phase(PhaseKind.REDUCE_COMPUTE):
            return fn(*args)

    batches = st.lists(
        st.tuples(st.integers(0, THREADS - 1), st.integers(0, KEYS - 1)),
        min_size=1, max_size=8,
    ).map(sorted)

    @rule(thread=st.integers(0, THREADS - 1), key=st.integers(0, KEYS - 1))
    def scalar_reduce(self, thread, key):
        self._in_phase(self.reduction.reduce, thread, key, 1.0, MIN)

    @rule(batch=batches, foldable=st.booleans())
    def bulk_reduce(self, batch, foldable):
        threads, keys = map(np.array, zip(*batch))
        values = np.arange(keys.size, dtype=np.float64)
        if not foldable:  # object values: the per-item fallback into the dicts
            values = values.astype(object)
        self._in_phase(self.reduction.reduce_bulk, threads, keys, values, MIN)

    @rule()
    def prepared_full(self):
        values = np.arange(self.static_keys.size, dtype=np.float64)
        self._in_phase(self.reduction.reduce_bulk_prepared, self.prepared, values, MIN)

    @rule(mask=st.lists(st.booleans(), min_size=12, max_size=12))
    def prepared_partial(self, mask):
        idx = np.flatnonzero(mask)
        values = np.arange(idx.size, dtype=np.float64)
        self._in_phase(
            self.reduction.reduce_bulk_prepared, self.prepared, values, MIN, idx
        )

    @rule()
    def install_a_peer_export(self):
        # What the pool does: a peer reduced, exported, and this replica
        # takes its state wholesale (dicts and batch alike).
        self.peer.install_state(self.reduction.export_state())
        self.reduction, self.peer = self.peer, self.reduction

    @rule(batch=batches)
    def install_a_peer_batch(self, batch):
        fresh = ThreadLocalReduction(self.cluster, 0)
        threads, keys = map(np.array, zip(*batch))
        self._in_phase(fresh.reduce_bulk, threads, keys, np.ones(keys.size), MIN)
        self.reduction.install_state(fresh.export_state())

    @rule()
    def collect(self):
        with self.cluster.phase(PhaseKind.REDUCE_SYNC):
            self.reduction.collect(MIN)
        assert self.reduction.pending() == 0

    @rule()
    def collect_arrays(self):
        if not self.reduction.bulk_state_only:
            return  # its precondition
        with self.cluster.phase(PhaseKind.REDUCE_SYNC) as record:
            idle = self.reduction._batch is None
            keys, values = self.reduction.collect_arrays(MIN)
            if idle:  # nothing to combine: no keys, no charge
                assert keys.size == 0 and values.size == 0
                assert record.counters[0].combine_ops == 0
        assert self.reduction.pending() == 0

    @invariant()
    def flags_equal_the_walk(self):
        reduction = self.reduction
        entries = sum(len(local_map) for local_map in reduction.maps)
        # A one-level fold only counts its slots: rebuild them to check.
        batch = 0 if reduction._batch is None else int(reduction._batch.state()[1].size)
        assert reduction.pending() == entries + batch
        assert reduction.bulk_state_only == (entries == 0)
        assert reduction._dict_state == (entries > 0)


TestPendingState = PendingStateMachine.TestCase
TestPendingState.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)


# ------------------------------------------------------ a narrow frontier

# A path (cols=1) and a ladder (cols=2), plus the generator's few
# shortcuts: one or two active sources a round, one active host, hundreds
# to thousands of rounds - where an off-by-one in the idle skip or in the
# run expansion of a single source would show. The scalar oracle costs
# rows^2 node visits, so it joins at the smaller size only.


def _check_against_networkx(app, graph, values):
    undirected = graph.to_networkx().to_undirected()
    if app == "BFS":
        want = nx.single_source_shortest_path_length(undirected, 0)
    else:
        want = nx.single_source_dijkstra_path_length(undirected, 0)
    assert set(want) == set(range(graph.num_nodes))  # a road grid is connected
    for node, distance in want.items():
        assert values[node] == pytest.approx(distance)


@pytest.mark.parametrize("policy", ("cvc", "oec"))
@pytest.mark.parametrize("cols", (1, 2))
@pytest.mark.parametrize("app", ("BFS", "SSSP"))
class TestNarrowFrontier:
    def runs(self, app, rows, cols, policy, cells):
        graph = generators.road_like(rows=rows, cols=cols, seed=3, weighted=app == "SSSP")
        pgraph = partition(graph, 4, policy)
        results = [
            run_kimbap(
                app, "narrow", 4, graph=graph, pgraph=pgraph, threads=2,
                bulk=bulk, jobs=jobs,
            )
            for bulk, jobs in cells
        ]
        assert len({canonical(result) for result in results}) == 1
        assert results[0].rounds > rows * 0.9
        pushes = [r for r in results[-1].cluster.log.phases if r.operator]
        # Four host visits a round, and on average under one and a half
        # of them (the wave's band, its neighbour at a seam) has an edge
        # to relax.
        busy = sum(c.edge_iters > 0 for r in pushes for c in r.counters)
        assert busy < 1.5 * len(pushes)
        _check_against_networkx(app, graph, results[0].values)

    @needs_fork
    def test_scalar_and_bulk_and_jobs_agree(self, app, cols, policy):
        self.runs(
            app, 384, cols, policy, [(False, 1), (False, 2), (True, 2), (True, 1)]
        )

    @needs_fork
    def test_thousands_of_rounds(self, app, cols, policy):
        self.runs(app, 2048, cols, policy, [(True, 2), (True, 1)])


# ------------------------------------------------- only the dirty hosts


class _SpyMask(np.ndarray):
    """A pending / activity mask that logs each ``any`` and ``fill`` on it."""

    calls: list[tuple[str, np.ndarray]] = []

    def any(self, *args, **kwargs):
        _SpyMask.calls.append(("any", self))
        return super().any(*args, **kwargs)

    def fill(self, value):
        _SpyMask.calls.append(("fill", self))
        return super().fill(value)


class TestARoundTouchesOnlyItsDirtyHosts:
    """Bulk BFS down a path: one source and one busy host a round, for
    ~2,000 rounds. Counted per call: a round swap allocates one mask per
    host written last round, no mask is scanned, a broadcast clears only
    the hosts with masters pending, and a reduce-sync collects only the
    hosts that reduced - nothing is paid per clean host."""

    def test_bulk_bfs_on_a_path(self, monkeypatch):
        graph = generators.road_like(rows=2048, cols=1, seed=3)
        allocations = [0]
        maps: list[NodePropMap] = []
        reduced: set[int] = set()  # ids of reductions holding a batch
        collected: list[int] = []  # id of the reduction, per collect_arrays
        totals = {"swaps": 0, "dirty": 0, "broadcasts": 0, "pending": 0}

        def spy_empty_mask(self):
            allocations[0] += 1
            return np.zeros(self.pgraph.num_nodes, dtype=bool).view(_SpyMask)

        def wrap(cls, name, before, after):
            original = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                seen = before(self, *args)
                result = original(self, *args, **kwargs)
                after(self, seen)
                return result

            monkeypatch.setattr(cls, name, wrapper)

        def swap_before(prop):
            return list(prop._host_next), allocations[0], len(_SpyMask.calls)

        def swap_after(prop, seen):
            written, allocated, start = seen
            totals["swaps"] += 1
            totals["dirty"] += sum(written)
            assert allocations[0] - allocated == sum(written)
            assert _SpyMask.calls[start:] == []  # no scan, no fill

        def broadcast_before(prop):
            return list(prop._host_pending), list(prop._updated_masters), len(_SpyMask.calls)

        def broadcast_after(prop, seen):
            pending, masks, start = seen
            totals["broadcasts"] += 1
            totals["pending"] += sum(pending)
            cleared = [mask for _, mask in _SpyMask.calls[start:]]
            assert [method for method, _ in _SpyMask.calls[start:]] == ["fill"] * len(cleared)
            assert [id(mask) for mask in cleared] == [
                id(masks[host]) for host in range(len(pending)) if pending[host]
            ]

        def reduced_before(reduction, *args):
            idx = args[3] if len(args) > 3 else None  # the prepared subset
            count = (args[0].keys if idx is None else idx).size
            if count:
                reduced.add(id(reduction))

        def sync_before(prop):
            return len(collected)

        def sync_after(prop, start):
            mine = {id(reduction) for reduction in prop.reductions}
            assert sorted(collected[start:]) == sorted(reduced & mine)
            reduced.difference_update(mine)

        monkeypatch.setattr(NodePropMap, "_empty_mask", spy_empty_mask)
        monkeypatch.setattr(_SpyMask, "calls", [])
        wrap(NodePropMap, "__init__", lambda prop, *a: None, lambda prop, _: maps.append(prop))
        wrap(NodePropMap, "reset_updated", swap_before, swap_after)
        wrap(NodePropMap, "broadcast_sync", broadcast_before, broadcast_after)
        wrap(NodePropMap, "reduce_sync", sync_before, sync_after)
        wrap(ThreadLocalReduction, "reduce_bulk_prepared", reduced_before, lambda *a: None)
        wrap(
            ThreadLocalReduction, "collect_arrays",
            lambda reduction, op: collected.append(id(reduction)), lambda *a: None,
        )

        result = run_kimbap("BFS", "path", 4, graph=graph, threads=2, bulk=True)
        assert result.rounds > 1800 and len(maps) == 1
        _check_against_networkx("BFS", graph, result.values)
        # Four hosts a round and about one of them dirty: the counts have
        # teeth, a round that paid per host would fail every check above.
        assert totals["swaps"] > 1800 and totals["broadcasts"] > 1800
        assert totals["dirty"] < 1.5 * totals["swaps"]
        assert totals["pending"] < 1.5 * totals["broadcasts"]
        assert len(collected) < 1.5 * totals["broadcasts"] and not reduced


# ------------------------------------------------ state hoisted out of a round

class TestHoistedRoundState:
    def test_fan_out_locals_are_rebuilt_under_another_invariant(self):
        # hvc keeps a few of its mirrors under "pull" (those with incoming
        # edges on their host) and every one under "none".
        cluster = Cluster(3, threads_per_host=2)
        pgraph = partition(generators.powerlaw_like(7, seed=4), 3, "hvc")
        prop = NodePropMap(cluster, pgraph, "p")
        prop.set_initial_bulk(lambda nodes: nodes.astype(np.float64))
        prop.pin_mirrors(invariant="none")
        every = prop._mirror_targets("none")
        prop.unpin_mirrors()
        prop.pin_mirrors(invariant="pull")
        pulled = prop._mirror_targets("pull")
        assert pulled is not every and prop._mirror_targets("pull") is pulled
        kept = elided = 0
        for host, store in enumerate(prop.stores):
            part = pgraph.parts[host]
            fed = {
                local
                for feeds in pulled
                for feed in feeds
                if feed.mirror_host == host
                for local in feed.mirror_locals.tolist()
            }
            # The re-pin fed exactly the pull fan-out's mirror slots - the
            # mirrors with incoming edges - translated afresh.
            set_slots = set(np.flatnonzero(store._valid).tolist())
            assert set_slots - set(range(part.num_masters)) == fed
            assert all(part.in_degrees[local] > 0 for local in fed)
            kept += len(fed)
            elided += part.num_local - part.num_masters - len(fed)
        assert kept > 0 and elided > 0  # the invariants feed different slots
        for feeds in pulled:
            for feed in feeds:
                assert not feed.ids.flags.writeable
                assert not feed.owner_locals.flags.writeable
                assert not feed.mirror_locals.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(
        threads=st.lists(st.integers(0, 5), min_size=1, max_size=40).map(sorted),
        keys=st.lists(st.integers(0, 9), min_size=40, max_size=40),
    )
    def test_key_id_table_is_kslot_of_slot(self, threads, keys):
        threads = np.asarray(threads, dtype=np.int64)
        keys = np.asarray(keys[: threads.size], dtype=np.int64)
        plan = PreparedFold(threads, keys)
        values = np.arange(keys.size, dtype=np.float64)
        plan.fold(values, SUM)
        assert plan._kpos is None  # a sum folds by slot and never builds it
        plan.fold(values, MIN)
        assert plan.kpos is plan._kpos
        assert plan.kpos.tobytes() == plan.kslot[plan.slot].tobytes()
        assert plan.ukeys[plan.kpos].tolist() == keys.tolist()
        assert not plan.kpos.flags.writeable
