"""Tests for the three reduction strategies (CF / shared-map / KV-CAS)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core.reducers import MAX, MIN, OVERWRITE, SUM
from repro.core import reduction as reduction_module
from repro.core.reduction import (
    KvCasReduction,
    PreparedFold,
    SharedMapReduction,
    ThreadLocalReduction,
    _fold_batch,
)
from repro.kvstore import KvClient


class TestThreadLocal:
    def test_no_conflicts_by_construction(self):
        cluster = Cluster(1, threads_per_host=4)
        reduction = ThreadLocalReduction(cluster, 0)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for thread in range(4):
                for _ in range(10):
                    reduction.reduce(thread, 7, thread, MIN)
        assert cluster.log.total_counters().cas_conflicts == 0
        assert cluster.log.total_counters().cas_attempts == 0

    def test_collect_combines_across_threads(self):
        cluster = Cluster(1, threads_per_host=4)
        reduction = ThreadLocalReduction(cluster, 0)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            reduction.reduce(0, 1, 10, MIN)
            reduction.reduce(1, 1, 3, MIN)
            reduction.reduce(2, 1, 7, MIN)
            reduction.reduce(3, 2, 99, MIN)
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            combined = reduction.collect(MIN)
        assert combined == {1: 3, 2: 99}

    def test_collect_clears_maps(self):
        cluster = Cluster(1, threads_per_host=2)
        reduction = ThreadLocalReduction(cluster, 0)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            reduction.reduce(0, 1, 1, SUM)
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            reduction.collect(SUM)
            assert reduction.collect(SUM) == {}
        assert reduction.pending() == 0

    def test_combine_cost_charged_at_collect(self):
        cluster = Cluster(1, threads_per_host=2)
        reduction = ThreadLocalReduction(cluster, 0)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            reduction.reduce(0, 1, 1, SUM)
            reduction.reduce(1, 1, 1, SUM)
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            reduction.collect(SUM)
        # combining is communication-side work (the paper's CF overhead)
        sync = cluster.log.phases[-1]
        assert sync.counters[0].combine_ops > 0


class TestPreparedCollect:
    """A PreparedFold's full-round collect replays ``_fold_batch`` over the
    thread-stripped keys: same bits, no per-round sort, and never applied
    to a batch it was not built for."""

    THREADS = 4

    def _static_batch(self, seed=5, count=400, keys=23):
        rng = np.random.default_rng(seed)
        threads = np.sort(rng.integers(0, self.THREADS, size=count))
        return threads, rng.integers(0, keys, size=count).astype(np.int64), rng

    def _pair(self):
        return [
            ThreadLocalReduction(Cluster(1, threads_per_host=self.THREADS), 0)
            for _ in range(2)
        ]

    def _collect(self, reduction, op):
        with reduction.cluster.phase(PhaseKind.REDUCE_SYNC):
            return reduction.collect_arrays(op)

    @pytest.mark.parametrize("op", [SUM, MIN, OVERWRITE], ids=lambda op: op.name)
    def test_parity_with_fold_batch_every_round(self, op):
        threads, keys, rng = self._static_batch()
        prepared_red, generic_red = self._pair()
        plan = prepared_red.prepare_bulk(threads, keys)
        collected_keys = None
        for _ in range(3):
            # Magnitudes far apart: float addition order shows in the bits.
            values = rng.random(keys.size) * 10.0 ** rng.integers(-8, 8, keys.size)
            with prepared_red.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                prepared_red.reduce_bulk_prepared(plan, values, op)
            with generic_red.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                generic_red.reduce_bulk(threads, keys, values, op)
            span, uniq, folded = generic_red._batch
            want_keys, want = _fold_batch(uniq % span, folded, op)
            got_keys, got = self._collect(prepared_red, op)
            ref_keys, ref = self._collect(generic_red, op)
            assert got_keys.tolist() == want_keys.tolist() == ref_keys.tolist()
            assert got.tobytes() == want.tobytes() == ref.tobytes()
            # One frozen key object for the life of the plan (what the
            # reduce-sync route cache is keyed on).
            assert collected_keys is None or got_keys is collected_keys
            assert not got_keys.flags.writeable
            collected_keys = got_keys
        assert (
            prepared_red.cluster.log.total_counters()
            == generic_red.cluster.log.total_counters()
        )

    def test_overwrite_keeps_the_last_thread(self):
        threads = np.array([0, 0, 1, 3])
        keys = np.array([5, 5, 5, 2], dtype=np.int64)
        reduction, _ = self._pair()
        plan = reduction.prepare_bulk(threads, keys)
        with reduction.cluster.phase(PhaseKind.REDUCE_COMPUTE):
            reduction.reduce_bulk_prepared(
                plan, np.array([1.0, 2.0, 3.0, 4.0]), OVERWRITE
            )
        got_keys, got = self._collect(reduction, OVERWRITE)
        assert got_keys.tolist() == [2, 5] and got.tolist() == [4.0, 3.0]

    def test_generic_batch_after_a_prepared_one_ignores_the_plan(self):
        threads, keys, rng = self._static_batch()
        reduction, reference = self._pair()
        plan = reduction.prepare_bulk(threads, keys)
        values = rng.random(keys.size)
        with reduction.cluster.phase(PhaseKind.REDUCE_COMPUTE):
            reduction.reduce_bulk_prepared(plan, values, SUM)
        self._collect(reduction, SUM)
        # Different keys, and fewer of them: replaying the stale plan
        # would index out of range or fold the wrong slots.
        other_threads, other_keys = threads[:50], (keys[:50] + 7) % 11
        for red in (reduction, reference):
            with red.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                red.reduce_bulk(other_threads, other_keys, values[:50], SUM)
        got_keys, got = self._collect(reduction, SUM)
        want_keys, want = self._collect(reference, SUM)
        assert got_keys.tolist() == want_keys.tolist()
        assert got.tobytes() == want.tobytes()
        assert got_keys is not plan.collect(None, plan.fold(values, SUM)[1], SUM)[0]

    def test_installed_copy_of_a_prepared_batch_ignores_the_plan(self):
        # Another process's export carries equal but distinct arrays; the
        # identity check sends it down the generic fold.
        threads, keys, rng = self._static_batch()
        reduction, reference = self._pair()
        plan = reduction.prepare_bulk(threads, keys)
        values = rng.random(keys.size)
        for red in (reduction, reference):
            with red.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                red.reduce_bulk_prepared(plan, values, SUM)
        tag, maps, (span, uniq, folded) = reduction.export_state()
        reduction.install_state((tag, maps, (span, uniq.copy(), folded.copy())))
        got_keys, got = self._collect(reduction, SUM)
        want_keys, want = self._collect(reference, SUM)
        assert got_keys is not want_keys
        assert got_keys.tolist() == want_keys.tolist()
        assert got.tobytes() == want.tobytes()


class TestPreparedSubsetFold:
    """``PreparedFold.fold(..., idx)`` - the dense-slot subset fold - and
    its collect replay the generic pair - ``_fold_batch`` on the subset's
    composites, then on the thread-stripped keys - bit for bit and charge
    for charge, for any ascending subset of the frozen batch."""

    THREADS = 4
    COUNT = 600
    KEYS = 17  # ~9 positions per (thread, key) slot: heavy duplicates

    def _static_batch(self, seed=9):
        rng = np.random.default_rng(seed)
        threads = np.sort(rng.integers(0, self.THREADS, size=self.COUNT))
        keys = rng.integers(0, self.KEYS, size=self.COUNT).astype(np.int64)
        return threads, keys, rng

    def _subsets(self, threads, keys, rng):
        composite = threads * (int(keys.max()) + 1) + keys
        _, distinct = np.unique(composite, return_index=True)
        yield "single", np.array([int(rng.integers(self.COUNT))])
        yield "all-distinct", np.sort(distinct)
        yield "full", np.arange(self.COUNT)
        yield "one-thread", np.flatnonzero(threads == 2)[::2]
        for size in (2, 40, 300):
            yield f"random-{size}", np.sort(
                rng.choice(self.COUNT, size=size, replace=False)
            )

    @staticmethod
    def _values(rng, size):
        # Magnitudes far apart: float addition order shows in the bits.
        return rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)

    @pytest.mark.parametrize(
        "op", [SUM, MIN, MAX, OVERWRITE], ids=lambda op: op.name
    )
    def test_fold_and_collect_match_fold_batch(self, op):
        threads, keys, rng = self._static_batch()
        prepared_red, generic_red = [
            ThreadLocalReduction(Cluster(1, threads_per_host=self.THREADS), 0)
            for _ in range(2)
        ]
        plan = prepared_red.prepare_bulk(threads, keys)
        composite = threads * plan.span + keys
        for name, idx in self._subsets(threads, keys, rng):
            values = self._values(rng, idx.size)
            want_uniq, want_folded = _fold_batch(composite[idx], values, op)
            want_keys, want = _fold_batch(want_uniq % plan.span, want_folded, op)
            uniq, folded, present = plan.fold(values, op, idx)
            got_keys, got = plan.collect(present, folded, op)
            assert np.array_equal(uniq, want_uniq), name
            assert folded.tobytes() == want_folded.tobytes(), name
            assert np.array_equal(got_keys, want_keys), name
            assert got.tobytes() == want.tobytes(), name
            # The same through the reductions, charges included.
            with prepared_red.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                prepared_red.reduce_bulk_prepared(plan, values, op, idx)
            with generic_red.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                generic_red.reduce_bulk(threads[idx], keys[idx], values, op)
            collected = []
            for red in (prepared_red, generic_red):
                with red.cluster.phase(PhaseKind.REDUCE_SYNC):
                    collected.append(red.collect_arrays(op))
            for red_keys, red_values in collected:
                assert np.array_equal(red_keys, want_keys), name
                assert red_values.tobytes() == want.tobytes(), name
        got_total, want_total = (
            red.cluster.log.total_counters() for red in (prepared_red, generic_red)
        )
        assert got_total.reduce_calls == want_total.reduce_calls > 0
        assert got_total.combine_ops == want_total.combine_ops > 0
        assert got_total == want_total

    @pytest.mark.parametrize(
        "op", [SUM, MIN, MAX, OVERWRITE], ids=lambda op: op.name
    )
    def test_full_round_and_every_position_subset_agree(self, op):
        # The frozen replay (idx=None) and the dense-slot fold over every
        # position are two routes to one state: raw bytes and charges.
        threads, keys, rng = self._static_batch()
        values = self._values(rng, self.COUNT)
        everything = np.arange(self.COUNT)
        plan = PreparedFold(threads, keys)
        uniq, folded, present = plan.fold(values, op)
        sub_uniq, sub_folded, sub_present = plan.fold(values, op, everything)
        assert present is None
        assert np.array_equal(sub_present, np.arange(plan.uniq.size))
        assert uniq.tobytes() == sub_uniq.tobytes()
        assert folded.tobytes() == sub_folded.tobytes()
        states = []
        for idx in (None, everything):
            reduction = ThreadLocalReduction(
                Cluster(1, threads_per_host=self.THREADS), 0
            )
            with reduction.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                reduction.reduce_bulk_prepared(plan, values, op, idx)
            span, batch_uniq, batch_folded = reduction._batch
            with reduction.cluster.phase(PhaseKind.REDUCE_SYNC):
                collected_keys, collected = reduction.collect_arrays(op)
            states.append((
                span, batch_uniq.tobytes(), batch_folded.tobytes(),
                collected_keys.tobytes(), collected.tobytes(),
                reduction.cluster.log.total_counters(),
            ))
        assert states[0] == states[1]
        assert states[0][-1].reduce_calls == self.COUNT

    def test_sum_fold_order_shows_in_the_bits(self):
        # The SUM case above only has teeth if reordering moves bits.
        threads, keys, rng = self._static_batch()
        values = self._values(rng, self.COUNT)
        composite = threads * (int(keys.max()) + 1) + keys
        _, forward = _fold_batch(composite, values, SUM)
        _, backward = _fold_batch(composite[::-1], values[::-1], SUM)
        assert forward.tobytes() != backward.tobytes()

    def test_plan_arrays_are_frozen_and_a_failed_fold_leaves_no_trace(self):
        threads, keys, rng = self._static_batch()
        reduction = ThreadLocalReduction(
            Cluster(1, threads_per_host=self.THREADS), 0
        )
        plan = reduction.prepare_bulk(threads, keys)
        tables = (plan.slot, plan.uniq, plan.kslot, plan.ukeys)
        for array in tables + plan._thread_tables + plan._key_tables:
            with pytest.raises(ValueError):
                array[...] = 0
        idx = np.arange(0, self.COUNT, 3)
        values = self._values(rng, idx.size)
        before = plan.fold(values, MIN, idx)
        with pytest.raises(IndexError):
            # Misaligned values blow up inside the fold (the shape rule
            # lives one layer up, in NodePropMap); all scratch is per
            # call, so the next round folds as if nothing happened.
            plan.fold(values[: idx.size // 2], MIN, idx)
        after = plan.fold(values, MIN, idx)
        for got, want in zip(after, before):
            assert got.tobytes() == want.tobytes()

    def test_installed_subset_batch_collects_through_the_generic_path(self):
        # A batch that crossed export_state/install_state carries no plan
        # token: it must take _fold_batch and land on the same arrays.
        threads, keys, rng = self._static_batch()
        reduction, reference = [
            ThreadLocalReduction(Cluster(1, threads_per_host=self.THREADS), 0)
            for _ in range(2)
        ]
        plan = reduction.prepare_bulk(threads, keys)
        idx = np.sort(rng.choice(self.COUNT, size=200, replace=False))
        values = self._values(rng, idx.size)
        for red in (reduction, reference):
            with red.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                red.reduce_bulk_prepared(plan, values, SUM, idx)
        assert reduction._batch_plan is not None
        reduction.install_state(reduction.export_state())
        assert reduction._batch_plan is None
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                reduction_module,
                "_fold_batch",
                lambda *args: calls.append(1) or _fold_batch(*args),
            )
            with reduction.cluster.phase(PhaseKind.REDUCE_SYNC):
                got_keys, got = reduction.collect_arrays(SUM)
            with reference.cluster.phase(PhaseKind.REDUCE_SYNC):
                want_keys, want = reference.collect_arrays(SUM)
        assert calls == [1]  # the installed batch, not the prepared one
        assert np.array_equal(got_keys, want_keys)
        assert got.tobytes() == want.tobytes()
        assert (
            reduction.cluster.log.total_counters()
            == reference.cluster.log.total_counters()
        )

    @pytest.mark.parametrize("consume", ["collect", "spill", "discard"])
    def test_no_plan_token_outlives_its_batch(self, consume):
        threads, keys, rng = self._static_batch()
        reduction = ThreadLocalReduction(
            Cluster(1, threads_per_host=self.THREADS), 0
        )
        plan = reduction.prepare_bulk(threads, keys)
        for idx in (None, np.arange(5, 90)):
            values = rng.random(self.COUNT if idx is None else idx.size)
            with reduction.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                reduction.reduce_bulk_prepared(plan, values, SUM, idx)
                assert reduction._batch_plan is not None
                if consume == "spill":
                    reduction.reduce(0, 1, 1.0, SUM)
                elif consume == "discard":
                    reduction.discard()
            if consume == "collect":
                with reduction.cluster.phase(PhaseKind.REDUCE_SYNC):
                    reduction.collect_arrays(SUM)
            assert reduction._batch is None and reduction._batch_plan is None
            reduction.discard()


class TestSharedMap:
    def test_same_thread_never_conflicts(self):
        cluster = Cluster(1, threads_per_host=4)
        reduction = SharedMapReduction(cluster, 0)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for _ in range(20):
                reduction.reduce(0, 5, 1, SUM)
        assert cluster.log.total_counters().cas_conflicts == 0

    def test_cross_thread_same_key_conflicts(self):
        cluster = Cluster(1, threads_per_host=4)
        reduction = SharedMapReduction(cluster, 0)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for thread in range(4):
                for _ in range(5):
                    reduction.reduce(thread, 5, 1, SUM)
        counters = cluster.log.total_counters()
        assert counters.cas_attempts == 20
        # same-key contention: everything after the first thread's run
        # (15 updates), plus the structural map contention on every other
        # write once a second thread appears (writes 6,8,...,20 -> 8)
        assert counters.cas_conflicts == 15 + 8

    def test_distinct_keys_pay_only_structural_contention(self):
        """Distinct keys avoid slot conflicts but still contend on the
        shared map's internals once several threads write it."""
        cluster = Cluster(1, threads_per_host=4)
        reduction = SharedMapReduction(cluster, 0)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for thread in range(4):
                reduction.reduce(thread, thread, 1, SUM)
        counters = cluster.log.total_counters()
        # no same-key conflicts; structural: writes 2 and 4 collide
        assert counters.cas_conflicts == 2

    def test_single_thread_never_conflicts(self):
        cluster = Cluster(1, threads_per_host=4)
        reduction = SharedMapReduction(cluster, 0)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for key in range(10):
                reduction.reduce(0, key, 1, SUM)
        assert cluster.log.total_counters().cas_conflicts == 0

    def test_collect_returns_combined_values(self):
        cluster = Cluster(1, threads_per_host=2)
        reduction = SharedMapReduction(cluster, 0)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            reduction.reduce(0, 1, 4, MIN)
            reduction.reduce(1, 1, 2, MIN)
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            assert reduction.collect(MIN) == {1: 2}
            assert reduction.collect(MIN) == {}

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_thread_local(self, stream):
        """Conflict accounting must not change values: shared-map and CF
        reductions are semantically identical."""
        cluster = Cluster(1, threads_per_host=4)
        shared = SharedMapReduction(cluster, 0)
        local = ThreadLocalReduction(cluster, 0)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for thread, key in stream:
                shared.reduce(thread, key, thread * key, SUM)
                local.reduce(thread, key, thread * key, SUM)
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            assert shared.collect(SUM) == local.collect(SUM)


class TestKvCas:
    def make(self):
        cluster = Cluster(2, threads_per_host=2)
        client = KvClient(cluster)
        changed: list[int] = []
        writers: dict = {}
        reductions = [
            KvCasReduction(
                cluster, host, client, lambda k: f"t:{k}", writers, changed.append
            )
            for host in range(2)
        ]
        return cluster, client, reductions, changed

    def test_reduce_applies_immediately(self):
        cluster, client, reductions, changed = self.make()
        with cluster.phase(PhaseKind.INIT):
            client.set(0, "t:1", 100)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            reductions[0].reduce(0, 1, 7, MIN)
        assert client.servers[client.server_of("t:1")].get("t:1")[0] == 7
        assert changed == [1]

    def test_missing_key_created(self):
        cluster, client, reductions, changed = self.make()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            reductions[0].reduce(0, 9, 42, MIN)
        assert client.servers[client.server_of("t:9")].get("t:9")[0] == 42

    def test_no_change_not_reported(self):
        cluster, client, reductions, changed = self.make()
        with cluster.phase(PhaseKind.INIT):
            client.set(0, "t:1", 5)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            reductions[0].reduce(0, 1, 50, MIN)
        assert changed == []

    def test_concurrent_writers_pay_retries(self):
        cluster, client, reductions, _ = self.make()
        with cluster.phase(PhaseKind.INIT):
            client.set(0, "t:3", 100)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            reductions[0].reduce(0, 3, 50, MIN)
            baseline = cluster.log.total_counters().cas_conflicts
            reductions[1].reduce(0, 3, 40, MIN)  # second host, same key
            reductions[1].reduce(1, 3, 30, MIN)  # third writer
        counters = cluster.log.total_counters()
        assert counters.cas_conflicts > baseline
        # retries are capped so hubs do not go quadratic
        from repro.core.reduction import KV_RETRY_CAP

        assert counters.cas_conflicts <= 3 * KV_RETRY_CAP

    def test_collect_is_noop_and_clears_writers(self):
        cluster, client, reductions, _ = self.make()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            reductions[0].reduce(0, 3, 50, MIN)
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            assert reductions[0].collect(MIN) == {}
        # a later round starts with a clean contention slate
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            before = cluster.log.total_counters().cas_conflicts
            reductions[0].reduce(0, 3, 20, MIN)
            assert cluster.log.total_counters().cas_conflicts == before
