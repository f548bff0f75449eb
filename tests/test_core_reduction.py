"""Tests for the three reduction strategies (CF / shared-map / KV-CAS)."""

from __future__ import annotations

import ast
import inspect
import math
import operator
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.gluon import GluonAtomicReduction
from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core import reduction as reduction_module
from repro.core.reducers import (
    LOGICAL_OR,
    MAX,
    MIN,
    OVERWRITE,
    PAIR_MAX,
    PAIR_MIN,
    SUM,
    ReduceOp,
)
from repro.core.reduction import (
    KvCasReduction,
    PreparedFold,
    SharedMapReduction,
    ThreadLocalReduction,
    _fold,
)
from repro.kvstore import KvClient


def _sorted_fold(keys, values, op):
    """Reference fold, kept here on purpose: sort the keys, let each key's
    first occurrence assign and fold the rest through ``ufunc.at`` in
    position order (overwrite: the last occurrence). It is the rule
    ``core/reduction.py`` used before the identity-seeded scatter, so the
    production fold is compared with an implementation it shares no code
    with: ``(sorted unique keys, per-key folded values)``."""
    uniq, first_idx, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    if op.name == "overwrite":
        last = np.zeros(uniq.size, dtype=np.int64)
        np.maximum.at(last, inverse, np.arange(keys.size, dtype=np.int64))
        return uniq, values[last]
    acc = values[first_idx]
    rest = np.ones(keys.size, dtype=bool)
    rest[first_idx] = False
    op.ufunc.at(acc, inverse[rest], values[rest])
    return uniq, acc


def test_the_reduction_module_does_not_sort():
    """The static half of the zero-sorts-per-round count
    (``test_codegen_equivalence.py::TestWarmPartialRoundNeverSorts``): the
    module ranks ids off presence masks and folds with one identity-seeded
    ``ufunc.at``, and the shared map applies its scalar rule item by item,
    so no ``unique`` / ``argsort`` / ``sort`` appears anywhere in it."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Attribute) and child.attr in ("unique", "argsort", "sort"):
                found.append(f"line {child.lineno}: {child.attr} in {scope}")
            walk(child, inner)

    walk(ast.parse(inspect.getsource(reduction_module)), "")
    assert found == []


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
    """A PreparedFold's full-round collect folds the thread-stripped keys
    as the sort-based reference does: same bits, no per-round sort, and
    never applied to a batch it was not built for."""

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
            span, uniq, folded = generic_red._batch.state()
            want_keys, want = _sorted_fold(uniq % span, folded, op)
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
        assert got_keys is not plan.collect(None, plan.fold_slots(values, SUM)[1], SUM)[0]

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
        maps, (span, uniq, folded) = reduction.export_state()
        reduction.install_state((maps, (span, uniq.copy(), folded.copy())))
        got_keys, got = self._collect(reduction, SUM)
        want_keys, want = self._collect(reference, SUM)
        assert got_keys is not want_keys
        assert got_keys.tolist() == want_keys.tolist()
        assert got.tobytes() == want.tobytes()


class TestPreparedSubsetFold:
    """``PreparedFold.fold(..., idx)`` - the dense-slot subset fold - and
    its collect match the generic pair - the sort-based reference on the
    subset's composites, then on the thread-stripped keys - bit for bit
    and charge for charge, for any ascending subset of the frozen batch."""

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
            want_uniq, want_folded = _sorted_fold(composite[idx], values, op)
            want_keys, want = _sorted_fold(want_uniq % plan.span, want_folded, op)
            uniq, folded, present = plan.fold_slots(values, op, idx)
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
        # The scatter over the frozen ids (idx=None), the ranked fold over
        # every position and the generic dynamic-key reduce are three
        # routes to one state: raw bytes and charges.
        threads, keys, rng = self._static_batch()
        values = self._values(rng, self.COUNT)
        everything = np.arange(self.COUNT)
        plan = PreparedFold(threads, keys)
        uniq, folded, present = plan.fold_slots(values, op)
        sub_uniq, sub_folded, sub_present = plan.fold_slots(values, op, everything)
        assert present is None
        assert np.array_equal(sub_present, np.arange(plan.uniq.size))
        assert uniq.tobytes() == sub_uniq.tobytes()
        assert folded.tobytes() == sub_folded.tobytes()
        states = []
        for idx in (None, everything, "generic"):
            reduction = ThreadLocalReduction(
                Cluster(1, threads_per_host=self.THREADS), 0
            )
            with reduction.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                if isinstance(idx, str):
                    reduction.reduce_bulk(threads, keys, values, op)
                else:
                    reduction.reduce_bulk_prepared(plan, values, op, idx)
            span, batch_uniq, batch_folded = reduction._batch.state()
            with reduction.cluster.phase(PhaseKind.REDUCE_SYNC):
                collected_keys, collected = reduction.collect_arrays(op)
            states.append((
                span, batch_uniq.tobytes(), batch_folded.tobytes(),
                collected_keys.tobytes(), collected.tobytes(),
                reduction.cluster.log.total_counters(),
            ))
        assert states[0] == states[1] == states[2]
        assert states[0][-1].reduce_calls == self.COUNT

    def test_sum_fold_order_shows_in_the_bits(self):
        # The SUM case above only has teeth if reordering moves bits.
        threads, keys, rng = self._static_batch()
        values = self._values(rng, self.COUNT)
        plan = PreparedFold(threads, keys)
        forward = _fold(plan.slot, plan.uniq.size, values, SUM)
        backward = _fold(plan.slot[::-1], plan.uniq.size, values[::-1], SUM)
        assert forward.tobytes() != backward.tobytes()

    def test_plan_arrays_are_frozen_and_a_failed_fold_leaves_no_trace(self):
        threads, keys, rng = self._static_batch()
        reduction = ThreadLocalReduction(
            Cluster(1, threads_per_host=self.THREADS), 0
        )
        plan = reduction.prepare_bulk(threads, keys)
        tables = (plan.slot, plan.uniq, plan.kslot, plan.ukeys, plan.klast)
        for array in tables:
            with pytest.raises(ValueError):
                array[...] = 0
        idx = np.arange(0, self.COUNT, 3)
        values = self._values(rng, idx.size)

        def outcome(batch):
            return (batch.slots, *batch.merge(MIN), *batch.state()[1:])

        before = outcome(plan.fold(values, MIN, idx))
        for short, positions in ((values[: idx.size // 2], idx), (values, None)):
            with pytest.raises(ValueError):
                # Misaligned values blow up inside the fold (the shape
                # rule lives one layer up, in NodePropMap); all scratch is
                # per call, so the next round folds as if nothing happened.
                plan.fold(short, MIN, positions)
        after = outcome(plan.fold(values, MIN, idx))
        assert after[0] == before[0]
        for got, want in zip(after[1:], before[1:]):
            assert got.tobytes() == want.tobytes()
        assert reduction._batch is None and reduction.pending() == 0

    def test_installed_subset_batch_collects_through_the_generic_path(self):
        # A batch that crossed export_state/install_state is per-slot state
        # with no plan behind it (a one-level fold rebuilds that state for
        # the export): it must rank its keys afresh and land on the same
        # arrays.
        threads, keys, rng = self._static_batch()
        for op in (SUM, MIN):
            reduction, reference = [
                ThreadLocalReduction(Cluster(1, threads_per_host=self.THREADS), 0)
                for _ in range(2)
            ]
            plan = reduction.prepare_bulk(threads, keys)
            idx = np.sort(rng.choice(self.COUNT, size=200, replace=False))
            values = self._values(rng, idx.size)
            for red in (reduction, reference):
                with red.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                    red.reduce_bulk_prepared(plan, values, op, idx)
            slots = reduction.pending()
            reduction.install_state(reduction.export_state())
            assert reduction.pending() == slots == reference.pending()
            span, uniq, folded = reduction._batch.state()
            ref_keys, ref = _sorted_fold(uniq % span, folded, op)
            with reduction.cluster.phase(PhaseKind.REDUCE_SYNC):
                got_keys, got = reduction.collect_arrays(op)
            with reference.cluster.phase(PhaseKind.REDUCE_SYNC):
                want_keys, want = reference.collect_arrays(op)
            assert np.array_equal(got_keys, want_keys)
            assert np.array_equal(got_keys, ref_keys)
            assert got.tobytes() == want.tobytes() == ref.tobytes()
            assert (
                reduction.cluster.log.total_counters()
                == reference.cluster.log.total_counters()
            )

    @pytest.mark.parametrize("consume", ["collect", "spill"])
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
                assert reduction._batch is not None
                if consume == "spill":
                    reduction.reduce(0, 1, 1.0, SUM)
            if consume == "collect":
                with reduction.cluster.phase(PhaseKind.REDUCE_SYNC):
                    reduction.collect_arrays(SUM)
            assert reduction._batch is None
            with reduction.cluster.phase(PhaseKind.REDUCE_SYNC):
                reduction.collect(SUM)  # drain the spilled dicts for the next pass


_SPECIAL_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -1.5]


@st.composite
def _static_rounds(draw):
    """A static batch - non-decreasing threads over 1-48 of them, keys
    repeating - with its values (int64, or float64 full of signed zeros,
    NaNs, infinities and ties) and an ascending subset of its positions:
    none, one, all (``None``: the full round) or any."""
    count = draw(st.integers(1, 96))
    num_threads = draw(st.integers(1, 48))
    threads = np.sort(draw(st.lists(
        st.integers(0, num_threads - 1), min_size=count, max_size=count
    )))
    num_keys = draw(st.integers(1, 24))
    keys = draw(st.lists(st.integers(0, num_keys - 1), min_size=count, max_size=count))
    if draw(st.booleans()):
        values = np.array(draw(st.lists(
            st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3),
            min_size=count, max_size=count,
        )), dtype=np.int64)
    else:
        values = np.array(draw(st.lists(
            st.sampled_from(_SPECIAL_FLOATS) | st.floats(width=64),
            min_size=count, max_size=count,
        )), dtype=np.float64)
    subset = draw(
        st.sampled_from(["none", "one", "all"])
        | st.lists(st.booleans(), min_size=count, max_size=count)
    )
    if subset == "none":
        idx = np.empty(0, dtype=np.int64)
    elif subset == "one":
        idx = np.array([draw(st.integers(0, count - 1))])
    elif subset == "all":
        idx = None
    else:
        idx = np.flatnonzero(subset)
    return np.asarray(threads), np.asarray(keys, dtype=np.int64), values, idx


def _dict_bytes(mapping, dtype):
    """A key -> value dict, comparable bit for bit (NaN is not == NaN)."""
    return list(mapping), np.array(list(mapping.values()), dtype=dtype).tobytes()


class TestOneLevelSelectionFold:
    """Min, max and overwrite fold a prepared round straight from positions
    to keys; the two-level fold - by ``(thread, key)`` slot, then the slots
    by key - is the reference. Bit for bit: the collected keys and values,
    the touched-slot count behind the combine charge, ``pending()``, and
    the per-slot state a spill, an export and the dict merge (``collect``) rebuild
    from the kept inputs. A sum keeps both levels."""

    OPS = (MIN, MAX, OVERWRITE)

    @settings(max_examples=250, deadline=None)
    @given(case=_static_rounds())
    def test_one_level_is_the_two_level_fold(self, case):
        threads, keys, values, idx = case
        plan = PreparedFold(threads, keys)
        round_values = values if idx is None else values[idx]
        with np.errstate(invalid="ignore"):  # NaN operands of minimum / maximum
            for op in self.OPS:
                self._through_the_reductions(plan, threads, keys, round_values, op, idx)
                if not round_values.size:
                    continue  # an empty round never reaches the fold
                batch = plan.fold(round_values, op, idx)
                uniq, folded, present = plan.fold_slots(round_values, op, idx)
                want_keys, want = plan.collect(present, folded, op)
                got_keys, got = batch.merge(op)
                assert got_keys.tobytes() == want_keys.tobytes(), op.name
                assert got.dtype == want.dtype == values.dtype, op.name
                assert got.tobytes() == want.tobytes(), op.name
                assert batch.slots == uniq.size, op.name
                span, state_uniq, state_folded = batch.state()
                assert span == plan.span, op.name
                assert state_uniq.tobytes() == uniq.tobytes(), op.name
                assert state_folded.tobytes() == folded.tobytes(), op.name

    def _through_the_reductions(self, plan, threads, keys, values, op, idx):
        """The prepared reduction against the generic one on the round's
        own positions - a fold by slot, then by key - in every way the
        pending state is read."""
        if idx is not None:
            threads, keys = threads[idx], keys[idx]

        def reduced(consume):
            reduction = ThreadLocalReduction(Cluster(1, threads_per_host=48), 0)
            with reduction.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                if consume.startswith("prepared"):
                    reduction.reduce_bulk_prepared(plan, values, op, idx)
                else:
                    reduction.reduce_bulk(threads, keys, values, op)
            pending = reduction.pending()
            exported = reduction.export_state()[1]
            with reduction.cluster.phase(PhaseKind.REDUCE_SYNC):
                if consume.endswith("arrays"):
                    # A batch collects arrays, dict state a plain list.
                    got_keys, got = reduction.collect_arrays(op)
                    out = [
                        got_keys.tobytes(),
                        np.asarray(got, dtype=values.dtype).tobytes(),
                    ]
                elif consume.endswith("spill"):
                    if reduction._batch is not None:
                        reduction._spill_batch()
                    out = [_dict_bytes(m, values.dtype) for m in reduction.maps]
                else:
                    out = _dict_bytes(reduction.collect(op), values.dtype)
            counters = reduction.cluster.log.total_counters()
            if exported is not None:
                # The prepared span is the whole batch's: compare slots as
                # (thread, key) pairs, not as composites of either span.
                span, uniq, folded = exported
                exported = [a.tobytes() for a in (*np.divmod(uniq, span), folded)]
            return pending, exported, out, counters

        for consume in ("arrays", "spill", "dicts"):
            got = reduced(f"prepared-{consume}")
            want = reduced(f"generic-{consume}")
            assert got == want, (op.name, consume)

    @pytest.mark.parametrize("op", [SUM, MIN, MAX, OVERWRITE], ids=lambda op: op.name)
    def test_only_a_sum_folds_by_slot(self, op, monkeypatch):
        threads, keys, rng = TestPreparedSubsetFold()._static_batch()
        plan = PreparedFold(threads, keys)
        calls = []
        fold_slots = PreparedFold.fold_slots

        def counted(self, *args):
            calls.append(args[1].name)
            return fold_slots(self, *args)

        monkeypatch.setattr(PreparedFold, "fold_slots", counted)
        for idx in (None, np.arange(0, keys.size, 3)):
            size = keys.size if idx is None else idx.size
            batch = plan.fold(rng.standard_normal(size), op, idx)
            assert calls == ([op.name] if op is SUM else [])
            batch.state()  # a selection rebuilds its slots only when asked
            assert calls == [op.name]
            calls.clear()


def _edge_values(dtype):
    """Every value of ``dtype`` an identity could get wrong."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        tiny = np.finfo(dtype).smallest_subnormal
        return np.array(
            [0.0, -0.0, 1.5, -1.5, tiny, -tiny, np.inf, -np.inf, np.nan,
             np.finfo(dtype).max, np.finfo(dtype).min],
            dtype=dtype,
        )
    if dtype.kind == "b":
        return np.array([False, True])
    info = np.iinfo(dtype)
    return np.array([info.min, info.min + 1, 0, 1, info.max - 1, info.max], dtype=dtype)


class TestIdentity:
    """``ReduceOp.identity``: exact - ``ufunc(e, x)`` is ``x`` bit for bit -
    or None, which sends the batch down the per-item rule."""

    @pytest.mark.parametrize("op", [SUM, MIN, MAX], ids=lambda op: op.name)
    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_]
    )
    def test_identity_returns_every_value_unchanged(self, op, dtype):
        identity = op.identity(dtype)
        if op is SUM and dtype is np.bool_:
            assert identity is None  # True + True is 2 per item, True by ufunc
            return
        values = _edge_values(dtype)
        assert identity.dtype == values.dtype
        with np.errstate(invalid="ignore"):  # minimum/maximum flag a nan operand
            seeded = op.ufunc(np.full(values.size, identity), values)
        assert seeded.dtype == values.dtype
        assert seeded.tobytes() == values.tobytes()

    def test_plus_zero_is_not_the_identity_of_float_add(self):
        assert np.signbit(SUM.identity(np.float64))
        assert not np.signbit(np.add(0.0, np.float64(-0.0)))

    @pytest.mark.parametrize(
        "op, dtype",
        [
            (SUM, object), (MIN, object), (SUM, np.complex128),
            (MIN, "datetime64[s]"), (MAX, "timedelta64[s]"), (SUM, "U3"),
            (ReduceOp("prod", lambda a, b: a * b, ufunc=np.multiply), np.float64),
            (LOGICAL_OR, np.bool_), (OVERWRITE, np.float64),
        ],
        ids=lambda arg: getattr(arg, "name", None) or np.dtype(arg).name,
    )
    def test_no_known_exact_identity_is_none(self, op, dtype):
        assert op.identity(dtype) is None


class TestFoldAgainstTheScalarOracle:
    """The identity-seeded scatter against the per-item rule it replaces:
    ``ThreadLocalReduction.reduce`` call by call, then ``collect``. Raw
    bytes of the batch state and of the collected arrays, counters equal -
    on the static plan's full round, its every-position subset round and
    the generic dynamic-key reduce alike."""

    THREADS = 3

    def _oracle(self, threads, keys, values, op):
        """(per-thread maps, collected dict, counters) of the scalar calls."""
        reduction = ThreadLocalReduction(Cluster(1, threads_per_host=self.THREADS), 0)
        with reduction.cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for thread, key, value in zip(
                threads.tolist(), keys.tolist(), values.tolist()
            ):
                reduction.reduce(thread, key, value, op)
        maps = [dict(local_map) for local_map in reduction.maps]
        with reduction.cluster.phase(PhaseKind.REDUCE_SYNC):
            combined = reduction.collect(op)
        return maps, combined, reduction.cluster.log.total_counters()

    def _check(self, threads, keys, values, op):
        threads = np.asarray(threads)
        keys = np.asarray(keys, dtype=np.int64)
        assert np.all(np.diff(threads) >= 0)
        maps, combined, want_counters = self._oracle(threads, keys, values, op)
        span = int(keys.max()) + 1
        want_uniq = np.array(
            [t * span + key for t, local in enumerate(maps) for key in sorted(local)],
            dtype=np.int64,
        )
        want_folded = np.array(
            [local[key] for local in maps for key in sorted(local)], dtype=values.dtype
        )
        want_keys = np.array(sorted(combined), dtype=np.int64)
        want = np.array([combined[key] for key in sorted(combined)], dtype=values.dtype)
        plan = PreparedFold(threads, keys)
        for route in ("full", "every-position", "generic"):
            reduction = ThreadLocalReduction(
                Cluster(1, threads_per_host=self.THREADS), 0
            )
            with reduction.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                if route == "generic":
                    reduction.reduce_bulk(threads, keys, values, op)
                else:
                    idx = None if route == "full" else np.arange(keys.size)
                    reduction.reduce_bulk_prepared(plan, values, op, idx)
            got_span, uniq, folded = reduction._batch.state()  # vectorized, not spilled
            assert got_span == span, route
            assert np.array_equal(uniq, want_uniq), route
            assert folded.dtype == values.dtype, route
            assert folded.tobytes() == want_folded.tobytes(), route
            with reduction.cluster.phase(PhaseKind.REDUCE_SYNC):
                got_keys, got = reduction.collect_arrays(op)
            assert np.array_equal(got_keys, want_keys), route
            assert got.dtype == values.dtype, route
            assert got.tobytes() == want.tobytes(), route
            assert reduction.cluster.log.total_counters() == want_counters, route
        return want_folded, want

    def test_sum_on_bit_sensitive_floats(self):
        tiny = 5e-324  # smallest subnormal
        groups = {
            0: [-0.0, -0.0, -0.0],           # stays -0.0: +0.0 would not seed this
            1: [0.0, 0.0],
            2: [-0.0, 0.0, -0.0],            # +0.0 from the second term on
            3: [-0.0],
            4: [np.inf, 1.0, np.inf],
            5: [-np.inf, -np.inf],
            6: [np.nan, 1.0],
            7: [1.0, np.nan, 2.0],
            8: [tiny, tiny, -tiny, 3 * tiny],
            9: [1e-310, 2e-310, 1.0, -1.0],  # subnormals lost to the 1.0, in order
            10: [1e16, 1.0, -1e16, 1.0],     # 1.0 then 2.0 if reordered
            11: [0.1, 0.2, 0.3, 1e-17, 1e17, -1e17],
        }
        keys, values = [], []
        for position in range(6):  # interleave, so groups are not contiguous
            for key, group in groups.items():
                if position < len(group):
                    keys.append(key)
                    values.append(group[position])
        count = len(keys)
        threads = np.sort(np.arange(count) % self.THREADS)
        folded, merged = self._check(threads, keys, np.array(values), SUM)
        assert np.signbit(folded[folded == 0.0]).any()  # a -0.0 group survived
        assert np.isnan(merged).any() and np.isinf(merged).any()

    def test_sum_on_random_magnitudes(self):
        # Order shows in these bits: test_sum_fold_order_shows_in_the_bits.
        rng = np.random.default_rng(17)
        count = 500
        threads = np.sort(rng.integers(0, self.THREADS, size=count))
        keys = rng.integers(0, 13, size=count)
        values = rng.standard_normal(count) * 10.0 ** rng.integers(-8, 8, count)
        self._check(threads, keys, values, SUM)

    @pytest.mark.parametrize("op", [MIN, MAX], ids=lambda op: op.name)
    def test_min_max_on_int64_extremes(self, op):
        info = np.iinfo(np.int64)
        groups = {
            0: [info.max, info.max],  # the MIN seed itself, as a value
            1: [info.min, info.min],  # the MAX seed itself
            2: [info.max, 0, info.min],
            3: [info.min, info.max],
            4: [info.max - 1, info.max],
            5: [info.min + 1, info.min],
            6: [7],
        }
        keys = [key for key, group in groups.items() for _ in group]
        values = np.array([v for group in groups.values() for v in group], dtype=np.int64)
        order = np.random.default_rng(3).permutation(len(keys))
        threads = np.sort(np.arange(len(keys)) % self.THREADS)
        self._check(threads, np.array(keys)[order], values[order], op)

    @pytest.mark.parametrize("op", [MIN, MAX], ids=lambda op: op.name)
    def test_min_max_on_floats_with_signed_zeros(self, op):
        groups = {
            0: [-0.0, 1.0, -0.0],
            1: [0.0, 2.0, 0.0],
            2: [-0.0],
            3: [0.0],
            4: [-1.0, -0.0],
            5: [1.0, 0.0],
            6: [np.inf, -np.inf],
            7: [np.inf],
            8: [-np.inf],
            9: [5e-324, -5e-324],
        }
        keys = [key for key, group in groups.items() for _ in group]
        values = np.array([v for group in groups.values() for v in group])
        threads = np.sort(np.arange(len(keys)) % self.THREADS)
        folded, _ = self._check(threads, keys, values, op)
        assert np.signbit(folded[folded == 0.0]).any()

    @pytest.mark.parametrize("op", [MIN, MAX], ids=lambda op: op.name)
    def test_a_tie_between_the_two_zeros_follows_the_scalar_rule(self, op):
        # On a +0.0 / -0.0 tie numpy's minimum/maximum keep the later
        # operand, Python's min/max the earlier: a key that receives both
        # zeros sends the batch - generic or prepared, full or subset - to
        # the per-item rule, so even the sign bits are the oracle's.
        threads = np.zeros(4, dtype=np.int64)
        keys = np.array([0, 0, 1, 1], dtype=np.int64)
        values = np.array([0.0, -0.0, -0.0, 0.0])
        maps, combined, want_counters = self._oracle(threads, keys, values, op)
        want = [float(v).hex() for v in combined.values()]
        assert want == [(0.0).hex(), (-0.0).hex()]
        plan = PreparedFold(threads, keys)
        for route in ("generic", "full", "every-position"):
            reduction = ThreadLocalReduction(
                Cluster(1, threads_per_host=self.THREADS), 0
            )
            with reduction.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                if route == "generic":
                    reduction.reduce_bulk(threads, keys, values, op)
                else:
                    idx = None if route == "full" else np.arange(keys.size)
                    reduction.reduce_bulk_prepared(plan, values, op, idx)
            assert reduction._batch is None, route
            assert [dict(m) for m in reduction.maps] == maps, route
            with reduction.cluster.phase(PhaseKind.REDUCE_SYNC):
                got = reduction.collect(op)
            assert list(got) == list(combined), route
            assert [float(v).hex() for v in got.values()] == want, route
            assert reduction.cluster.log.total_counters() == want_counters, route

    @pytest.mark.parametrize(
        "op, dtype",
        [
            (op, dtype)
            for op in (SUM, MIN, MAX, OVERWRITE)
            for dtype in (np.int32, np.uint8, np.bool_, np.float32)
            # SUM per item computes in another type there: True + True is
            # 2 (so bool has no exact identity, and takes the per-item
            # rule - TestNoExactIdentityTakesTheScalarRule), and a float32
            # column's Python floats add as doubles.
            if not (op is SUM and dtype in (np.bool_, np.float32))
        ],
        ids=lambda arg: getattr(arg, "name", None) or arg.__name__,
    )
    def test_narrow_dtypes(self, op, dtype):
        rng = np.random.default_rng(23)
        count = 240
        threads = np.sort(rng.integers(0, self.THREADS, size=count))
        keys = rng.integers(0, 11, size=count)
        if dtype is np.bool_:
            values = rng.integers(0, 2, size=count).astype(dtype)
        elif dtype is np.float32:
            values = (rng.standard_normal(count) * 1e3).astype(dtype)
        else:
            # Small enough that no (thread, key) sum leaves the dtype:
            # Python ints grow where numpy's wrap, and the oracle is Python.
            values = rng.integers(0, 3, size=count).astype(dtype)
            values[:4] = np.iinfo(dtype).max if op is not SUM else 1
            values[4:8] = np.iinfo(dtype).min if op is not SUM else 0
        self._check(threads, keys, values, op)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_overwrite_keeps_the_last_write_per_thread_then_the_last_thread(self, dtype):
        rng = np.random.default_rng(29)
        count = 300
        threads = np.sort(rng.integers(0, self.THREADS, size=count))
        keys = rng.integers(0, 9, size=count)
        values = (rng.standard_normal(count) * 100).astype(dtype)
        self._check(threads, keys, values, OVERWRITE)


class TestNoExactIdentityTakesTheScalarRule:
    """One predicate on every batched entry point: a batch whose operator
    or dtype has no exact identity is applied per item - same state as the
    scalar calls - rather than dying inside ``np.full`` / ``np.iinfo``."""

    PROD = ReduceOp("prod", lambda a, b: a * b, ufunc=np.multiply)
    CASES = [
        (PROD, np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0])),
        (SUM, np.array([1 + 2j, 3 - 1j, 0.5j, 2, -1j, 4 + 4j])),
        (MIN, np.array([5, 3, 9, 1, 7, 2], dtype="datetime64[s]")),
        (SUM, np.array([True, True, False, True, True, True])),
        (SUM, np.array([1, 2, 3, 4, 5, 6], dtype=object)),
    ]
    THREADS = np.array([0, 0, 0, 1, 1, 1])
    KEYS = np.array([4, 4, 2, 4, 2, 2], dtype=np.int64)

    @pytest.mark.parametrize(
        "op, values", CASES, ids=[f"{op.name}-{values.dtype}" for op, values in CASES]
    )
    @pytest.mark.parametrize(
        "strategy, route",
        [
            (ThreadLocalReduction, "generic"),
            (ThreadLocalReduction, "prepared"),
            (ThreadLocalReduction, "prepared-subset"),
            (SharedMapReduction, "generic"),  # it has no prepared fold
        ],
        ids=lambda arg: getattr(arg, "__name__", arg),
    )
    def test_same_state_as_the_scalar_calls(self, op, values, strategy, route):
        idx = np.array([0, 2, 3, 5]) if route == "prepared-subset" else np.arange(6)
        bulk, scalar = (strategy(Cluster(1, threads_per_host=2), 0) for _ in range(2))
        with bulk.cluster.phase(PhaseKind.REDUCE_COMPUTE):
            if route == "generic":
                bulk.reduce_bulk(self.THREADS, self.KEYS, values, op)
            else:
                plan = bulk.prepare_bulk(self.THREADS, self.KEYS)
                bulk.reduce_bulk_prepared(
                    plan, values[idx], op, None if route == "prepared" else idx
                )
        with scalar.cluster.phase(PhaseKind.REDUCE_COMPUTE):
            for thread, key, value in zip(
                self.THREADS[idx].tolist(), self.KEYS[idx].tolist(), values[idx].tolist()
            ):
                scalar.reduce(thread, key, value, op)
        # The whole pending state (maps, writer tables, batch), read directly.
        assert _pending_state(bulk) == _pending_state(scalar)
        with bulk.cluster.phase(PhaseKind.REDUCE_SYNC):
            got_keys, got = bulk.collect_arrays(op)
        assert isinstance(got, list)  # it went to the dicts, per item
        with scalar.cluster.phase(PhaseKind.REDUCE_SYNC):
            want = scalar.collect(op)
        assert got_keys.tolist() == sorted(want)
        assert got == [want[key] for key in sorted(want)]
        assert bulk.cluster.log.total_counters() == scalar.cluster.log.total_counters()


def _pending_state(reduction) -> dict:
    return {
        name: value
        for name, value in vars(reduction).items()
        if name not in ("cluster", "host_id")
    }


# ------------------------------------------------ the one collect contract

_FLOATS = (0.0, -0.0, 1.0, -1.5, 0.1, 1e16, 5e-324, math.inf, -math.inf, math.nan)
# ``operator.add`` for the reason ``SUM`` uses it: a NaN sum that holds still.
_PAIR_SUM = ReduceOp(
    "pair_sum", lambda a, b: (operator.add(a[0], b[0]), operator.add(a[1], b[1]))
)
# Per value kind: the operators it reduces with, a value strategy, the batch dtype.
_KINDS = {
    "float": (
        (SUM, MIN, MAX, OVERWRITE), st.sampled_from(_FLOATS), np.float64
    ),
    "int": ((SUM, MIN, MAX, OVERWRITE), st.integers(-4, 4), np.int64),
    "pair": (
        (PAIR_MIN, PAIR_MAX, _PAIR_SUM, OVERWRITE),
        st.tuples(st.sampled_from(_FLOATS), st.integers(-2, 2)),
        object,
    ),
}
_COLLECT_THREADS = 3
_COLLECT_KEYS = 6


def _batch_array(values, dtype):
    """A batch's values as an ndarray - tuples one per slot, as objects."""
    if dtype is not object:
        return np.array(values, dtype=dtype)
    out = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        out[i] = value
    return out


@st.composite
def _collect_programs(draw):
    """A value kind, one of its operators, a static ``(threads, keys)``
    batch and a program over it: scalar reduces, generic batches, prepared
    rounds (whole or an ascending subset) and collects, interleaved."""
    kind = draw(st.sampled_from(sorted(_KINDS)))
    ops, value, _ = _KINDS[kind]
    op = draw(st.sampled_from(ops))
    thread = st.integers(0, _COLLECT_THREADS - 1)
    key = st.integers(0, _COLLECT_KEYS - 1)
    static = sorted(draw(st.lists(st.tuples(thread, key), min_size=1, max_size=8)))
    actions = st.one_of(
        st.tuples(st.just("reduce"), thread, key, value),
        st.tuples(
            st.just("bulk"),
            st.lists(st.tuples(thread, key, value), min_size=1, max_size=8).map(
                lambda items: sorted(items, key=lambda item: item[0])
            ),
        ),
        st.tuples(
            st.just("prepared"),
            st.lists(
                st.tuples(st.booleans(), value),
                min_size=len(static),
                max_size=len(static),
            ),
            st.booleans(),
        ),
        st.tuples(st.just("collect")),
    )
    return kind, op, static, draw(st.lists(actions, max_size=10))


class _LeftFoldModel:
    """The reference: per key a left fold of ``op``'s scalar rule in call
    order - per thread and then across threads in ascending order for the
    conflict-free maps, in one shared map otherwise - plus the charges the
    strategy's scalar calls make (``combine_ops``: two per pending
    ``(thread, key)`` slot at a conflict-free collect; ``cas_conflicts``:
    the shared map's writer-set and 1-in-2 structural rule, Gluon's
    cross-thread value changes). Gluon writes only a value that compares
    unequal, so its fold keeps the old value otherwise."""

    def __init__(self, strategy, op):
        self.strategy, self.op = strategy, op
        self.combine_ops = self.cas_conflicts = 0
        self._clear()

    def _clear(self):
        self.maps = [{} for _ in range(_COLLECT_THREADS)]
        self.writers, self.map_writers, self.writes = {}, set(), 0
        self.last_writer = {}

    def reduce(self, thread, key, value):
        op = self.op
        if self.strategy is ThreadLocalReduction:
            local = self.maps[thread]
            local[key] = value if key not in local else op(local[key], value)
        elif self.strategy is SharedMapReduction:
            writers = self.writers.setdefault(key, set())
            writers.add(thread)
            self.cas_conflicts += len(writers) > 1
            self.map_writers.add(thread)
            self.writes += 1
            self.cas_conflicts += len(self.map_writers) > 1 and self.writes % 2 == 0
            shared = self.maps[0]
            shared[key] = value if key not in shared else op(shared[key], value)
        else:
            shared = self.maps[0]
            old = shared.get(key)
            new = value if old is None else op(old, value)
            if new != old:
                previous = self.last_writer.get(key)
                self.cas_conflicts += previous is not None and previous != thread
                shared[key] = new
                self.last_writer[key] = thread

    def collect(self):
        if self.strategy is ThreadLocalReduction:
            self.combine_ops += 2 * sum(map(len, self.maps))
        combined = {}
        for local in self.maps:
            for key, value in local.items():
                combined[key] = (
                    value if key not in combined else self.op(combined[key], value)
                )
        self._clear()
        return [(key, combined[key]) for key in sorted(combined)]


def _bits(value):
    """A collected value, comparable bit for bit and by type: a float by
    its IEEE bytes (NaN and the sign of zero count), a tuple as a tuple."""
    if isinstance(value, tuple):
        return ("tuple", tuple(_bits(item) for item in value))
    if isinstance(value, (float, np.floating)):
        return ("float", np.float64(value).tobytes())
    return (type(value).__name__, value)


class TestOneCollectContract:
    """The collect reduce-sync routes, one contract for every strategy:
    ``collect_arrays`` gives ascending unique keys and the values of a
    per-key left fold, whatever mix of scalar ``reduce``, ``reduce_bulk``
    and ``reduce_bulk_prepared`` calls filled it - a folded batch as an
    ndarray, dict state as a plain list whose tuples stay tuples and whose
    floats keep their bits - and charges the ``combine_ops`` and
    ``cas_conflicts`` the scalar calls would. Batches reach each strategy
    the way ``NodePropMap`` hands them down: the conflict-free maps take a
    prepared fold, the shared map a prepared round's arrays, and Gluon's
    atomics (no bulk entry point, like the scalar executor that drives
    them) every item."""

    @pytest.mark.parametrize(
        "strategy",
        [ThreadLocalReduction, SharedMapReduction, GluonAtomicReduction],
        ids=lambda strategy: strategy.__name__,
    )
    @settings(max_examples=150, deadline=None)
    @given(program=_collect_programs())
    # inf - inf makes a NaN that then meets the batch's own NaN at one key.
    @example(
        program=(
            "float",
            SUM,
            [(0, 0)],
            [("bulk", [(0, 0, math.inf), (0, 0, -math.inf), (0, 0, math.nan)])],
        )
    )
    # Two threads' NaNs of opposite sign meet at the key merge.
    @example(
        program=(
            "float",
            SUM,
            [(0, 0)],
            [("bulk", [(0, 0, -math.nan), (1, 0, 1.0), (2, 0, math.nan)])],
        )
    )
    def test_collect_arrays_is_the_left_fold(self, strategy, program):
        kind, op, static, actions = program
        dtype = _KINDS[kind][2]
        cluster = Cluster(1, threads_per_host=_COLLECT_THREADS)
        reduction = strategy(cluster, 0)
        model = _LeftFoldModel(strategy, op)
        threads = np.array([thread for thread, _ in static])
        keys = np.array([key for _, key in static], dtype=np.int64)
        prepared = (
            reduction.prepare_bulk(threads, keys)
            if strategy is ThreadLocalReduction
            else None
        )

        def reduce_batch(batch_threads, batch_keys, values, fold=None, round_idx=None):
            """One batch: into the model item by item, into the strategy as
            a prepared ``fold`` round (at ``round_idx``) or generic arrays."""
            items = list(zip(batch_threads.tolist(), batch_keys.tolist(), values))
            for item in items:
                model.reduce(*item)
            array = _batch_array(values, dtype)
            with cluster.phase(PhaseKind.REDUCE_COMPUTE):
                if strategy is GluonAtomicReduction:
                    for item in items:
                        reduction.reduce(*item, op)
                elif fold is not None:
                    reduction.reduce_bulk_prepared(fold, array, op, round_idx)
                else:
                    reduction.reduce_bulk(batch_threads, batch_keys, array, op)

        def collect():
            with cluster.phase(PhaseKind.REDUCE_SYNC):
                got_keys, got = reduction.collect_arrays(op)
            want = model.collect()
            assert isinstance(got, (list, np.ndarray))
            assert np.all(np.diff(got_keys) > 0)  # ascending, unique
            assert got_keys.tolist() == [key for key, _ in want]
            got_values = got.tolist() if isinstance(got, np.ndarray) else got
            assert [_bits(value) for value in got_values] == [
                _bits(value) for _, value in want
            ]

        with np.errstate(invalid="ignore", over="ignore"):
            for action in actions:
                if action[0] == "reduce":
                    _, thread, key, value = action
                    model.reduce(thread, key, value)
                    with cluster.phase(PhaseKind.REDUCE_COMPUTE):
                        reduction.reduce(thread, key, value, op)
                elif action[0] == "bulk":
                    batch_threads, batch_keys, values = zip(*action[1])
                    reduce_batch(
                        np.array(batch_threads),
                        np.array(batch_keys, dtype=np.int64),
                        list(values),
                    )
                elif action[0] == "prepared":
                    _, picks, whole = action
                    idx = None if whole else np.flatnonzero([pick for pick, _ in picks])
                    chosen = np.arange(keys.size) if idx is None else idx
                    values = [picks[i][1] for i in chosen.tolist()]
                    reduce_batch(threads[chosen], keys[chosen], values, prepared, idx)
                else:
                    collect()
            collect()
        counters = cluster.log.total_counters()
        assert counters.combine_ops == model.combine_ops
        assert counters.cas_conflicts == model.cas_conflicts


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



class _PerThreadDicts:
    """The one-level fold's reference, sharing no code with the module:
    one dict per virtual thread, each item folded by ``op``'s scalar rule
    in call order; ``pending`` counts the ``(thread, key)`` entries; the
    collect merges the dicts in thread order, ``(ascending keys, value
    bits at ``dtype``)``."""

    def __init__(self, op, dtype):
        self.op = op
        self.dtype = dtype
        self.maps = {}

    def reduce(self, thread, key, value):
        local = self.maps.setdefault(thread, {})
        local[key] = self.op(local[key], value) if key in local else value

    def pending(self):
        return sum(len(local) for local in self.maps.values())

    def collect(self):
        merged = {}
        for thread in sorted(self.maps):
            for key, value in self.maps[thread].items():
                merged[key] = self.op(merged[key], value) if key in merged else value
        self.maps = {}
        keys = sorted(merged)
        return keys, np.array([merged[key] for key in keys], dtype=self.dtype).tobytes()


@st.composite
def _freely_grouping_rounds(draw):
    """A batch of an operator that groups freely: non-decreasing threads,
    repeating keys, and either integers under min / max / overwrite / sum,
    or floats under min / max holding NaNs and zeros of both signs (a NaN,
    or both zeros on one key, must still take the per-item rule) - or,
    for contrast, floats under a sum, which keeps two levels; how the
    batch arrives (generic, or a prepared full or subset round); and
    perhaps one scalar reduce after it, which spills it."""
    count = draw(st.integers(1, 40))
    num_threads = draw(st.integers(1, 8))
    threads = np.sort(np.array(draw(st.lists(
        st.integers(0, num_threads - 1), min_size=count, max_size=count
    ))))
    max_key = draw(st.integers(0, 12))
    keys = np.array(draw(st.lists(
        st.integers(0, max_key), min_size=count, max_size=count
    )), dtype=np.int64)
    if draw(st.booleans()):
        op = draw(st.sampled_from([MIN, MAX, OVERWRITE, SUM]))
        values = np.array(draw(st.lists(
            st.integers(-1000, 1000), min_size=count, max_size=count
        )), dtype=np.int64)
    elif draw(st.booleans()):
        op = draw(st.sampled_from([MIN, MAX]))
        values = np.array(draw(st.lists(
            st.sampled_from([0.0, -0.0, 1.5, -2.0, np.nan]),
            min_size=count, max_size=count,
        )), dtype=np.float64)
    else:
        op = SUM  # does not associate: its two levels show in the bits
        values = np.array(draw(st.lists(
            st.sampled_from([0.1, 3.0, 1e16, -1e16, -0.0]),
            min_size=count, max_size=count,
        )), dtype=np.float64)
    how = draw(st.sampled_from(["generic", "prepared", "subset"]))
    idx = None
    if how == "subset":
        picked = draw(st.lists(st.booleans(), min_size=count, max_size=count))
        idx = np.flatnonzero(picked)
        if idx.size == 0:
            idx = np.array([draw(st.integers(0, count - 1))])
    spill = draw(st.none() | st.tuples(
        st.integers(0, num_threads - 1), st.integers(0, max_key)
    ))
    return threads, keys, values, op, how, idx, spill


class TestFreelyGroupingFoldIsThePerThreadModel:
    """Min, max, overwrite and integer sum fold straight to keys in one
    level - through the generic ``reduce_bulk`` and the prepared full and
    subset rounds alike - and still read, in every way the pending state
    is read, exactly as per-thread dicts would: the collected keys and
    value bits, ``pending()``, the ``combine_ops`` charge, a spill by a
    later scalar reduce, and an export installed on a second reduction.
    Float min / max batches with a NaN, or both zeros on one key, take the
    per-item rule; a float sum, which does not group freely, matches the
    model by keeping its two levels."""

    THREADS = 8

    def _reduction(self):
        return ThreadLocalReduction(Cluster(1, threads_per_host=self.THREADS), 0)

    def _collect(self, reduction, op, dtype):
        """``(keys, value bits, combine_ops charged)`` of one collect."""
        with reduction.cluster.phase(PhaseKind.REDUCE_SYNC):
            keys, values = reduction.collect_arrays(op)
        combine = reduction.cluster.log.phases[-1].counters[0].combine_ops
        return keys.tolist(), np.asarray(values, dtype=dtype).tobytes(), combine

    @settings(max_examples=300, deadline=None)
    @given(case=_freely_grouping_rounds())
    def test_matches_per_thread_dicts(self, case):
        threads, keys, values, op, how, idx, spill = case
        positions = np.arange(keys.size) if idx is None else idx
        items = [
            (threads[i].item(), keys[i].item(), values[i].item())
            for i in positions.tolist()
        ]
        batch_model = _PerThreadDicts(op, values.dtype)
        for item in items:
            batch_model.reduce(*item)
        pending = batch_model.pending()  # read before the merge empties it
        want_batch = (*batch_model.collect(), 2 * pending)
        spill_model = _PerThreadDicts(op, values.dtype)
        for item in items + ([(*spill, values[0].item())] if spill else []):
            spill_model.reduce(*item)
        spill_pending = spill_model.pending()
        want_spill = (*spill_model.collect(), 2 * spill_pending)

        with np.errstate(invalid="ignore"):
            reduction = self._reduction()
            with reduction.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                if how == "generic":
                    reduction.reduce_bulk(threads, keys, values, op)
                else:
                    plan = reduction.prepare_bulk(threads, keys)
                    reduction.reduce_bulk_prepared(plan, values[positions], op, idx)
            assert reduction.pending() == pending
            if values.dtype.kind == "f" and np.isnan(values[positions]).any():
                assert reduction._batch is None  # the per-item rule
            elif values.dtype.kind == "i":
                assert reduction._batch is not None  # folded, not per item
            # Across the process boundary the export is pickled: a snapshot.
            exported = pickle.dumps(reduction.export_state())
            if spill is not None:
                with reduction.cluster.phase(PhaseKind.REDUCE_COMPUTE):
                    reduction.reduce(*spill, values[0].item(), op)
            assert self._collect(reduction, op, values.dtype) == want_spill
            # The export, installed on a second reduction, collects the
            # batch alone.
            twin = self._reduction()
            twin.install_state(pickle.loads(exported))
            assert twin.pending() == pending
            assert self._collect(twin, op, values.dtype) == want_batch
