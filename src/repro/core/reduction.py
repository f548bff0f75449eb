"""Reduction strategies: how concurrent Reduce() calls are absorbed.

Three strategies, matching Section 4.2 and the Section 6.4 variants:

* :class:`ThreadLocalReduction` (CF) - every virtual thread owns a private
  map during reduce-compute; the combining step of reduce-sync deals
  disjoint key ranges to threads. Conflicts are impossible by construction.
* :class:`SharedMapReduction` - one concurrent map per host; all threads
  reduce into it with CAS. Concurrent same-key updates from distinct
  threads are counted as conflicts (priced heavily by the cost model:
  cache-line ping-pong plus retry). This is what throttles Pregel-style
  systems on power-law graphs.
* :class:`KvCasReduction` (MC) - reductions are get+CAS retry loops against
  the distributed key-value store, with per-attempt network messages.

Each strategy also exposes ``reduce_bulk`` for the vectorized execution
path. The contract is strict: a bulk call must produce the same folded
values, the same conflict counts, and the same counter totals as the
equivalent sequence of scalar ``reduce`` calls (``threads`` non-decreasing,
as the static dealing produces). Numeric batches stay folded as sorted
key/value arrays until ``collect_arrays`` - straight by key for an
operator that groups freely (min, max, overwrite, integer sum;
:func:`_groups_freely`), else by thread-major ``(thread, key)`` slot
first - and every one of them is folded the same way: give each group a
dense id off a presence mask (:func:`_present`, :func:`_rank`), then one
identity-seeded ``ufunc.at`` scatter (:func:`_fold`). Anything without an
exact identity, and a float batch the ufunc may fold unlike the scalar
rule (:func:`_foldable`), falls back to the scalar per-item path
into dicts.

Reduce-sync has one route whatever the pending state: ``collect_arrays``
returns ascending unique keys plus their values - a folded batch's
ndarray, or, for dict state, a plain list off the dict merge
(``collect``, :func:`dict_arrays`), which the owner applies by the
per-key scalar rule.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.reducers import ReduceOp
from repro.kvstore.client import KvClient

KV_RETRY_CAP = 8


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a precomputed array immutable: plans and compiled kernels hand
    the same array objects down every round, so an accidental in-place
    mutation must fail loudly, not corrupt a run."""
    array.flags.writeable = False
    return array


_NO_KEYS = _frozen(np.empty(0, dtype=np.int64))


def _foldable(values: np.ndarray, op: ReduceOp, keys: Callable[[], np.ndarray]) -> bool:
    """Whether a batch takes :func:`_fold`: anything else - object values,
    an operator or dtype with no exact identity, a float batch the ufunc
    may fold unlike the scalar rule (:func:`_unlike_scalar_rule`;
    ``keys()`` gives the batch's keys) - applies ``op`` per item."""
    return (
        values.dtype != object
        and (op.name == "overwrite" or op.identity(values.dtype) is not None)
        and not _unlike_scalar_rule(values, op, keys)
    )


def _unlike_scalar_rule(values: np.ndarray, op: ReduceOp, keys: Callable[[], np.ndarray]) -> bool:
    """Whether folding a float batch with its ufunc may part from the left
    fold of the scalar rule (``+``, builtin ``min``/``max``).

    Where two NaNs meet, ``np.add`` and Python's ``+`` may keep the sign
    of different operands. A NaN that ``inf - inf`` makes is the one
    default NaN on both sides, so a sum parts only where a NaN of the
    batch may meet a second NaN at its key: another NaN there, an
    infinity there, or a partial sum that overflows. The usual batch
    holds no NaN and costs one ``min``.

    ``np.minimum``/``np.maximum`` propagate a NaN and keep the later of
    two tied values; the builtins keep the first operand. Tied non-zero
    floats are the same bits, so the two rules part only on a NaN or where
    one key receives both ``+0.0`` and ``-0.0``. (Where the owner applies
    a folded value a tie of zeros changes nothing: the apply writes only
    what compares unequal.) One pass over the batch settles the usual
    one-signed batch: a NaN fails both comparisons; the keys are read only
    when it holds zeros of both signs.
    """
    if values.dtype.kind != "f" or not values.size:
        return False
    if op.ufunc is np.add:
        if not np.isnan(values.min()):  # the min of a batch with a NaN is NaN
            return False
        nan = np.isnan(values)
        finite = np.isfinite(values)
        with np.errstate(over="ignore"):
            magnitude = np.abs(values[finite]).sum()
        if magnitude >= np.finfo(values.dtype).max / 2:
            return True
        batch_keys = keys()
        # Per key its NaNs and infinities: a NaN's key may hold only itself.
        nonfinite = np.bincount(batch_keys[~finite])
        return bool((nonfinite[batch_keys[nan]] > 1).any())
    if op.ufunc is not np.minimum and op.ufunc is not np.maximum:
        return False
    if values.min() > 0 or values.max() < 0:
        return False
    if np.isnan(values).any():
        return True
    zeros = np.flatnonzero(values == 0)
    negative = np.signbit(values[zeros])
    if negative.all() or not negative.any():
        return False
    zero_keys = keys()[zeros]
    return np.intersect1d(zero_keys[negative], zero_keys[~negative]).size > 0


def _groups_freely(op: ReduceOp, dtype: np.dtype) -> bool:
    """Whether a foldable batch (:func:`_foldable`) may fold straight to
    keys in one level instead of by ``(thread, key)`` slot and then by key:
    the one predicate of the generic and the prepared fold.

    A key's positions, taken in batch order, are its per-thread runs in
    thread order, so one left fold over them equals folding each run and
    then the runs wherever regrouping changes no bit: min and max (numpy
    keeps the later of tied values, and ties on a foldable batch are the
    same bits), overwrite (the key's last position is its last thread's
    last) and integer sum (addition modulo ``2**64`` associates). Float
    sum does not associate, so it keeps two levels.
    """
    ufunc = op.ufunc
    return (
        op.name == "overwrite"
        or ufunc is np.minimum
        or ufunc is np.maximum
        or (ufunc is np.add and dtype.kind in "iu")
    )


def _present(ids: np.ndarray, num_ids: int) -> np.ndarray:
    """``np.unique(ids)`` for ids that are already non-negative integers
    below ``num_ids``, without the sort: the ``flatnonzero`` of a presence
    mask is the ascending order a sort would produce. One O(``num_ids``)
    byte scan; all scratch is per call."""
    seen = np.zeros(num_ids, dtype=bool)
    seen[ids] = True
    return seen.nonzero()[0]


def _count_present(ids: np.ndarray, num_ids: int) -> int:
    """``np.unique(ids).size`` off the same presence mask, without taking
    the ids out of it."""
    seen = np.zeros(num_ids, dtype=bool)
    seen[ids] = True
    return int(np.count_nonzero(seen))


def _rank(ids: np.ndarray, num_ids: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` the same way: an ``arange``
    scattered over the present ids ranks every position. The table (a fold
    build's largest scratch) is ``int32`` where it fits; ranks come out ``int64``."""
    present = _present(ids, num_ids)
    rank = np.empty(num_ids, dtype=np.int32 if num_ids <= 2**31 else np.int64)
    rank[present] = np.arange(present.size, dtype=rank.dtype)
    return present, rank[ids].astype(np.int64)


def _rank_keys(keys: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """A batch's keys ranked once: ``(span, ukeys, key_rank)``, its
    ``max(keys) + 1``, the distinct keys ascending and each position's
    id among them. Keys are node ids (non-negative; ``NodePropMap``
    checks), so they rank over a ``span``-wide mask. An empty batch (a
    push over 0-degree nodes only) has no largest key: its span stays 1."""
    span = int(keys.max()) + 1 if keys.size else 1
    return (span, *_rank(keys, span))


def _slots(
    threads: np.ndarray, keys: np.ndarray, num_threads: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``(thread, key)`` slots of one batch:
    ``(span, uniq, slot, ukeys, kslot)``.

    ``uniq`` are the batch's distinct ``thread * span + key`` composites,
    ascending (thread-major), and ``slot`` each position's id among them;
    ``ukeys`` the distinct keys, ascending, and ``kslot`` each slot's id
    among those. Threads are below ``num_threads``, so both rank through
    :func:`_rank`: the keys first (:func:`_rank_keys`), then the
    ``(thread, key rank)`` pairs - a scan of ``span`` + ``num_threads`` x
    distinct keys bytes, never ``num_threads * span``.
    """
    span, ukeys, key_rank = _rank_keys(keys)
    # An empty batch has no distinct keys either: its width stays 1 too.
    width = max(int(ukeys.size), 1)
    composites = np.multiply(threads, width, dtype=np.int64) + key_rank
    present, slot = _rank(composites, num_threads * width)
    thread, kslot = np.divmod(present, width)
    return span, thread * span + ukeys[kslot], slot, ukeys, kslot


def _last(ids: np.ndarray, num_ids: int) -> np.ndarray:
    """Per id its last position - never from fancy-assignment write order,
    which numpy leaves unspecified for repeated indices."""
    last = np.zeros(num_ids, dtype=np.int64)
    np.maximum.at(last, ids, np.arange(ids.size, dtype=np.int64))
    return last


def _fold(
    ids: np.ndarray,
    num_ids: int,
    values: np.ndarray,
    op: ReduceOp,
    last: np.ndarray | None = None,
) -> np.ndarray:
    """The one fold kernel: ``values`` folded by id, one accumulator for
    each of the ``num_ids`` ids (an id that does not occur keeps a filler).

    ``ufunc.at`` applies repeated indices one by one in position order, so
    accumulators seeded with the operator's exact identity
    (:meth:`ReduceOp.identity`) take each id's values in the exact
    left-to-right sequence of the scalar rule - no first-occurrence pass,
    no sort - and the folded bits match. (Not ``reduceat`` over a sorted
    copy: that folds segments pairwise, and float sums drift.) Overwrite
    keeps each id's last position (``last``, when a static batch has it
    precomputed).
    """
    if op.name == "overwrite":
        return values[_last(ids, num_ids) if last is None else last]
    acc = np.full(num_ids, op.identity(values.dtype), dtype=values.dtype)
    op.ufunc.at(acc, ids, values)
    return acc


def _fold_present(
    ids: np.ndarray, num_ids: int, values: np.ndarray, op: ReduceOp
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_fold` where only some ids occur: ``(the ids present,
    ascending, their folded values)``. For an id space no wider than the
    batch behind it (a plan's slots, a batch's key span) the accumulators
    stay ``num_ids`` wide and the present ones are taken out afterwards -
    cheaper than ranking the ids first (:func:`_rank`), which is for id
    spaces that are not (:func:`_slots`)."""
    present = _present(ids, num_ids)
    return present, _fold(ids, num_ids, values, op)[present]


def dict_arrays(combined: dict[int, Any]) -> tuple[np.ndarray, list[Any]]:
    """A collected dict as ``(ascending keys, their values)``. The values
    stay a plain list - tuples stay tuples, nothing is coerced to a dtype
    - so the owner applies them by the per-key scalar rule."""
    keys = sorted(combined)
    return np.asarray(keys, dtype=np.int64), [combined[key] for key in keys]


class _Batch(NamedTuple):
    """A folded bulk batch awaiting reduce-sync: the ``(thread, key)``
    slots it touched (``pending`` counts them), its per-slot state
    ``(span, uniq, folded)`` for a spill, an export or the dict merge of
    collect, and the thread-order merge by key ``collect_arrays`` returns."""

    slots: int
    state: Callable[[], tuple[int, np.ndarray, np.ndarray]]
    merge: Callable[[ReduceOp], tuple[np.ndarray, np.ndarray]]


def _key_batch(
    threads: np.ndarray, keys: np.ndarray, values: np.ndarray, op: ReduceOp,
    num_threads: int,
) -> _Batch:
    """A generic batch whose operator groups freely (:func:`_groups_freely`),
    folded in one level: the keys ranked once, the touched ``(thread,
    key)`` slots only counted off a presence mask, the values folded
    straight to keys. The per-slot state is rebuilt from the kept inputs
    only when a spill, an export or the dict merge asks for it."""
    span, ukeys, key_rank = _rank_keys(keys)
    width = int(ukeys.size)
    composites = np.multiply(threads, width, dtype=np.int64) + key_rank
    slots = _count_present(composites, num_threads * width)
    merged = _fold(key_rank, width, values, op)

    def state() -> tuple[int, np.ndarray, np.ndarray]:
        _, uniq, slot, _, _ = _slots(threads, keys, num_threads)
        return span, uniq, _fold(slot, uniq.size, values, op)

    return _Batch(slots, state, lambda _op: (ukeys, merged))


def _slot_batch(span: int, uniq: np.ndarray, folded: np.ndarray) -> _Batch:
    """A batch held as per-slot state (a generic reduce, an installed
    export). Stripping the thread component leaves each thread's sorted
    keys in thread order, so one more fold by key is the thread-order
    dict merge of :meth:`ThreadLocalReduction.collect`."""
    return _Batch(
        int(uniq.size),
        lambda: (span, uniq, folded),
        lambda op: _fold_present(uniq % span, span, folded, op),
    )


class PreparedFold:
    """The fold plan of a *static* reduce batch: the only one there is.

    Compiled kernels (``repro.exec.codegen``) reduce with the same
    ``(threads, keys)`` arrays every round - all of them, or the ascending
    subset a frontier selects - so the batch's :func:`_slots` are a pure
    function of it and are ranked once, here, and frozen: per batch
    position the id of its ``(thread, key)`` composite among the sorted
    unique composites (``slot``, into ``uniq``), and per slot the id of its
    key among the sorted unique keys (``kslot``, into ``ukeys``). A min,
    max or overwrite fold also reads per position the id of its key
    (``kslot[slot]``, :attr:`kpos`), built on its first fold and frozen,
    so a round gathers it once instead of chaining two gathers.

    ``slot`` is the one array per batch position it keeps (``size`` long):
    :meth:`batch` derives the batch back for the generic fallback, taken
    when the fast path's preconditions (clean maps, a foldable batch) fail.

    A float sum folds by slot and then the slots by key (:meth:`fold_slots`,
    :meth:`collect`); an operator that groups freely in one level
    (:meth:`fold`).
    Either way values apply in ascending batch position (:func:`_fold`),
    and ``span`` is the full batch's ``max(keys) + 1`` (any span above
    every key orders composites and splits them by ``% span`` the same
    way), so the per-slot state is interchangeable with what
    :meth:`ThreadLocalReduction.reduce_bulk` stores.
    """

    __slots__ = ("size", "span", "slot", "uniq", "kslot", "ukeys", "_kpos", "_klast")

    def __init__(self, threads: np.ndarray, keys: np.ndarray) -> None:
        self.size = int(keys.size)
        num_threads = int(threads.max()) + 1 if threads.size else 0
        self.span, *tables = _slots(threads, keys, num_threads)
        self.uniq, self.slot, self.ukeys, self.kslot = map(_frozen, tables)
        self._kpos = self._klast = None

    def batch(self, idx: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The ``(threads, keys)`` of the batch, or of its subset at ``idx``."""
        return np.divmod(self.uniq[self.slot if idx is None else self.slot[idx]], self.span)

    @property
    def kpos(self) -> np.ndarray:
        """Per batch position the id of its key (``kslot[slot]``), built on
        first use - a sum never builds it."""
        if self._kpos is None:
            self._kpos = _frozen(self.kslot[self.slot])
        return self._kpos

    @property
    def klast(self) -> np.ndarray:
        """Per key id its last batch position (overwrite), built on first use."""
        if self._klast is None:
            self._klast = _frozen(_last(self.kpos, self.ukeys.size))
        return self._klast

    def fold(
        self, values: np.ndarray, op: ReduceOp, idx: np.ndarray | None = None
    ) -> _Batch:
        """Fold the batch's ``values`` - or, given ascending batch
        positions ``idx``, that subset's (``values`` aligned with ``idx``).

        A float sum takes two levels: float addition does not associate.
        Min, max, overwrite and an integer sum go straight to keys in one
        scatter (:func:`_groups_freely`, the predicate the generic
        :meth:`ThreadLocalReduction.reduce_bulk` takes too). Their touched
        slots are only counted; the per-slot state is rebuilt from
        ``values`` (held until reduce-sync) when asked for.
        """
        if not _groups_freely(op, values.dtype):
            uniq, folded, present = self.fold_slots(values, op, idx)
            return _Batch(
                int(uniq.size),
                lambda: (self.span, uniq, folded),
                partial(self.collect, present, folded),
            )
        if idx is None:
            slots, keys = int(self.uniq.size), self.ukeys
            merged = (
                values[self.klast] if op.name == "overwrite"
                else _fold(self.kpos, keys.size, values, op)
            )
        else:
            slots = _count_present(self.slot[idx], self.uniq.size)
            kpresent, merged = _fold_present(self.kpos[idx], self.ukeys.size, values, op)
            keys = self.ukeys[kpresent]
        return _Batch(
            slots,
            lambda: (self.span, *self.fold_slots(values, op, idx)[:2]),
            lambda _op: (keys, merged),
        )

    def fold_slots(
        self, values: np.ndarray, op: ReduceOp, idx: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The first level: ``(uniq, folded, present)``, the per-slot
        state and the slot ids behind it (None: every slot) for
        :meth:`collect`. A partial round takes the slots it touched off a
        presence mask (:func:`_fold_present`)."""
        if idx is None:
            return self.uniq, _fold(self.slot, self.uniq.size, values, op), None
        present, folded = _fold_present(self.slot[idx], self.uniq.size, values, op)
        return self.uniq[present], folded, present

    def collect(
        self, present: np.ndarray | None, folded: np.ndarray, op: ReduceOp
    ) -> tuple[np.ndarray, np.ndarray]:
        """The second level: the slots are thread-major, so folding them
        by key id applies each key's threads in ascending order. A full
        fold collects the same frozen ``ukeys`` object every round (the
        reduce-sync route cache is keyed on it)."""
        if present is None:
            return self.ukeys, _fold(self.kslot, self.ukeys.size, folded, op)
        kpresent, merged = _fold_present(
            self.kslot[present], self.ukeys.size, folded, op
        )
        return self.ukeys[kpresent], merged


class ThreadLocalReduction:
    """Conflict-free (CF): one private map per virtual thread."""

    conflict_free = True

    def __init__(
        self, cluster: Cluster, host_id: int, serial_combine: bool = False
    ) -> None:
        self.cluster = cluster
        self.host_id = host_id
        self.serial_combine = serial_combine
        self.maps: list[dict[int, Any]] = [
            {} for _ in range(cluster.threads_per_host)
        ]
        # Bulk-path state: one whole batch folded (a _Batch), its per-slot
        # state on (thread, key) composite keys - ``uniq`` ascending in
        # thread-major order. Dict state and batch state never coexist;
        # mixing scalar and bulk reduces (or back-to-back bulk batches)
        # spills the batch into the per-thread dicts with values unchanged.
        self._batch: _Batch | None = None
        # Whether any thread dict holds an entry: raised where entries can
        # appear (scalar reduce, the per-item fallback, a spill, an
        # installed export), lowered where the dicts are emptied (collect) -
        # so the bulk round never walks ``threads_per_host`` empty dicts.
        self._dict_state = False

    def reduce(self, thread: int, key: int, value: Any, op: ReduceOp) -> None:
        counters = self.cluster.counters(self.host_id)
        counters.reduce_calls += 1
        if self._batch is not None:
            self._spill_batch()
        self._dict_state = True
        local_map = self.maps[thread]
        if key in local_map:
            local_map[key] = op(local_map[key], value)
        else:
            local_map[key] = value

    def reduce_bulk(
        self,
        threads: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        op: ReduceOp,
    ) -> None:
        """Batched reduce (``threads`` non-decreasing): same accounting and
        the same per-thread folded values as the scalar calls."""
        counters = self.cluster.counters(self.host_id)
        count = int(keys.size)
        counters.reduce_calls += count
        if count == 0:
            return
        values = np.asarray(values)
        if self._batch is not None:
            self._spill_batch()
        if not self._dict_state and _foldable(values, op, lambda: keys):
            # All threads clean: fold the whole batch at once - straight to
            # keys when the operator groups freely, else by (thread, key)
            # slot. Bit-identical to per-thread folds: slots order as
            # (thread, key), and the ``.at`` application order within a
            # slot is the thread's own left-to-right fold of that key.
            if _groups_freely(op, values.dtype):
                self._batch = _key_batch(threads, keys, values, op, len(self.maps))
                return
            span, uniq, slot, _, _ = _slots(threads, keys, len(self.maps))
            self._batch = _slot_batch(span, uniq, _fold(slot, uniq.size, values, op))
            return
        # Prior pending state, or a batch with no exact identity or that
        # the ufunc may fold unlike the scalar rule: apply the exact
        # sequential scalar rule into the thread dicts.
        self._dict_state = True
        maps = self.maps
        for thread, key, value in zip(
            threads.tolist(), keys.tolist(), values.tolist()
        ):
            local_map = maps[thread]
            if key in local_map:
                local_map[key] = op(local_map[key], value)
            else:
                local_map[key] = value

    def prepare_bulk(self, threads: np.ndarray, keys: np.ndarray) -> PreparedFold:
        """Assemble the :class:`PreparedFold` of a static batch (codegen)."""
        return PreparedFold(np.asarray(threads), np.asarray(keys, dtype=np.int64))

    def reduce_bulk_prepared(
        self,
        prepared: PreparedFold,
        values: np.ndarray,
        op: ReduceOp,
        idx: np.ndarray | None = None,
    ) -> None:
        """:meth:`reduce_bulk` over ``prepared``'s batch - or its subset at
        ascending positions ``idx`` - with identical charges and folded
        state, minus the per-round sorts. Falls back to the generic path
        whenever its preconditions do not hold. ``values`` is handed over
        (:meth:`PreparedFold.fold` may hold it until reduce-sync)."""
        count = prepared.size if idx is None else int(idx.size)
        if count == 0:
            return
        values = np.asarray(values)
        if (
            self._batch is not None
            or self._dict_state
            or not _foldable(values, op, lambda: prepared.batch(idx)[1])
        ):
            self.reduce_bulk(*prepared.batch(idx), values, op)
            return
        counters = self.cluster.counters(self.host_id)
        counters.reduce_calls += count
        self._batch = prepared.fold(values, op, idx)

    def _spill_batch(self) -> None:
        """Move the folded batch into the thread dicts (values unchanged)."""
        span, uniq, folded = self._batch.state()
        self._batch = None
        self._dict_state = True
        maps = self.maps
        for composite, value in zip(uniq.tolist(), folded.tolist()):
            maps[composite // span][composite % span] = value

    def pending(self) -> int:
        total = sum(map(len, self.maps)) if self._dict_state else 0
        if self._batch is not None:
            total += self._batch.slots
        return total

    def export_state(self) -> tuple:
        """Complete pending-reduction state, for the host-shard exchange
        (``repro.exec.pool``). The returned structure crosses a process
        boundary via pickle, so sharing references with the live maps is
        fine - the pipe serializes a snapshot. A batch ships as per-slot
        state (its plan stays in this process), and a peer that installs
        it takes the presence-mask merge at the next reduce-sync."""
        return (self.maps, self._batch and self._batch.state())

    def install_state(self, state: tuple) -> None:
        """Replace the pending state with an exported snapshot."""
        maps, batch = state
        self.maps = list(maps)
        self._dict_state = any(maps)
        self._batch = None if batch is None else _slot_batch(*batch)

    def _charge_combine(self) -> None:
        counters = self.cluster.counters(self.host_id)
        # Each entry is scanned while filtering by range and combined once.
        combine_cost = 2 * self.pending()
        if self.serial_combine:
            # Ablation: a single thread combines all thread-local maps.
            # The phase is priced divided by the thread count, so charging
            # T times the work models zero parallel speedup.
            combine_cost *= self.cluster.threads_per_host
        counters.combine_ops += combine_cost

    def collect(self, op: ReduceOp) -> dict[int, Any]:
        """The combining step (Figure 7): disjoint key ranges per thread.

        Charged to the calling phase (reduce-sync), matching the paper's
        observation that CF shifts combining cost into communication time.
        """
        self._charge_combine()
        combined: dict[int, Any] = {}
        for local_map in self.maps:
            if local_map:
                for key, value in local_map.items():
                    if key in combined:
                        combined[key] = op(combined[key], value)
                    else:
                        combined[key] = value
                local_map.clear()
        self._dict_state = False
        batch, self._batch = self._batch, None
        if batch is not None:
            # Thread-major order = thread order, like the dict merge above.
            span, uniq, folded = batch.state()
            for composite, value in zip(uniq.tolist(), folded.tolist()):
                key = composite % span
                if key in combined:
                    combined[key] = op(combined[key], value)
                else:
                    combined[key] = value
        return combined

    def collect_arrays(
        self, op: ReduceOp
    ) -> tuple[np.ndarray, np.ndarray | list[Any]]:
        """The reduce-sync collect: :meth:`collect`'s combining semantics
        and charge, as ``(ascending unique keys, values)``. A folded batch
        merges straight to arrays; dict state goes through :meth:`collect`
        and returns its values as a plain list (:func:`dict_arrays`). An
        idle host - nothing reduced since the last collect - returns
        before any scan: its combine charge is ``2 * 0``, and with no
        values there is no value dtype to report, so the empty key array
        stands in for both."""
        if self._dict_state:
            return dict_arrays(self.collect(op))
        if self._batch is None:
            return _NO_KEYS, _NO_KEYS
        self._charge_combine()
        batch, self._batch = self._batch, None
        return batch.merge(op)


class SharedMapReduction:
    """One shared concurrent map; same-key cross-thread updates conflict."""

    conflict_free = False

    def __init__(self, cluster: Cluster, host_id: int) -> None:
        self.cluster = cluster
        self.host_id = host_id
        self.map: dict[int, Any] = {}
        self._writers: dict[int, set[int]] = {}
        self._map_writers: set[int] = set()
        self._write_count = 0
        # Bulk-path state: folded (sorted unique keys, values) plus per-key
        # first writer and whether more than one thread touched the key
        # (enough to reconstruct exact writer-set conflict behavior if a
        # scalar reduce follows).
        self._bulk_keys: np.ndarray | None = None
        self._bulk_vals: np.ndarray | None = None
        self._bulk_first_writer: np.ndarray | None = None
        self._bulk_multi: np.ndarray | None = None

    def reduce(self, thread: int, key: int, value: Any, op: ReduceOp) -> None:
        if self._bulk_keys is not None:
            self._spill_bulk()
        counters = self.cluster.counters(self.host_id)
        counters.cas_attempts += 1
        counters.hash_probes += 1
        writers = self._writers.setdefault(key, set())
        writers.add(thread)
        if len(writers) > 1:
            # A second (or later) thread is hammering the same slot: under
            # real interleaving nearly every such update pays a failed CAS
            # and a cache-line transfer.
            counters.cas_conflicts += 1
        # Structural contention: a concurrent hash map takes bucket locks /
        # CAS-es control words on every write, so once several threads
        # write the *same map*, even distinct-key writes collide regularly
        # (modeled at a deterministic 1-in-2 rate).
        self._map_writers.add(thread)
        self._write_count += 1
        if len(self._map_writers) > 1 and self._write_count % 2 == 0:
            counters.cas_conflicts += 1
        if key in self.map:
            self.map[key] = op(self.map[key], value)
        else:
            self.map[key] = value

    def reduce_bulk(
        self,
        threads: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        op: ReduceOp,
    ) -> None:
        """Batched reduce (``threads`` non-decreasing): conflict counts are
        derived arithmetically, bit-identical to the scalar call sequence."""
        count = int(keys.size)
        if count == 0:
            return
        values = np.asarray(values)
        if self.map or self._bulk_keys is not None or not _foldable(values, op, lambda: keys):
            if self._bulk_keys is not None:
                self._spill_bulk()
            for thread, key, value in zip(
                threads.tolist(), keys.tolist(), values.tolist()
            ):
                self.reduce(thread, key, value, op)
            return
        counters = self.cluster.counters(self.host_id)
        counters.cas_attempts += count
        counters.hash_probes += count
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_threads = threads[order]
        sorted_values = values[order]
        seg_starts = np.flatnonzero(
            np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
        )
        seg_lens = np.diff(np.r_[seg_starts, count])
        first_writers = sorted_threads[seg_starts]
        # Per-key conflicts: within a key's calls (original order, preserved
        # by the stable sort; threads non-decreasing) the writer set stays
        # singleton through the leading run of the first thread and is
        # multi-writer for every call after it.
        same_as_first = sorted_threads == np.repeat(first_writers, seg_lens)
        uncontended = np.add.reduceat(same_as_first.astype(np.int64), seg_starts)
        counters.cas_conflicts += count - int(uncontended.sum())
        # Structural contention in closed form: call i (1-based within the
        # batch) conflicts iff the map's writer set holds >= 2 threads by
        # then and the running write count W+i is even. The set reaches 2
        # at the first call whose thread differs from the established
        # single writer; the even-count tally over (W+j, W+count] follows.
        write_count = self._write_count
        first_thread = int(threads[0])
        if len(self._map_writers) >= 2 or (
            self._map_writers and first_thread not in self._map_writers
        ):
            eligible_from = 0
        else:
            eligible_from = int(np.searchsorted(threads, first_thread, side="right"))
        counters.cas_conflicts += (write_count + count) // 2 - (
            write_count + eligible_from
        ) // 2
        self._write_count = write_count + count
        self._map_writers.update(np.unique(threads).tolist())
        # The stable sort keeps each key's calls in their original order.
        segment = np.repeat(np.arange(seg_starts.size, dtype=np.int64), seg_lens)
        self._bulk_keys = sorted_keys[seg_starts]
        self._bulk_vals = _fold(
            segment, seg_starts.size, sorted_values, op, seg_starts + seg_lens - 1
        )
        self._bulk_first_writer = first_writers
        self._bulk_multi = seg_lens != uncontended

    def _spill_bulk(self) -> None:
        """Move folded arrays into the shared dict + writer-set tables.

        A contended key gets a synthetic extra writer (-1): any later real
        thread then sees a multi-writer set, exactly as after the scalar
        calls (the conflict rule only tests ``len(writers) > 1``).
        """
        keys = self._bulk_keys
        vals = self._bulk_vals
        firsts = self._bulk_first_writer
        multi = self._bulk_multi
        self._bulk_keys = self._bulk_vals = None
        self._bulk_first_writer = self._bulk_multi = None
        for key, value, writer, contended in zip(
            keys.tolist(), vals.tolist(), firsts.tolist(), multi.tolist()
        ):
            self.map[key] = value
            self._writers[key] = {writer, -1} if contended else {writer}

    def pending(self) -> int:
        total = len(self.map)
        if self._bulk_keys is not None:
            total += int(self._bulk_keys.size)
        return total

    def collect(self, op: ReduceOp) -> dict[int, Any]:
        del op  # combining happened eagerly, amortized into compute
        if self._bulk_keys is not None:
            self._spill_bulk()
        combined = self.map
        self.map = {}
        self._writers.clear()
        self._map_writers.clear()
        self._write_count = 0
        return combined

    def collect_arrays(
        self, op: ReduceOp
    ) -> tuple[np.ndarray, np.ndarray | list[Any]]:
        """:meth:`collect` as ``(ascending unique keys, values)``: the
        folded arrays, or dict state's plain list (:func:`dict_arrays`)."""
        if self.map:
            return dict_arrays(self.collect(op))
        keys = self._bulk_keys
        vals = self._bulk_vals
        self._bulk_keys = self._bulk_vals = None
        self._bulk_first_writer = self._bulk_multi = None
        self._writers.clear()
        self._map_writers.clear()
        self._write_count = 0
        if keys is None:
            return np.empty(0, dtype=np.int64), np.empty(0)
        return keys, vals


class KvCasReduction:
    """Distributed CAS retry loops against the key-value store (MC variant).

    Reductions apply *immediately* to the canonical value in the store
    (ReduceSync is then a no-op, Section 6.4). Contention is modeled from
    the number of distinct (host, thread) writers per key this round: each
    additional concurrent writer costs one failed round trip, capped.
    """

    conflict_free = False

    def __init__(
        self,
        cluster: Cluster,
        host_id: int,
        client: KvClient,
        key_fn: Callable[[int], str],
        phase_writers: dict[int, set[tuple[int, int]]],
        on_change: Callable[[int], None],
    ) -> None:
        self.cluster = cluster
        self.host_id = host_id
        self.client = client
        self.key_fn = key_fn
        self.phase_writers = phase_writers
        self.on_change = on_change

    def reduce(self, thread: int, key: int, value: Any, op: ReduceOp) -> None:
        counters = self.cluster.counters(self.host_id)
        writers = self.phase_writers.setdefault(key, set())
        writers.add((self.host_id, thread))
        retries = min(len(writers) - 1, KV_RETRY_CAP)
        # Failed attempts: each one is a wasted get + cas round trip.
        string_key = self.key_fn(key)
        for _ in range(retries):
            self.client.get(self.host_id, string_key)
            self.client.get(self.host_id, string_key)  # the cas leg
            counters.cas_attempts += 1
            counters.cas_conflicts += 1
        # The successful attempt.
        current = self.client.get(self.host_id, string_key)
        counters.cas_attempts += 1
        if current is None:
            new = value
            self.client.set(self.host_id, string_key, new)
            self.on_change(key)
        else:
            old_value, version = current
            new = op(old_value, value)
            self.client.cas(self.host_id, string_key, new, version)
            if new != old_value:
                self.on_change(key)

    def reduce_bulk(
        self,
        threads: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        op: ReduceOp,
    ) -> None:
        # Every reduction is a get+CAS round trip against string keys: the
        # MC layout has no bulk fast path, by design (this *is* the paper's
        # point about property maps layered over a generic kvstore).
        for thread, key, value in zip(
            threads.tolist(), keys.tolist(), np.asarray(values).tolist()
        ):
            self.reduce(thread, key, value, op)

    def pending(self) -> int:
        return 0

    def collect(self, op: ReduceOp) -> dict[int, Any]:
        del op
        self.phase_writers.clear()
        return {}
