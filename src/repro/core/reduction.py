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
key/value arrays (thread-major composite keys for CF) until
``collect``/``collect_arrays``; anything that cannot be folded with a
ufunc falls back to the scalar per-item path.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

import numpy as np

from repro.cluster.cluster import Cluster
from repro.core.reducers import ReduceOp
from repro.kvstore.client import KvClient

KV_RETRY_CAP = 8


def _fold_batch(
    keys: np.ndarray, values: np.ndarray, op: ReduceOp
) -> tuple[np.ndarray, np.ndarray] | None:
    """Fold one batch into (sorted unique keys, per-key folded values).

    Bit-identical to applying ``op`` left-to-right per key: the first
    occurrence assigns, later occurrences fold via the op's unbuffered
    ``.at`` ufunc form (which applies duplicate indices sequentially).
    Returns None when the batch is not vectorizable (object values or an
    operator with no ufunc).
    """
    if values.dtype == object:
        return None
    if op.ufunc is None and op.name != "overwrite":
        return None
    uniq, first_idx, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    if op.name == "overwrite":
        if uniq.size == keys.size:
            return uniq, values[first_idx]
        last = np.zeros(uniq.size, dtype=np.int64)
        np.maximum.at(last, inverse, np.arange(keys.size, dtype=np.int64))
        return uniq, values[last]
    acc = values[first_idx]
    if uniq.size != keys.size:
        rest = np.ones(keys.size, dtype=bool)
        rest[first_idx] = False
        op.ufunc.at(acc, inverse[rest], values[rest])
    return uniq, acc


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a precomputed array immutable: plans and compiled kernels hand
    the same array objects down every round, so an accidental in-place
    mutation must fail loudly, not corrupt a run."""
    array.flags.writeable = False
    return array


def _group(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The static half of :func:`_fold_batch` for one label array, frozen:
    the sorted unique labels, each position's dense id among them, and the
    ``(first_idx, rest, inverse_rest, last)`` tables :func:`_replay` applies."""
    uniq, first_idx, dense = np.unique(
        labels, return_index=True, return_inverse=True
    )
    dense = dense.reshape(-1)
    # Positions of the non-first occurrences, ascending: an index take
    # gathers them per round without re-scanning a boolean mask.
    is_rest = np.ones(labels.size, dtype=bool)
    is_rest[first_idx] = False
    rest = np.flatnonzero(is_rest)
    # Last occurrence per label, for the overwrite fold.
    last = np.zeros(uniq.size, dtype=np.int64)
    np.maximum.at(last, dense, np.arange(labels.size, dtype=np.int64))
    tables = (first_idx, rest, dense[rest], last)
    return _frozen(uniq), _frozen(dense), tuple(map(_frozen, tables))


def _replay(tables: tuple, values: np.ndarray, op: ReduceOp) -> np.ndarray:
    """The value half of :func:`_fold_batch` over :func:`_group` tables.

    Deliberately the same first-occurrence + ``ufunc.at`` decomposition
    rather than e.g. ``reduceat`` over a sorted copy: ``add.reduceat``
    folds segments pairwise, which is not bit-identical to the sequential
    left-to-right application the scalar oracle produces."""
    first_idx, rest, inverse_rest, last = tables
    if op.name == "overwrite":
        return values[last]
    acc = values[first_idx]
    if inverse_rest.size:
        op.ufunc.at(acc, inverse_rest, values.take(rest))
    return acc


def _fold_groups(
    group: np.ndarray, num_groups: int, values: np.ndarray, op: ReduceOp
) -> tuple[np.ndarray, np.ndarray]:
    """Fold ``values`` by dense group id: ``(present ids ascending, folded)``.

    :func:`_fold_batch` for keys that are already ids below ``num_groups``:
    a presence mask replaces the sort (its ``flatnonzero`` is the ascending
    order a sort would produce), ``minimum.at`` over positions finds each
    group's first occurrence (``maximum.at`` the last, for overwrite), and
    the remaining positions apply in ascending order through the same
    sequential ``ufunc.at`` - per group the exact left-to-right sequence,
    so the folded bits match. First/last never come from fancy-assignment
    write order, which numpy leaves unspecified for repeated indices. All
    scratch is per call: nothing writable outlives it.
    """
    seen = np.zeros(num_groups, dtype=bool)
    seen[group] = True
    present = np.flatnonzero(seen)
    dense = np.empty(num_groups, dtype=np.int64)
    dense[present] = np.arange(present.size, dtype=np.int64)
    local = dense[group]
    count = group.size
    positions = np.arange(count, dtype=np.int64)
    if op.name == "overwrite":
        last = np.zeros(present.size, dtype=np.int64)
        np.maximum.at(last, local, positions)
        return present, values[last]
    first = np.full(present.size, count, dtype=np.int64)
    np.minimum.at(first, local, positions)
    acc = values[first]
    if present.size != count:
        is_rest = np.ones(count, dtype=bool)
        is_rest[first] = False
        rest = np.flatnonzero(is_rest)
        op.ufunc.at(acc, local[rest], values[rest])
    return present, acc


class PreparedFold:
    """The fold plan of a *static* reduce batch: the only one there is.

    Compiled kernels (``repro.exec.codegen``) reduce with the same
    ``(threads, keys)`` arrays every round - all of them, or the ascending
    subset a frontier selects - so the sorts of :func:`_fold_batch` are a
    pure function of the batch and are done once, here: one of the
    ``(thread, key)`` composites (the thread-level fold) and one of their
    plain keys (the reduce-sync merge). Each is kept both ways a round
    can use it:

    * *dense ids* - per batch position the id of its composite among the
      sorted unique composites (``slot``, into ``uniq``), per slot the id
      of its key among the sorted unique keys (``kslot``, into ``ukeys``).
      A subset round folds by group id (:func:`_fold_groups`): O(k)
      gathers for k positions plus a byte scan of a presence mask.
    * *frozen replay tables* - over the whole batch the first-occurrence /
      rest / last decomposition is static too, so a full round
      (``idx=None``) skips even the presence scan and the ``minimum.at``
      (:func:`_replay`). It stays a special case because a dense
      every-edge-every-round push (PageRank) spends its reduce time there.

    Either way a slot's values apply in ascending batch position, so the
    folded state is bit-identical to :func:`_fold_batch` on the same
    positions; ``span`` is the full batch's ``max(keys) + 1`` (any span
    above every key orders composites and splits them by ``% span`` the
    same way), so the state is interchangeable with what
    :meth:`ThreadLocalReduction.reduce_bulk` stores. ``threads``/``keys``
    are kept for the fallback to that generic path when the fast path's
    preconditions (clean thread maps, ufunc-foldable op) fail at run time.
    """

    __slots__ = (
        "threads", "keys", "span",
        "slot", "uniq", "kslot", "ukeys", "_thread_tables", "_key_tables",
    )

    def __init__(self, threads: np.ndarray, keys: np.ndarray) -> None:
        self.threads = threads
        self.keys = keys
        # An empty batch (a push over 0-degree nodes only) has no largest key.
        self.span = int(keys.max()) + 1 if keys.size else 1
        self.uniq, self.slot, self._thread_tables = _group(
            threads * self.span + keys
        )
        self.ukeys, self.kslot, self._key_tables = _group(self.uniq % self.span)

    def fold(
        self, values: np.ndarray, op: ReduceOp, idx: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Fold the batch's ``values`` - or, given ascending batch
        positions ``idx``, that subset's (``values`` aligned with ``idx``)
        - into ``(uniq, folded, present)``: with :attr:`span`, the first
        two are the reduction's batch state; ``present`` is the slot ids
        behind them (None: every slot), which :meth:`collect` takes."""
        if idx is None:
            return self.uniq, _replay(self._thread_tables, values, op), None
        present, folded = _fold_groups(self.slot[idx], self.uniq.size, values, op)
        return self.uniq[present], folded, present

    def collect(
        self, present: np.ndarray | None, folded: np.ndarray, op: ReduceOp
    ) -> tuple[np.ndarray, np.ndarray]:
        """``_fold_batch(uniq % span, folded, op)`` - the thread-order
        merge of one :meth:`fold` result - without its per-round sort: the
        slots are thread-major, so folding them by key id applies each
        key's threads in ascending order. A full fold collects the same
        frozen ``ukeys`` object every round (the reduce-sync route cache
        is keyed on it)."""
        if present is None:
            return self.ukeys, _replay(self._key_tables, folded, op)
        kpresent, merged = _fold_groups(
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
        # Bulk-path state: one whole batch folded on (thread, key)
        # composite keys - ``uniq`` ascending in thread-major order, so a
        # thread's segment is its sorted unique keys and its folded values.
        # Dict state and batch state never coexist; mixing scalar and bulk
        # reduces (or back-to-back bulk batches) spills the batch into the
        # per-thread dicts with values unchanged.
        self._batch: tuple[int, np.ndarray, np.ndarray] | None = None
        # How the prepared fold that produced ``_batch`` collects it, if
        # one did: ``(uniq, collect)``, the batch's own ``uniq`` object
        # and the plan's sort-free thread merge. Only ever trusted after
        # an identity check of that ``uniq`` against the pending batch's,
        # so a batch from any other source (generic reduce, another
        # process's export) never meets it. Set and cleared together with
        # ``_batch``, in :meth:`_swap_batch` only.
        self._batch_plan: tuple[np.ndarray, Callable[..., Any]] | None = None

    def _swap_batch(
        self,
        batch: tuple[int, np.ndarray, np.ndarray] | None = None,
        plan: tuple[np.ndarray, Callable[..., Any]] | None = None,
    ) -> tuple[Any, Any]:
        """The one place the pending batch changes hands: install
        ``batch`` with its collect token (by default nothing) and return
        the previous pair, so a token never outlives its batch."""
        previous = self._batch, self._batch_plan
        self._batch, self._batch_plan = batch, plan
        return previous

    def reduce(self, thread: int, key: int, value: Any, op: ReduceOp) -> None:
        counters = self.cluster.counters(self.host_id)
        counters.reduce_calls += 1
        if self._batch is not None:
            self._spill_batch()
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
        if (
            not any(self.maps)
            and values.dtype != object
            and (op.ufunc is not None or op.name == "overwrite")
        ):
            # All threads clean and the op folds with a ufunc: fold the
            # whole batch at once on (thread, key) composite keys - one
            # np.unique for the host. Bit-identical to per-thread folds:
            # composites sort as (thread, key), and first occurrences plus
            # the ``.at`` application order within a thread's segment match
            # the segment-local left-to-right fold exactly.
            span = int(keys.max()) + 1
            uniq, folded = _fold_batch(threads * span + keys, values, op)
            self._swap_batch((span, uniq, folded))
            return
        # Prior pending state or a non-vectorizable op: apply the exact
        # sequential scalar rule into the thread dicts.
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
        whenever its preconditions do not hold."""
        count = int((prepared.keys if idx is None else idx).size)
        if count == 0:
            return
        values = np.asarray(values)
        if (
            self._batch is not None
            or any(self.maps)
            or values.dtype == object
            or (op.ufunc is None and op.name != "overwrite")
        ):
            threads, keys = prepared.threads, prepared.keys
            if idx is not None:
                threads, keys = threads[idx], keys[idx]
            self.reduce_bulk(threads, keys, values, op)
            return
        counters = self.cluster.counters(self.host_id)
        counters.reduce_calls += count
        uniq, folded, present = prepared.fold(values, op, idx)
        self._swap_batch(
            (prepared.span, uniq, folded),
            (uniq, partial(prepared.collect, present)),
        )

    def _spill_batch(self) -> None:
        """Move the folded batch into the thread dicts (values unchanged)."""
        (span, uniq, folded), _ = self._swap_batch()
        maps = self.maps
        for composite, value in zip(uniq.tolist(), folded.tolist()):
            maps[composite // span][composite % span] = value

    def pending(self) -> int:
        total = sum(map(len, self.maps))
        if self._batch is not None:
            total += int(self._batch[1].size)
        return total

    def export_state(self) -> tuple:
        """Complete pending-reduction state, for the host-shard exchange
        (``repro.exec.pool``). The returned structure crosses a process
        boundary via pickle, so sharing references with the live maps is
        fine - the pipe serializes a snapshot."""
        return ("tl", self.maps, self._batch)

    def install_state(self, state: tuple) -> None:
        """Replace the pending state with an exported snapshot."""
        tag, maps, batch = state
        if tag != "tl":  # pragma: no cover - strategies never change mid-run
            raise ValueError(f"cannot install {tag!r} state into a CF reduction")
        self.maps = list(maps)
        self._swap_batch(batch)

    @property
    def bulk_state_only(self) -> bool:
        """True when no thread holds dict state, so collect_arrays() can
        fold without materializing Python dicts."""
        return not any(self.maps)

    def discard(self) -> None:
        """Drop all pending state without folding or charging.

        The host-sharded reduce-sync (``repro.exec.pool``) folds each
        source host's state on exactly one process - the shard owner, who
        pays the combine charge - and discards the identical replica
        everywhere else."""
        for local_map in self.maps:
            local_map.clear()
        self._swap_batch()

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
        batch, _ = self._swap_batch()
        if batch is not None:
            # Thread-major order = thread order, like the dict merge above.
            span, uniq, folded = batch
            for composite, value in zip(uniq.tolist(), folded.tolist()):
                key = composite % span
                if key in combined:
                    combined[key] = op(combined[key], value)
                else:
                    combined[key] = value
        return combined

    def collect_arrays(self, op: ReduceOp) -> tuple[np.ndarray, np.ndarray]:
        """Bulk collect: the same combining semantics and charge as
        :meth:`collect`, returning (sorted unique keys, values) arrays.
        Requires :attr:`bulk_state_only`."""
        self._charge_combine()
        batch, plan = self._swap_batch()
        if batch is None:
            return np.empty(0, dtype=np.int64), np.empty(0)
        span, uniq, folded = batch
        # Strip the thread component; the result is the per-thread sorted
        # key runs concatenated in thread order, so one more fold matches
        # the thread-order dict merge of :meth:`collect` (first occurrence
        # assigns, later threads fold left-to-right, overwrite keeps last).
        # A prepared fold's own batch takes its plan's sort-free merge.
        if plan is not None and plan[0] is uniq:
            return plan[1](folded, op)
        merged = _fold_batch(uniq % span, folded, op)
        if merged is None:  # pragma: no cover - batches are ufunc-foldable
            raise TypeError(f"cannot fold bulk batch with op {op.name!r}")
        return merged


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
        vectorizable = values.dtype != object and (
            op.ufunc is not None or op.name == "overwrite"
        )
        if self.map or self._bulk_keys is not None or not vectorizable:
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
        uniq_keys = sorted_keys[seg_starts]
        if op.name == "overwrite":
            folded = sorted_values[seg_starts + seg_lens - 1]
        else:
            folded = sorted_values[seg_starts]
            if uniq_keys.size != count:
                rest = np.ones(count, dtype=bool)
                rest[seg_starts] = False
                inverse = np.repeat(
                    np.arange(uniq_keys.size, dtype=np.int64), seg_lens
                )
                op.ufunc.at(folded, inverse[rest], sorted_values[rest])
        self._bulk_keys = uniq_keys
        self._bulk_vals = folded
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

    def export_state(self) -> tuple:
        """Complete pending state including the conflict-accounting tables,
        for the host-shard exchange (see ``ThreadLocalReduction``)."""
        return (
            "sm",
            self.map,
            self._writers,
            self._map_writers,
            self._write_count,
            self._bulk_keys,
            self._bulk_vals,
            self._bulk_first_writer,
            self._bulk_multi,
        )

    def install_state(self, state: tuple) -> None:
        """Replace the pending state with an exported snapshot."""
        if state[0] != "sm":  # pragma: no cover - strategies never change
            raise ValueError(
                f"cannot install {state[0]!r} state into a shared-map reduction"
            )
        (
            _,
            self.map,
            self._writers,
            self._map_writers,
            self._write_count,
            self._bulk_keys,
            self._bulk_vals,
            self._bulk_first_writer,
            self._bulk_multi,
        ) = state

    @property
    def bulk_state_only(self) -> bool:
        return not self.map

    def discard(self) -> None:
        """Drop pending state without charging (see ``ThreadLocalReduction``)."""
        self.map.clear()
        self._writers.clear()
        self._map_writers.clear()
        self._write_count = 0
        self._bulk_keys = self._bulk_vals = None
        self._bulk_first_writer = self._bulk_multi = None

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

    def collect_arrays(self, op: ReduceOp) -> tuple[np.ndarray, np.ndarray]:
        del op
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
