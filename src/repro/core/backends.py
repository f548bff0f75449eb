"""Per-host storage backends for the node-property map.

:class:`GarHostStore` is the paper's Figure 6: a dense vector for
locally-materialized properties (masters always; mirrors while pinned) plus
a sorted key/value array pair for requested remote properties, read by
binary search and dropped after every reduce-sync.

:class:`HashHostStore` is the non-partition-aware layout used by the MC,
SGR-only and SGR+CF variants: one hash map for owned keys (modulo-hashed
ownership) and one for the per-round remote cache. Every read is a hash
probe, and because ownership ignores the partition, even a host's own master
nodes usually live elsewhere and must be fetched each round.

The GAR dense vector is a *typed property column*: one ``int64``/``float64``
ndarray plus a validity mask while only the bulk API touches it (array
mode), and a plain ``list`` once anything needs the per-element API or an
object / mixed-type value (list mode). The representation follows from
what the store observes - there is no option - and only ever moves from
array to list, so a scalar-kernel run converts once and never flip-flops.
Counters are charged identically in both modes.

The owner side - initial writes, reduce-sync applies, request serving and
the broadcast's mirror writes - is bulk only (``*_bulk``), on both stores
and for both kernel backends: a batch is an ndarray or a plain list, and
a list (dict state off a scalar kernel, tuple values) takes the per-key
scalar rule in list mode. The one per-element write is ``write_master``,
Figure 2's ``Set``.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Iterable

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import Counters
from repro.core.reducers import ReduceOp
from repro.partition.base import PartitionedGraph

# Exact native ``int``/``float`` only: ``bool`` is an ``int`` subclass but
# must not come back as one, narrower dtypes are not what ``.tolist()``
# round-trips through, and everything else is an object.
_COLUMN_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))


def native_list(values: Any) -> list[Any]:
    """A batch as a list of plain Python values (``.tolist()`` yields exact
    native ``int``/``float``; numpy scalars must never reach a list-mode
    column, the remote cache or a report)."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def joined(parts: list[Any]) -> np.ndarray | list[Any]:
    """Batches joined end to end: one array when every part is a column
    slice of one column dtype (``np.asarray`` of their plain values gives
    that dtype back), else one list of plain values."""
    # Type first: ``np.dtype(None)`` is float64, so a list's missing dtype
    # would pass the membership test.
    if all(isinstance(part, np.ndarray) for part in parts):
        dtypes = {part.dtype for part in parts}
        if len(dtypes) == 1 and dtypes.pop() in _COLUMN_DTYPES:
            return np.concatenate(parts)
    out: list[Any] = []
    for part in parts:
        out.extend(native_list(part))
    return out


class _ColumnTrap:
    """Array-mode stand-in for :attr:`GarHostStore.values`.

    The per-element API subscripts ``self.values`` exactly as it always
    did; while the column is an ndarray that attribute is this object, so
    the first scalar touch lands here, converts the column to list mode
    once, and every later touch indexes the real list - the scalar hot
    path carries no mode branch."""

    __slots__ = ("_store",)

    def __init__(self, store: "GarHostStore") -> None:
        self._store = store

    def __getitem__(self, index: Any) -> Any:
        return self._store._to_list_mode()[index]

    def __setitem__(self, index: Any, value: Any) -> None:
        self._store._to_list_mode()[index] = value


class GarHostStore:
    """Graph-partition-aware per-host store (masters dense, remotes sorted).

    ``remote_layout`` selects the requested-remote-cache representation:
    ``"sorted"`` is the paper's Figure 6 (sorted key/value arrays read by
    binary search); ``"hash"`` is the ablation alternative (a hash map,
    priced as hash probes).
    """

    def __init__(
        self,
        cluster: Cluster,
        pgraph: PartitionedGraph,
        host_id: int,
        remote_layout: str = "sorted",
    ) -> None:
        self.cluster = cluster
        self.host_id = host_id
        self.part = pgraph.parts[host_id]
        self.owner = pgraph.owner
        self.remote_layout = remote_layout
        # The typed property column. Array mode: ``_valid`` marks the set
        # slots of ``_col`` (None until the first typed bulk write picks
        # the dtype) and ``values`` is the trap. List mode: ``values`` is
        # the list and ``_col``/``_valid`` are None.
        self._col: np.ndarray | None = None
        self._valid: np.ndarray | None = np.zeros(self.part.num_local, dtype=bool)
        self.values: Any = _ColumnTrap(self)
        masters = self.part.masters_global
        # Blocked ownership (the partition contract) makes the masters one
        # id range: global -> local translation is a subtraction (the
        # heart of GAR).
        self._master_base = int(masters[0]) if masters.size else 0
        self.pinned = False
        self._remote_keys = np.empty(0, dtype=np.int64)
        self._remote_values: list[Any] = []
        # The sorted cache's values as one typed array, when they arrived
        # as one (see materialize_remote); None otherwise.
        self._remote_array: np.ndarray | None = None
        self._remote_hash: dict[int, Any] = {}
        # Dense global->local translation (-1 where absent), built lazily
        # for the bulk paths; scalar reads keep the dict. Pure layout - no
        # charges attach to building or indexing it.
        self._g2l_arr: np.ndarray | None = None

    def _translate_arr(self) -> np.ndarray:
        if self._g2l_arr is None:
            arr = np.full(self.owner.size, -1, dtype=np.int64)
            arr[self.part.local_to_global] = np.arange(
                self.part.num_local, dtype=np.int64
            )
            arr.flags.writeable = False
            self._g2l_arr = arr
        return self._g2l_arr

    # -- the typed column ----------------------------------------------------

    def _to_list_mode(self) -> list[Any]:
        """The column as a list, converting from array mode on first use
        (``.tolist()`` restores exact native ``int``/``float``). One way:
        nothing converts a list back, so the mode is stable for the run."""
        if self._valid is not None:
            if self._col is None:
                values: list[Any] = [None] * self.part.num_local
            else:
                values = self._col.tolist()
                for local in np.flatnonzero(~self._valid).tolist():
                    values[local] = None
            self.values = values
            self._col = self._valid = None
        return self.values

    def _column_for(self, batch: Any) -> np.ndarray | None:
        """The ndarray column when ``batch`` can operate on it directly
        (array mode and the same exact dtype; an untyped column takes the
        first eligible batch's dtype), else None."""
        if (
            self._valid is None
            or not isinstance(batch, np.ndarray)
            or batch.dtype not in _COLUMN_DTYPES
        ):
            return None
        if self._col is None:
            self._col = np.zeros(self.part.num_local, dtype=batch.dtype)
        elif self._col.dtype != batch.dtype:
            return None
        return self._col

    def _gather(self, locals_: np.ndarray) -> np.ndarray | list[Any]:
        """Values at ``locals_``: a column slice in array mode when every
        touched slot is set, else (list mode) a list that may hold None."""
        if self._col is not None and self._valid[locals_].all():
            return self._col[locals_]
        store = self._to_list_mode()
        return [store[i] for i in locals_.tolist()]

    def _scatter(self, locals_: np.ndarray, values: Any) -> None:
        """Write ``values`` (ndarray or list) at ``locals_``: straight into
        the column when the batch matches it, else per element in list
        mode."""
        col = self._column_for(values)
        if col is not None:
            col[locals_] = values
            self._valid[locals_] = True
            return
        store = self._to_list_mode()
        for local, value in zip(locals_.tolist(), native_list(values)):
            store[local] = value

    def master_items(self) -> Iterable[tuple[int, Any]]:
        """``(global id, value)`` of every set master, ascending local id,
        as plain Python values (uncharged; never changes the mode)."""
        num_masters = self.part.num_masters
        keys = self.part.masters_global
        if self._valid is None:
            return (
                (key, value)
                for key, value in zip(keys.tolist(), self.values[:num_masters])
                if value is not None
            )
        if self._col is None:
            return ()
        valid = self._valid[:num_masters]
        return zip(keys[valid].tolist(), self._col[:num_masters][valid].tolist())

    def master_column(self) -> np.ndarray | None:
        """The masters' values as one numeric array in local-id order, or
        None when a master is unset or not numeric (uncharged; never
        changes the mode)."""
        num_masters = self.part.num_masters
        if self._valid is None:
            arr = np.asarray(self.values[:num_masters])
            return arr if arr.dtype != object else None
        if self._col is not None and self._valid[:num_masters].all():
            return self._col[:num_masters]
        return None

    # -- local id translation ----------------------------------------------

    def master_local(self, key: int) -> int | None:
        if self.owner[key] != self.host_id:
            return None
        return key - self._master_base

    def _mirror_local(self, key: int) -> int | None:
        local = self.part.global_to_local.get(key)
        if local is None or local < self.part.num_masters:
            return None
        return local

    def _locals_of(self, keys: np.ndarray) -> np.ndarray:
        """Master-local translation of keys this host owns (no ownership
        check)."""
        return keys - self._master_base

    def _master_locals(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`master_local` for keys this host must own."""
        if keys.size and np.any(self.owner[keys] != self.host_id):
            bad = int(keys[self.owner[keys] != self.host_id][0])
            raise KeyError(f"node {bad} is not a master on host {self.host_id}")
        return self._locals_of(keys)

    # -- reads ----------------------------------------------------------------

    def _check_counters(self) -> Counters:
        """Counters for readability checks: compiler-inserted ``can_read``
        probes cost the same machine work as the read they guard, so they
        are metered identically - but checks issued outside a measured
        phase (test setup, verification) fall back to a detached scratch
        ``Counters`` and stay free."""
        if self.cluster.in_phase:
            return self.cluster.counters(self.host_id)
        return Counters()

    def can_read(self, key: int) -> bool:
        counters = self._check_counters()
        local = self.master_local(key)
        if local is not None:
            # Mirrors read()'s master path: checking the slot is a dense
            # vector load. An uninitialized master is NOT readable (read()
            # raises), so the value must be materialized too.
            counters.vector_reads += 1
            return self.values[local] is not None
        if self.pinned:
            mirror = self._mirror_local(key)
            if mirror is not None:
                counters.hash_probes += 1
                counters.vector_reads += 1
                # Pinned but not yet broadcast mirrors hold no value; read()
                # raises for them, so can_read must say False and fall
                # through to the requested-remote cache.
                if self.values[mirror] is not None:
                    return True
        if self.remote_layout == "hash":
            counters.hash_probes += 1
            return key in self._remote_hash
        size = self._remote_keys.size
        if not size:
            return False
        counters.binsearch_steps += int(math.log2(size)) + 1
        index = int(np.searchsorted(self._remote_keys, key))
        return bool(index < size and self._remote_keys[index] == key)

    def read(self, key: int) -> Any:
        counters = self.cluster.counters(self.host_id)
        local = self.master_local(key)
        if local is not None:
            counters.vector_reads += 1
            counters.reads_master += 1
            value = self.values[local]
            if value is None:
                raise KeyError(f"master {key} read before initialization")
            return value
        counters.reads_remote += 1
        if self.pinned:
            mirror = self._mirror_local(key)
            if mirror is not None:
                counters.hash_probes += 1
                counters.vector_reads += 1
                value = self.values[mirror]
                if value is not None:
                    return value
                # Pinned but not yet broadcast: the mirror slot is empty,
                # but the key may still have been requested and materialized
                # this round - fall through to the remote cache (matching
                # can_read's contract).
        if self.remote_layout == "hash":
            counters.hash_probes += 1
            if key in self._remote_hash:
                return self._remote_hash[key]
        else:
            size = self._remote_keys.size
            if size:
                counters.binsearch_steps += int(math.log2(size)) + 1
                index = int(np.searchsorted(self._remote_keys, key))
                if index < size and self._remote_keys[index] == key:
                    return self._remote_values[index]
        raise self._unreadable(key)

    def read_local(self, local_id: int) -> Any:
        """Fast path for reads addressed by local id (the common case in
        operators iterating local nodes and edges)."""
        counters = self.cluster.counters(self.host_id)
        counters.vector_reads += 1
        if local_id < self.part.num_masters:
            counters.reads_master += 1
        else:
            counters.reads_remote += 1
        value = self.values[local_id]
        if value is None:
            global_id = int(self.part.local_to_global[local_id])
            raise KeyError(f"local node {local_id} (global {global_id}) has no value")
        return value

    def read_local_bulk(
        self, local_ids: np.ndarray, masters: int | None = None
    ) -> np.ndarray:
        """Batched :meth:`read_local`: identical per-key accounting, values
        returned as one array (numeric when possible). ``masters`` is how
        many of ``local_ids`` are masters when the caller holds the count
        already (a frozen batch, counted when it was built)."""
        count = int(local_ids.size)
        counters = self.cluster.counters(self.host_id)
        counters.vector_reads += count
        if masters is None:
            masters = int(np.count_nonzero(local_ids < self.part.num_masters))
        counters.reads_master += masters
        counters.reads_remote += count - masters
        valid = self._valid
        if valid is not None:
            # A batch larger than the column (an edge list) checks the
            # whole column first: every slot set covers every id.
            if (count >= valid.size and valid.all()) or valid[local_ids].all():
                # An untyped column has no set slot, so the batch is empty.
                return self._col[local_ids] if self._col is not None else np.empty(0)
            absent = int(local_ids[~valid[local_ids]][0])
        else:
            store = self.values
            ids = local_ids.tolist()
            out = [store[i] for i in ids]
            arr = np.asarray(out)
            absent = None
            if arr.dtype == object:
                absent = next((i for i, v in zip(ids, out) if v is None), None)
            if absent is None:
                return arr
        global_id = int(self.part.local_to_global[absent])
        raise KeyError(f"local node {absent} (global {global_id}) has no value")

    def _slots_set(self, locals_: np.ndarray) -> np.ndarray:
        """Which of the dense slots ``locals_`` hold a value (uncharged;
        never changes the mode)."""
        if self._valid is not None:
            return self._valid[locals_]
        store = self.values
        return np.fromiter(
            (store[i] is not None for i in locals_.tolist()),
            dtype=bool,
            count=locals_.size,
        )

    def read_bulk(self, keys: np.ndarray) -> np.ndarray:
        """Batched :meth:`read` by global id: the aggregate charges equal
        the per-key loop's on every path (own master, broadcast pinned
        mirror, pinned-but-empty mirror falling through, requested-remote
        cache in either layout) and an unreadable key raises the same
        ``KeyError``. Values come back as one array (numeric when
        possible), whatever the column mode."""
        count = int(keys.size)
        if count == 0:
            return np.empty(0)
        counters = self.cluster.counters(self.host_id)
        locals_ = self._translate_arr()[keys]
        # Blocked ownership (the partition contract): the own masters are one id range.
        base = self._master_base
        own = (keys >= base) & (keys < base + self.part.num_masters)
        owned = int(np.count_nonzero(own))
        counters.vector_reads += owned
        counters.reads_master += owned
        counters.reads_remote += count - owned
        # Set slots: an absent key's -1 reads a slot it never uses (a host with none has none).
        is_set = self._slots_set(locals_) if self.part.num_local else own
        if (own > is_set).any():
            key = int(keys[(own > is_set).argmax()])
            raise KeyError(f"master {key} read before initialization")
        # dense: keys the column serves; the rest go to the remote cache.
        dense = own
        if self.pinned:
            # Own keys translate below num_masters, mirrors above, absent ones to -1.
            present = locals_ >= 0
            mirrors = int(np.count_nonzero(present)) - owned
            counters.hash_probes += mirrors
            counters.vector_reads += mirrors
            # A pinned mirror not yet broadcast falls through to the cache.
            dense = present & is_set
        cached_at = np.flatnonzero(~dense)
        if cached_at.size == 0:  # the column serves every key
            return np.asarray(self._gather(locals_)) if self._col is None else self._col[locals_]
        cached = np.asarray(self._read_cached(keys[cached_at]))
        if cached_at.size == count:
            return cached
        if self._col is not None and self._col.dtype == cached.dtype:
            out = self._col[locals_]  # one gather; the cached keys' slots are overwritten
        else:
            dense_at = np.flatnonzero(dense)
            values = np.asarray(self._gather(locals_[dense_at]))
            out = np.empty(count, dtype=np.result_type(values, cached))
            out[dense_at] = values
        out[cached_at] = cached
        return out

    def _read_cached(self, keys: np.ndarray) -> np.ndarray | list[Any]:
        """The requested-remote-cache leg of :meth:`read_bulk`: one lookup
        charge per key, then the values or the unreadable-key error."""
        counters = self.cluster.counters(self.host_id)
        if self.remote_layout == "hash":
            counters.hash_probes += int(keys.size)
            cache = self._remote_hash
            try:
                return [cache[key] for key in keys.tolist()]
            except KeyError as err:
                raise self._unreadable(err.args[0]) from None
        size = self._remote_keys.size
        if not size:
            raise self._unreadable(int(keys[0]))
        counters.binsearch_steps += int(keys.size) * (int(math.log2(size)) + 1)
        index = np.minimum(np.searchsorted(self._remote_keys, keys), size - 1)
        found = self._remote_keys[index] == keys
        if not found.all():
            raise self._unreadable(int(keys[~found][0]))
        if self._remote_array is not None:
            return self._remote_array[index]
        remote_values = self._remote_values
        return [remote_values[i] for i in index.tolist()]

    def _unreadable(self, key: int) -> KeyError:
        return KeyError(
            f"node {key} not readable on host {self.host_id}: "
            "not a master, not a broadcast pinned mirror, and not requested "
            "this round"
        )

    # -- writes (owner side) -------------------------------------------------

    def write_master(self, key: int, value: Any) -> None:
        local = self.master_local(key)
        if local is None:
            raise KeyError(f"node {key} is not a master on host {self.host_id}")
        self.cluster.counters(self.host_id).local_ops += 1
        self.values[local] = value

    # -- bulk owner-side operations -------------------------------------------

    def write_master_bulk(self, keys: np.ndarray, values: Any) -> None:
        """Batched :meth:`write_master` with aggregate accounting
        (``values``: an ndarray, or a list of plain values)."""
        locals_ = self._master_locals(keys)
        self.cluster.counters(self.host_id).local_ops += int(keys.size)
        self._scatter(locals_, values)

    def serve_master_bulk(
        self, keys: np.ndarray, locals_: np.ndarray | None = None
    ) -> np.ndarray | list[Any]:
        """Serve master values (request-sync, broadcast): one dense gather,
        one ``vector_reads`` per key. A column slice in array mode, a list
        in list mode. ``locals_`` is
        the keys' master-local translation when the caller holds it (a
        frozen broadcast fan-out, validated when it was frozen)."""
        if keys.size == 0:
            return []
        if locals_ is None:
            locals_ = self._master_locals(keys)
        self.cluster.counters(self.host_id).vector_reads += int(keys.size)
        return self._gather(locals_)

    def apply_master_bulk(
        self,
        keys: np.ndarray,
        values: np.ndarray | list[Any],
        op: ReduceOp,
        locals_: np.ndarray | None = None,
    ) -> np.ndarray:
        """Reduce one value per key onto the canonical masters (each key
        once per batch); returns the keys whose value changed. One
        ``vector_reads`` and one ``local_ops`` per key. A batch of the
        column's dtype folds through the op's ufunc on the column itself;
        anything else - a plain list, list mode, another dtype, an unset
        slot, an op with no ufunc - runs the per-key scalar rule (``old is
        None`` takes the value; write what compares unequal) in list mode,
        and both give the same bits.

        ``locals_`` is the keys' master-local translation when the caller
        holds it already (a prepared sync route, validated when it was
        built).
        """
        if keys.size == 0:
            return keys
        count = int(keys.size)
        if locals_ is None:
            locals_ = self._master_locals(keys)
        counters = self.cluster.counters(self.host_id)
        counters.vector_reads += count
        counters.local_ops += count
        overwrite = op.name == "overwrite"
        if op.ufunc is not None or overwrite:
            col = self._column_for(values)
            if col is not None and self._valid[locals_].all():
                old = col[locals_]
                new = values if overwrite else op.ufunc(old, values)
                changed = new != old
                col[locals_[changed]] = new[changed]
                return keys[changed]
        store = self._to_list_mode()
        changed_keys: list[int] = []
        for key, local, value in zip(
            keys.tolist(), locals_.tolist(), native_list(values)
        ):
            old = store[local]
            new = value if old is None else op(old, value)
            if new != old:
                store[local] = new
                changed_keys.append(key)
        return np.asarray(changed_keys, dtype=np.int64)

    def write_mirror_bulk(
        self, keys: np.ndarray, values: Any, locals_: np.ndarray | None = None
    ) -> None:
        """Write broadcast values into pinned mirror slots: one
        ``hash_probes`` and one ``local_ops`` per key. ``locals_``: the
        keys' mirror-local ids, as for :meth:`serve_master_bulk`."""
        count = int(keys.size)
        counters = self.cluster.counters(self.host_id)
        counters.hash_probes += count
        counters.local_ops += count
        if locals_ is None:
            locals_ = self.mirror_locals(keys)
        self._scatter(locals_, values)

    def mirror_locals(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_mirror_local` for keys this host must mirror."""
        locals_ = self._translate_arr()[keys]
        bad = locals_ < self.part.num_masters
        if bad.any():
            key = int(keys[bad][0])
            raise KeyError(f"node {key} is not a mirror on host {self.host_id}")
        return locals_

    # -- remote cache ----------------------------------------------------------

    def materialize_remote(self, keys: np.ndarray, values: np.ndarray | list[Any]) -> None:
        """Install requested remote properties into the sorted arrays.

        Merges with already-materialized entries: a round may have several
        request phases (chained dynamic reads), and each stays readable
        until the next reduce-sync drops the cache. New values win - they
        are fresher reads of the same canonical masters. The cache holds
        plain values; a batch that arrives as one typed array (see
        :func:`joined`) is also kept as it is while the cache is that batch
        alone, so a bulk read is one gather.
        """
        typed = values if isinstance(values, np.ndarray) else None
        values = native_list(values)
        installed = len(values)
        self.cluster.counters(self.host_id).materialize_ops += installed
        if self.remote_layout == "hash":
            self._remote_hash.update(zip(keys.tolist(), values))
            return
        if not self._remote_keys.size and (keys[1:] > keys[:-1]).all():
            # The first request phase of a round, deduplicated: the keys
            # arrive ascending and unique, so they are the sorted cache.
            self._remote_keys = keys
            self._remote_values = values
            self._remote_array = typed
            return
        # Deduplicate last-wins *before* sorting: a batch may repeat a key
        # (e.g. with request dedup disabled), and np.argsort's default
        # quicksort is not stable, so without this the surviving value of a
        # same-key tie would be backend-internal instead of the newest one.
        merged = {
            int(k): v for k, v in zip(self._remote_keys.tolist(), self._remote_values)
        }
        merged.update(zip((int(k) for k in keys.tolist()), values))
        keys = np.fromiter(merged.keys(), dtype=np.int64, count=len(merged))
        values = list(merged.values())
        order = np.argsort(keys, kind="stable")
        self._remote_keys = keys[order]
        self._remote_values = [values[i] for i in order]
        self._remote_array = None

    def drop_remote(self) -> None:
        if self.remote_cache_size:  # an empty cache stays as it is
            self._remote_keys = np.empty(0, dtype=np.int64)
            self._remote_values = []
            self._remote_array = None
            self._remote_hash.clear()

    @property
    def remote_cache_size(self) -> int:
        if self.remote_layout == "hash":
            return len(self._remote_hash)
        return self._remote_keys.size

    # -- checkpointing (repro.faults) ----------------------------------------

    def checkpoint(self) -> dict:
        """Copy the full mutable state; not charged (the checkpoint phase
        prices serialization through the cluster counters). The column is
        saved in its current mode: ``("list", values)`` or
        ``("array", column or None, valid)``."""
        if self._valid is None:
            column: tuple = ("list", copy.deepcopy(self.values))
        else:
            col = None if self._col is None else self._col.copy()
            column = ("array", col, self._valid.copy())
        return {
            "column": column,
            "remote_keys": self._remote_keys.copy(),
            "remote_values": copy.deepcopy(self._remote_values),
            "remote_hash": copy.deepcopy(self._remote_hash),
            "pinned": self.pinned,
        }

    def restore(self, state: dict) -> None:
        """Reinstate a checkpoint; copies again so it can be restored twice."""
        column = state["column"]
        if column[0] == "list":
            self.values = copy.deepcopy(column[1])
            self._col = self._valid = None
        else:
            # Array mode again; untyped when no slot is set, so the next
            # typed write still picks the dtype.
            _, col, valid = column
            self._valid = valid.copy()
            self._col = col.copy() if col is not None and valid.any() else None
            self.values = _ColumnTrap(self)
        self._remote_keys = state["remote_keys"].copy()
        self._remote_values = copy.deepcopy(state["remote_values"])
        self._remote_array = None
        self._remote_hash = copy.deepcopy(state["remote_hash"])
        self.pinned = state["pinned"]

    # -- pinned mirrors ----------------------------------------------------------

    def pin(self) -> None:
        self.pinned = True

    def unpin(self) -> None:
        self.pinned = False
        num_masters = self.part.num_masters
        if self._valid is not None:
            self._valid[num_masters:] = False
        else:
            self.values[num_masters:] = [None] * (self.part.num_local - num_masters)


class HashHostStore:
    """Modulo-hashed per-host store (the MC / SGR-only / SGR+CF layout)."""

    def __init__(
        self,
        cluster: Cluster,
        pgraph: PartitionedGraph,
        host_id: int,
        num_hosts: int,
    ) -> None:
        self.cluster = cluster
        self.host_id = host_id
        self.part = pgraph.parts[host_id]
        self.num_hosts = num_hosts
        self.owned: dict[int, Any] = {}
        self.cache: dict[int, Any] = {}
        self.pinned = False

    def hash_owner(self, key: int) -> int:
        return key % self.num_hosts

    def always_fetch_keys(self) -> Iterable[int]:
        """Keys this host reads every round regardless of explicit requests:
        its masters, plus its mirrors while "pinned" (no broadcast exists
        without partition awareness, so pinning degrades to refetching)."""
        yield from (int(g) for g in self.part.masters_global)
        if self.pinned:
            yield from (int(g) for g in self.part.mirrors_global)

    def can_read(self, key: int) -> bool:
        # Priced like read(): one hash probe per readability check (checks
        # outside a measured phase are free, as in GarHostStore).
        if self.cluster.in_phase:
            self.cluster.counters(self.host_id).hash_probes += 1
        return key in self.cache or (
            self.hash_owner(key) == self.host_id and key in self.owned
        )

    def read(self, key: int) -> Any:
        counters = self.cluster.counters(self.host_id)
        counters.hash_probes += 1
        local = self.part.global_to_local.get(key)
        if local is not None and local < self.part.num_masters:
            counters.reads_master += 1
        else:
            counters.reads_remote += 1
        if key in self.cache:
            return self.cache[key]
        if self.hash_owner(key) == self.host_id and key in self.owned:
            return self.owned[key]
        raise KeyError(
            f"node {key} not in host {self.host_id}'s cache; was it requested?"
        )

    def read_local(self, local_id: int) -> Any:
        return self.read(int(self.part.local_to_global[local_id]))

    def read_local_bulk(
        self, local_ids: np.ndarray, masters: int | None = None
    ) -> np.ndarray:
        """Batched :meth:`read_local`: aggregate charges, same probe counts
        (``masters`` as for :meth:`GarHostStore.read_local_bulk`)."""
        count = int(local_ids.size)
        counters = self.cluster.counters(self.host_id)
        counters.hash_probes += count
        if masters is None:
            masters = int(np.count_nonzero(local_ids < self.part.num_masters))
        counters.reads_master += masters
        counters.reads_remote += count - masters
        return self._lookup(self.part.local_to_global[local_ids])

    def read_bulk(self, keys: np.ndarray) -> np.ndarray:
        """Batched :meth:`read`: aggregate charges, same probe counts."""
        count = int(keys.size)
        counters = self.cluster.counters(self.host_id)
        counters.hash_probes += count
        masters = int(np.count_nonzero(np.isin(keys, self.part.masters_global)))
        counters.reads_master += masters
        counters.reads_remote += count - masters
        return self._lookup(keys)

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """The values behind the bulk reads (the per-key rule of
        :meth:`read`, uncharged)."""
        cache = self.cache
        owned = self.owned
        out = []
        for key in keys.tolist():
            if key in cache:
                out.append(cache[key])
            elif key % self.num_hosts == self.host_id and key in owned:
                out.append(owned[key])
            else:
                raise KeyError(
                    f"node {key} not in host {self.host_id}'s cache; "
                    "was it requested?"
                )
        return np.asarray(out)

    def write_master(self, key: int, value: Any) -> None:
        self.cluster.counters(self.host_id).hash_probes += 1
        self.owned[key] = value

    def write_master_bulk(self, keys: np.ndarray, values: np.ndarray | list[Any]) -> None:
        self.cluster.counters(self.host_id).hash_probes += int(keys.size)
        self.owned.update(zip(keys.tolist(), native_list(values)))

    def serve_master_bulk(self, keys: np.ndarray) -> list[Any]:
        self.cluster.counters(self.host_id).hash_probes += int(keys.size)
        owned = self.owned
        return [owned[key] for key in keys.tolist()]

    def apply_master_bulk(
        self, keys: np.ndarray, values: np.ndarray | list[Any], op: ReduceOp
    ) -> np.ndarray:
        """:meth:`GarHostStore.apply_master_bulk` in the hash layout: the
        per-key scalar rule on every batch, one ``hash_probes`` and one
        ``local_ops`` per key. Returns the changed keys."""
        count = int(keys.size)
        counters = self.cluster.counters(self.host_id)
        counters.hash_probes += count
        counters.local_ops += count
        owned = self.owned
        changed_keys: list[int] = []
        for key, value in zip(keys.tolist(), native_list(values)):
            old = owned.get(key)
            new = value if old is None else op(old, value)
            if new != old:
                owned[key] = new
                changed_keys.append(key)
        return np.asarray(changed_keys, dtype=np.int64)

    def materialize_remote(self, keys: np.ndarray, values: list[Any]) -> None:
        for key, value in zip(keys.tolist(), values):
            self.cache[key] = value
        self.cluster.counters(self.host_id).materialize_ops += len(values)

    def drop_remote(self) -> None:
        self.cache.clear()

    @property
    def remote_cache_size(self) -> int:
        return len(self.cache)

    # -- checkpointing (repro.faults) ----------------------------------------

    def checkpoint(self) -> dict:
        return {
            "owned": copy.deepcopy(self.owned),
            "cache": copy.deepcopy(self.cache),
            "pinned": self.pinned,
        }

    def restore(self, state: dict) -> None:
        self.owned = copy.deepcopy(state["owned"])
        self.cache = copy.deepcopy(state["cache"])
        self.pinned = state["pinned"]

    def pin(self) -> None:
        self.pinned = True

    def unpin(self) -> None:
        self.pinned = False


def make_store(
    variant_uses_gar: bool,
    cluster: Cluster,
    pgraph: PartitionedGraph,
    host_id: int,
    remote_layout: str = "sorted",
) -> GarHostStore | HashHostStore:
    # Checked for every variant, though only a GAR store reads the layout.
    if remote_layout not in ("sorted", "hash"):
        raise ValueError(f"unknown remote layout {remote_layout!r}")
    if variant_uses_gar:
        return GarHostStore(cluster, pgraph, host_id, remote_layout=remote_layout)
    return HashHostStore(cluster, pgraph, host_id, pgraph.num_hosts)
