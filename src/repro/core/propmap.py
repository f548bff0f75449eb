"""The distributed node-property map (Figures 2, 5, 6, 7 of the paper).

One :class:`NodePropMap` spans the whole simulated cluster: each host holds
a storage backend (:mod:`repro.core.backends`) and a reduction strategy
(:mod:`repro.core.reduction`), both selected by the
:class:`~repro.core.variants.RuntimeVariant`. Compute phases are opened by
the runtime engine; the collective operations here (``request_sync``,
``reduce_sync``, ``broadcast_sync``, ``pin_mirrors``) open their own sync
phases and do all message accounting.

Execution-model contract (Section 4.1):

* reads during a round see values as of the *end of the previous round*;
* ``reduce`` produces partial values that are only visible after
  ``reduce_sync`` routes them to owners (scatter-gather-reduce);
* requested remote properties are materialized at ``request_sync`` and
  dropped at ``reduce_sync``;
* ``is_updated`` answers "did any master property change in the last
  reduce_sync" (the vote itself rides the reduce-sync allreduce).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core.backends import (
    GarHostStore,
    HashHostStore,
    joined,
    make_store,
    native_list,
)
from repro.core.bitset import ConcurrentBitset
from repro.core.reducers import ReduceOp
from repro.core.reduction import (
    KvCasReduction,
    PreparedFold,
    SharedMapReduction,
    ThreadLocalReduction,
    _frozen,
)
from repro.core.variants import RuntimeVariant
from repro.kvstore.client import KvClient
from repro.partition.base import PartitionedGraph

KEY_BYTES = 8


class _Leg(NamedTuple):
    """One leg of a sync route: the part of a source host's collected
    batch (reduce-sync) or requested keys (request-sync) that one owner
    host applies or serves."""

    owner: int
    idx: np.ndarray | slice  # positions of the leg's keys in the batch
    keys: np.ndarray
    locals_: np.ndarray | None  # master-local ids on the owner (GAR only)


# (the self-owned leg or None, the cross-host legs in ascending owner order)
_Route = tuple[_Leg | None, list[_Leg]]


class _Feed(NamedTuple):
    """One (owner, mirror host) pair of a frozen broadcast fan-out: the
    global ids it feeds, their master-local ids on the owner and their
    mirror-local ids on the mirror host - translated and validated once,
    when the fan-out is frozen."""

    mirror_host: int
    ids: np.ndarray
    owner_locals: np.ndarray
    mirror_locals: np.ndarray


class _StaticBatch(NamedTuple):
    """A validated static reduce batch of a strategy with no fold tables."""

    threads: np.ndarray
    keys: np.ndarray
    size: int


def _take(values: np.ndarray | list[Any], idx: np.ndarray | slice) -> np.ndarray | list[Any]:
    """``values[idx]`` for an ndarray batch or a plain-list batch."""
    if isinstance(values, list) and not isinstance(idx, slice):
        return [values[i] for i in idx.tolist()]
    return values[idx]


def _per_node(value_of: Callable[[int], Any]) -> Callable[[np.ndarray], list[Any]]:
    """A per-node initializer as a batch one: the values as given, in a
    plain list."""
    return lambda keys: [value_of(key) for key in keys.tolist()]


class NodePropMap:
    """A node-id -> property map distributed across the cluster."""

    def __init__(
        self,
        cluster: Cluster,
        pgraph: PartitionedGraph,
        name: str = "prop",
        variant: RuntimeVariant = RuntimeVariant.KIMBAP,
        value_nbytes: int = 8,
        kv_client: KvClient | None = None,
        remote_layout: str = "sorted",
        serial_combine: bool = False,
        request_dedup: bool = True,
    ) -> None:
        self.cluster = cluster
        self.pgraph = pgraph
        self.name = name
        self.variant = variant
        self.value_nbytes = value_nbytes
        self.request_dedup = request_dedup
        self._num_nodes = pgraph.num_nodes
        num_hosts = cluster.num_hosts
        if pgraph.num_hosts != num_hosts:
            raise ValueError("partitioned graph and cluster disagree on host count")
        self.stores = [
            make_store(variant.uses_gar, cluster, pgraph, h, remote_layout=remote_layout)
            for h in range(num_hosts)
        ]
        self.kv_client: KvClient | None = None
        if variant.uses_kvstore:
            self.kv_client = kv_client or KvClient(cluster)
            kv_writers: dict[int, set[tuple[int, int]]] = {}
            self.reductions: list[Any] = [
                KvCasReduction(
                    cluster,
                    h,
                    self.kv_client,
                    self._kv_key,
                    kv_writers,
                    self._note_change,
                )
                for h in range(num_hosts)
            ]
        elif variant.uses_thread_local_maps:
            self.reductions = [
                ThreadLocalReduction(cluster, h, serial_combine=serial_combine)
                for h in range(num_hosts)
            ]
        else:
            self.reductions = [SharedMapReduction(cluster, h) for h in range(num_hosts)]
        self.bitsets = [ConcurrentBitset(pgraph.num_nodes) for _ in range(num_hosts)]
        # With deduplication disabled (ablation), duplicate requests are
        # kept and re-served: this list records every accepted request.
        self._dup_requests: list[list[int]] = [[] for _ in range(num_hosts)]
        self._op: ReduceOp | None = None
        self._any_updated = False
        # Pending and activity state: per host, one dense bool mask over
        # global node ids (3*H*N bytes per map) - writers scatter, readers
        # gather, nothing boxes a node id.
        # _updated_masters: masters changed since the last broadcast.
        # Activity tracking for data-driven operators (delta propagation):
        # the global ids whose locally-readable copy changed in the last
        # completed round (_active) and in this one (_next_active). Gluon
        # exposes the same information through its updated-value metadata;
        # push-style operators use it to skip quiescent nodes.
        # Both buffers start full so the first round after initialization
        # sees every node active (reset_updated swaps buffers per round).
        # active_mask hands _active out, so its masks are read-only; a host
        # with none active shares _no_active.
        self._no_active = _frozen(self._empty_mask())
        self._install_masks(
            [self._empty_mask() for _ in range(num_hosts)],
            [self._local_mask(h) for h in range(num_hosts)],
            [self._local_mask(h) for h in range(num_hosts)],
        )
        # Per host: reduced since the last collect? (Else nothing to collect.)
        self._host_reduced = [False] * num_hosts
        self._pinned = False
        self._pin_invariant = "none"
        self._mirror_filter_cache: dict[str, list[list[_Feed]]] = {}
        # Per source host: the last collected key array and its route
        # (see _route). A prepared fold's full round collects the *same
        # frozen key object* each time, so the entry is then built once.
        self._routes: list[tuple[np.ndarray, _Route] | None] = [None] * num_hosts
        # Where each GAR owner's block of node ids starts (one more entry
        # closes the last): ownership is blocked by the partition contract.
        # None for the hashed owners of the non-GAR variants.
        self._owner_starts: np.ndarray | None = None
        if variant.uses_gar:
            self._owner_starts = np.searchsorted(
                pgraph.owner, np.arange(num_hosts + 1)
            )
            self._owner_firsts = self._owner_starts[:-1].tolist()

    # ------------------------------------------------------------------ util

    def _kv_key(self, key: int) -> str:
        return f"npm:{self.name}:{key}"

    def _note_change(self, key: int) -> None:
        self._any_updated = True

    def _empty_mask(self) -> np.ndarray:
        return np.zeros(self.pgraph.num_nodes, dtype=bool)

    def _local_mask(self, host: int) -> np.ndarray:
        """Mask of every node with a copy (master or mirror) on ``host``."""
        mask = self._empty_mask()
        mask[self.pgraph.parts[host].local_to_global] = True
        return mask

    def owner_of(self, key: int) -> int:
        if self.variant.uses_gar:
            return int(self.pgraph.owner[key])
        return key % self.cluster.num_hosts

    def _report_memory(self) -> None:
        """Report this map's live value-slot footprint per host.

        Counted: the dense/owned canonical storage, the materialized remote
        cache, and the thread-local (or shared) reduction maps - the extra
        memory the paper attributes to CF ("max RSS ... on average 10%
        higher than Vite", Section 6.2).
        """
        for host in range(self.cluster.num_hosts):
            store = self.stores[host]
            if isinstance(store, GarHostStore):
                canonical = store.part.num_local
            else:
                canonical = len(store.owned)
            slots = canonical + store.remote_cache_size + self.reductions[host].pending()
            self.cluster.track_memory(host, f"npm:{self.name}", slots)

    @property
    def pinned(self) -> bool:
        return self._pinned

    # --------------------------------------------------------------- user API

    def set(self, host: int, key: int, value: Any) -> None:
        """Initialization-only write (Figure 2's Set); no race detection.

        The canonical value lands at the key's owner; a cross-host Set
        sends one message.
        """
        if self.variant.uses_kvstore:
            assert self.kv_client is not None
            self.kv_client.set(host, self._kv_key(key), value)
            return
        owner = self.owner_of(key)
        if owner != host:
            self.cluster.network.send(host, owner, KEY_BYTES + self.value_nbytes)
        self.stores[owner].write_master(key, value)

    def read(self, host: int, key: int) -> Any:
        """Read a property by global node id (Figure 2's Read)."""
        key = int(key)
        if not 0 <= key < self._num_nodes:
            raise self._not_a_node(key, "read key")
        return self.stores[host].read(key)

    def read_local(self, host: int, local_id: int) -> Any:
        """Read by local id: the fast path for active nodes and edge endpoints."""
        return self.stores[host].read_local(local_id)

    def read_local_bulk(
        self, host: int, local_ids: np.ndarray, masters: int | None = None
    ) -> np.ndarray:
        """Batched :meth:`read_local`: identical accounting, one array out.
        ``masters``: how many of ``local_ids`` are masters, when a compiled
        kernel counted it at build (its ids are frozen)."""
        return self.stores[host].read_local_bulk(
            np.asarray(local_ids, dtype=np.int64), masters
        )

    def read_bulk(self, host: int, keys: np.ndarray) -> np.ndarray:
        """Batched :meth:`read` by global node id: identical accounting on
        every path a key can take (master, pinned mirror, requested remote)
        and the same ``KeyError`` for an unreadable key, one array out."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size:
            self._check_ids(keys, "read key")
        return self.stores[host].read_bulk(keys)

    def _check_ids(self, keys: np.ndarray, what: str) -> None:
        """Every key of a non-empty batch is a node id, else the
        ``KeyError`` every keyed entry point raises before it charges
        anything (:meth:`_not_a_node`; a one-key entry point compares
        inline): a negative or too large id would otherwise index the
        dense per-node tables from the wrong end, or past it."""
        low, high = int(keys.min()), int(keys.max())
        if low < 0:
            raise self._not_a_node(low, what)
        if high >= self._num_nodes:
            raise self._not_a_node(high, what)

    def _not_a_node(self, key: int, what: str) -> KeyError:
        return KeyError(
            f"{what} {key} is not a node id (graph has {self._num_nodes} nodes)"
        )

    def _check_reduce(
        self,
        count: int,
        keys: Any = None,
        op: ReduceOp | None = None,
        values: np.ndarray | None = None,
    ) -> None:
        """The rules of a reduce call, written once for every entry point.

        A batch's ``values`` hold one value per reduced position: they
        come from user-written plan callables, and a whole-graph array or
        a scalar meant to broadcast would otherwise fold silently wrong or
        die inside the fold. ``keys`` (one key or an array; None for a
        prepared batch, checked when it was prepared) are node ids. ``op``
        (None while preparing, which binds nothing) is the map's single
        operator for the loop; an empty batch binds none, as zero scalar
        calls would not.
        """
        if values is not None and values.shape != (count,):
            raise ValueError(
                f"map {self.name!r} reduced ({op.name}) with values of shape "
                f"{values.shape}; its {count} reduced position(s) need "
                f"shape {(count,)}"
            )
        if count == 0:
            return
        if isinstance(keys, np.ndarray):
            self._check_ids(keys, "reduce target")
        elif keys is not None and not 0 <= keys < self._num_nodes:
            raise self._not_a_node(keys, "reduce target")
        if op is None:
            return
        if self._op is None:
            self._op = op
        elif self._op.name != op.name:
            raise ValueError(
                f"map {self.name!r} reduced with {op.name!r} after {self._op.name!r}; "
                "a map uses a single reduction operator per loop"
            )

    def reduce(self, host: int, thread: int, key: int, value: Any, op: ReduceOp) -> None:
        """Reduce ``value`` onto ``key``'s property (visible next round)."""
        self._check_reduce(1, key, op)
        self._host_reduced[host] = True
        self.reductions[host].reduce(thread, int(key), value, op)

    def reduce_bulk(
        self,
        host: int,
        threads: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        op: ReduceOp,
    ) -> None:
        """Batched :meth:`reduce` (the bulk execution path).

        ``threads`` must be non-decreasing - exactly what the static
        dealing of the compiled kernels produces. The contract is byte-identical
        counters, conflicts, and folded values vs the per-item calls.
        """
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values)
        self._check_reduce(int(keys.size), keys, op, values)
        if keys.size:
            self._host_reduced[host] = True
            self.reductions[host].reduce_bulk(np.asarray(threads), keys, values, op)

    def prepare_reduce_bulk(
        self, host: int, threads: np.ndarray, keys: np.ndarray
    ) -> PreparedFold | _StaticBatch:
        """Validate a *static* reduce batch once and precompute its fold.

        Compiled kernels (``repro.exec.codegen``) reduce with the same
        ``(threads, keys)`` arrays every round - all of them or an
        ascending subset - so the key validation and the slot ranking of
        :meth:`reduce_bulk` are hoisted to build time. The handle goes to
        :meth:`reduce_bulk_prepared`: a :class:`PreparedFold` for the
        conflict-free strategy; the bare validated arrays for the
        shared-map and key-value-store strategies, which have no fold
        tables (they draw conflicts from runtime state).
        """
        threads = np.asarray(threads)
        keys = np.asarray(keys, dtype=np.int64)
        self._check_reduce(int(keys.size), keys)
        reduction = self.reductions[host]
        if isinstance(reduction, ThreadLocalReduction):
            return reduction.prepare_bulk(threads, keys)
        return _StaticBatch(threads, keys, int(keys.size))

    def reduce_bulk_prepared(
        self,
        host: int,
        prepared: PreparedFold | _StaticBatch,
        values: np.ndarray,
        op: ReduceOp,
        idx: np.ndarray | None = None,
    ) -> None:
        """:meth:`reduce_bulk` over a :meth:`prepare_reduce_bulk` batch -
        or its subset at ascending positions ``idx`` (``values`` aligned
        with ``idx``): byte-identical charges, conflicts, and folded state."""
        values = np.asarray(values)
        count = prepared.size if idx is None else int(idx.size)
        self._check_reduce(count, None, op, values)
        reduction = self.reductions[host]  # each strategy ignores an empty batch
        if count:
            self._host_reduced[host] = True
        if isinstance(prepared, PreparedFold):
            reduction.reduce_bulk_prepared(prepared, values, op, idx)
        elif idx is None:
            reduction.reduce_bulk(prepared.threads, prepared.keys, values, op)
        else:
            reduction.reduce_bulk(prepared.threads[idx], prepared.keys[idx], values, op)

    # ----------------------------------------------------------- compiler API

    def _install_masks(self, *masks: list[np.ndarray]) -> None:
        """Replace the pending, activity and next-round masks (construction,
        checkpoint restore) and read each one's per-host flag - does it hold
        any node - off it. After that a flag is raised where its mask is
        written and lowered where it is swapped or cleared: no scans."""
        self._updated_masters, active, self._next_active = masks
        self._active = [_frozen(mask) for mask in active]
        self._host_pending, self._host_active, self._host_next = (
            [bool(mask.any()) for mask in host_masks] for host_masks in masks
        )

    def reset_updated(self) -> None:
        """Start a round: a host written last round swaps its mask in and
        gets a fresh one; a clean host that was active takes the shared
        empty mask; a host clean both rounds is not touched."""
        self._any_updated = False
        for host, written in enumerate(self._host_next):
            if written:
                self._active[host] = _frozen(self._next_active[host])
                self._next_active[host] = self._empty_mask()
            elif self._host_active[host]:
                self._active[host] = self._no_active
        self._host_active = self._host_next
        self._host_next = [False] * len(self._host_active)

    def active_mask(self, host: int) -> np.ndarray | None:
        """Dense bool mask (by global node id) of ``host``'s last-round
        active nodes, or None when there are none.

        This *is* the live activity state, handed out read-only: a mask
        in ``_active`` is only ever replaced (:meth:`reset_updated`,
        :meth:`_install_masks`), never written in place, so a kernel can
        neither disturb the frontier nor see it move mid-round.
        """
        return self._active[host] if self._host_active[host] else None

    def is_active(self, host: int, key: int) -> bool:
        """Did ``key``'s locally-readable copy change last round?

        Data-driven (push-style) operators use this to skip quiescent
        nodes. Conservatively always True for the non-GAR variants, whose
        per-round refetch rewrites the whole cache.
        """
        if not self.variant.uses_gar:
            return True
        return bool(self._active[host][key])

    def is_updated(self) -> bool:
        """Did the last reduce_sync change any master value? (BSP-round vote)"""
        return self._any_updated

    def request(self, host: int, key: int) -> bool:
        """Mark ``key`` wanted on ``host`` next request-sync; deduplicated.

        Requests for keys already readable locally (own masters; pinned
        mirrors) are skipped - the runtime-side half of the compiler's
        RequestSync elision reasoning.
        """
        key = int(key)
        if not 0 <= key < self._num_nodes:
            raise self._not_a_node(key, "request key")
        counters = self.cluster.counters(host)
        counters.local_ops += 1
        store = self.stores[host]
        if isinstance(store, GarHostStore):
            if store.master_local(key) is not None:
                return False
            if self._pinned:
                local = store.part.global_to_local.get(key)
                if local is not None and local >= store.part.num_masters:
                    return False
        if not self.request_dedup:
            self._dup_requests[host].append(key)
            self.bitsets[host].set(key)
            return True
        return self.bitsets[host].set(key)

    def request_bulk(self, host: int, keys: np.ndarray) -> np.ndarray:
        """Batched :meth:`request`; returns the per-key accepted mask."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size:
            self._check_ids(keys, "request key")
        counters = self.cluster.counters(host)
        counters.local_ops += int(keys.size)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        store = self.stores[host]
        eligible = np.ones(keys.size, dtype=bool)
        if isinstance(store, GarHostStore):
            eligible = self.pgraph.owner[keys] != host
            if self._pinned:
                # Absent keys translate to -1, below every mirror slot.
                eligible &= store._translate_arr()[keys] < store.part.num_masters
        accepted = np.zeros(keys.size, dtype=bool)
        eligible_idx = np.flatnonzero(eligible)
        if self.request_dedup:
            accepted[eligible_idx] = self.bitsets[host].set_many(keys[eligible_idx])
        else:
            self._dup_requests[host].extend(keys[eligible_idx].tolist())
            self.bitsets[host].set_many(keys[eligible_idx])
            accepted[eligible_idx] = True
        return accepted

    def request_sync(self) -> None:
        """Serve this round's requests: one message per host pair each way."""
        with self.cluster.phase(PhaseKind.REQUEST_SYNC, label=self.name):
            if self.variant.uses_kvstore:
                self._kv_fetch_requests(include_always=False)
                return
            requests: list[np.ndarray] = []
            for host in range(self.cluster.num_hosts):
                if self.request_dedup:
                    keys = self.bitsets[host].nonzero()
                else:
                    keys = np.asarray(sorted(self._dup_requests[host]), dtype=np.int64)
                    self._dup_requests[host].clear()
                self.bitsets[host].clear()
                if not self.variant.uses_gar:
                    always = np.fromiter(
                        self.stores[host].always_fetch_keys(), dtype=np.int64
                    )
                    keys = np.union1d(keys, always)
                requests.append(keys)
            self._serve_requests(requests)
        self._report_memory()

    def _serve_requests(self, requests: list[np.ndarray]) -> None:
        """Serve each host's ascending requested keys, owner by owner
        (ascending): the reduce-sync's legs (:meth:`_legs`), one request
        and one reply message per (requester, owner) pair. GAR legs are
        slices that tile the keys in order, so the served values join
        end to end; hashed legs scatter back by position."""
        for host, keys in enumerate(requests):
            if keys.size == 0:
                continue
            legs = self._legs(keys)
            served: list[np.ndarray | list[Any]] = []
            for leg in legs:
                count = int(leg.keys.size)
                store = self.stores[leg.owner]
                if leg.owner != host:
                    self.cluster.network.send(host, leg.owner, KEY_BYTES * count)
                if leg.locals_ is None:
                    values = store.serve_master_bulk(leg.keys)
                else:
                    values = store.serve_master_bulk(leg.keys, leg.locals_)
                if leg.owner != host:
                    self.cluster.network.send(
                        leg.owner, host, (KEY_BYTES + self.value_nbytes) * count
                    )
                served.append(values)
            if self._owner_starts is not None:
                gathered: np.ndarray | list[Any] = joined(served)
            else:
                gathered = [None] * keys.size
                for leg, values in zip(legs, served):
                    for index, value in zip(leg.idx.tolist(), native_list(values)):
                        gathered[index] = value
            self.stores[host].materialize_remote(keys, gathered)

    def _kv_fetch_requests(self, include_always: bool) -> None:
        assert self.kv_client is not None
        for host in range(self.cluster.num_hosts):
            keys = set(self.bitsets[host].nonzero().tolist())
            self.bitsets[host].clear()
            if include_always:
                keys.update(self.stores[host].always_fetch_keys())
            if not keys:
                continue
            key_list = sorted(keys)
            string_keys = [self._kv_key(k) for k in key_list]
            found = self.kv_client.mget(host, string_keys)
            values = []
            present = []
            for key, string_key in zip(key_list, string_keys):
                if string_key in found:
                    present.append(key)
                    values.append(found[string_key][0])
            self.stores[host].materialize_remote(
                np.asarray(present, dtype=np.int64), values
            )
        self._report_memory()

    def reduce_sync(self) -> None:
        """Scatter-gather-reduce: route partials to owners, apply, vote.

        One route (:meth:`_sgr_reduce`) whatever filled the maps: every
        reduction strategy collects ascending keys plus values - a folded
        batch's ndarray, or dict state's plain list - and the owner
        stores apply them in bulk. Every process of a ``jobs=N`` run
        replays the whole collective on its own replica.
        """
        # Peak-footprint moment: thread-local maps full, remote cache
        # still materialized.
        self._report_memory()
        with self.cluster.phase(PhaseKind.REDUCE_SYNC, label=self.name):
            if self.variant.uses_kvstore:
                # Reductions already applied via CAS; ReduceSync is a no-op
                # apart from dropping stale caches and the round vote.
                for store in self.stores:
                    store.drop_remote()
                self.reductions[0].collect(self._op or ReduceOp("noop", lambda a, b: a))
            else:
                self._sgr_reduce()
            self.cluster.network.allreduce(1)
        if not self.variant.uses_gar:
            # Without GAR there is no locally-materialized master copy, so
            # every host refetches the keys it reads unconditionally (its
            # masters, plus mirrors while pinned) for the next round.
            self._refetch_all(f"{self.name}:refetch")

    def _refetch_all(self, label: str) -> None:
        """One unconditional refetch round for the non-GAR variants: every
        host re-reads its always-fetch set (masters, plus mirrors while
        pinned), via the kvstore or a request/serve exchange."""
        with self.cluster.phase(PhaseKind.REQUEST_SYNC, label=label):
            if self.variant.uses_kvstore:
                self._kv_fetch_requests(include_always=True)
            else:
                requests = [
                    np.fromiter(store.always_fetch_keys(), dtype=np.int64)
                    for store in self.stores
                ]
                self._serve_requests(requests)

    def _sgr_reduce(self) -> None:
        """The scatter-gather-reduce route: collect each host's (ascending
        keys, values), apply its self-owned partials during the host scan,
        then ship and apply the cross-host legs in ascending source order
        (owner-ascending within a source) - one message per (source,
        owner) pair, and per key the owner's own partial first, then the
        other hosts' in ascending host order."""
        op = self._op
        # Hosts that did not reduce since the last collect hold nothing
        # (nor does any host before a reduce binds the operator).
        hosts = [
            host
            for host, reduced in enumerate(self._host_reduced)
            if reduced and op is not None
        ]
        self._host_reduced = [False] * len(self._host_reduced)
        payloads: list[tuple[int, _Leg, np.ndarray | list[Any]]] = []
        for host in hosts:
            keys, values = self.reductions[host].collect_arrays(op)
            if keys.size == 0:
                continue
            own, remote = self._route(host, keys)
            if own is not None:
                self._apply_leg(own, _take(values, own.idx), op)
            payloads.extend((host, leg, _take(values, leg.idx)) for leg in remote)
        for src, leg, values in payloads:
            self.cluster.network.send(
                src, leg.owner, (KEY_BYTES + self.value_nbytes) * int(leg.keys.size)
            )
            self._apply_leg(leg, values, op)
        for store in self.stores:
            store.drop_remote()

    def _legs(self, keys: np.ndarray) -> list[_Leg]:
        """Ascending ``keys`` cut by owner, in ascending owner order: the
        address translation request-sync and reduce-sync share.

        Under GAR, blocked ownership cuts the keys into one slice per
        owner with one ``searchsorted``: every leg is a view, and its
        master-local ids are its keys less the owner block's first id.
        Legs are cut by owner, so ownership holds by construction and the
        owner stores skip re-validating it. (Repeated keys - requests
        without deduplication - stay in their leg.)
        """
        if self._owner_starts is not None:
            cuts = keys.searchsorted(self._owner_starts)
            legs = []
            for owner_host in np.flatnonzero(cuts[1:] > cuts[:-1]).tolist():
                lo, hi = int(cuts[owner_host]), int(cuts[owner_host + 1])
                leg_keys = keys[lo:hi]
                legs.append(_Leg(
                    owner_host, slice(lo, hi), leg_keys,
                    leg_keys - self._owner_firsts[owner_host],
                ))
            return legs
        # Hashed owners (no GAR, so no local ids). Per owner present
        # (ascending), where its keys sit in the batch: owners are host
        # ids, so a counting pass names the hosts present where a sort of
        # the owner column would.
        owners = keys % self.cluster.num_hosts
        present = np.bincount(owners, minlength=self.cluster.num_hosts)
        legs = []
        for owner_host in np.flatnonzero(present).tolist():
            idx = np.flatnonzero(owners == owner_host)
            legs.append(_Leg(owner_host, idx, keys[idx], None))
        return legs

    def _route(self, host: int, keys: np.ndarray) -> _Route:
        """Where source ``host``'s collected ``keys`` go: the address
        translation of a reduce-sync (:meth:`_legs`), hoisted out of the
        round.

        Owners, the self-owned / per-owner index sets and each leg's
        master-local translation are pure functions of the key array and
        the partition, so they are cached against the key *object*: a
        prepared fold's full round hands back one frozen array and routes
        once; partial-round and generic batches collect a fresh array
        and are routed afresh.
        """
        cached = self._routes[host]
        if cached is not None and cached[0] is keys:
            return cached[1]
        own = None
        remote = []
        for leg in self._legs(keys):
            if leg.owner == host:
                own = leg
            else:
                remote.append(leg)
        route: _Route = (own, remote)
        self._routes[host] = (keys, route)
        return route

    def _mark_changed(self, owner: int, changed: np.ndarray) -> None:
        """Record master(s) of ``owner`` whose value an apply changed:
        the round vote, pending for the next broadcast, active next round."""
        self._any_updated = True
        if self.variant.uses_gar:
            self._updated_masters[owner][changed] = True
            self._next_active[owner][changed] = True
            self._host_pending[owner] = self._host_next[owner] = True

    def _apply_leg(
        self, leg: _Leg, values: np.ndarray | list[Any], op: ReduceOp
    ) -> None:
        owner = leg.owner
        if leg.locals_ is None:
            changed = self.stores[owner].apply_master_bulk(leg.keys, values, op)
        else:
            changed = self.stores[owner].apply_master_bulk(
                leg.keys, values, op, leg.locals_
            )
        if changed.size:
            self._mark_changed(owner, changed)

    # ------------------------------------------------------- pinned mirrors

    def pin_mirrors(self, invariant: str = "none") -> None:
        """Materialize mirror properties and broadcast master values to them.

        ``invariant`` applies Gluon's partitioning-invariant elisions:
        ``"push"`` only feeds mirrors that have outgoing edges (push-style
        operators never read the others), ``"pull"`` only those with
        incoming edges, ``"none"`` feeds all mirrors.
        """
        if invariant not in ("none", "push", "pull"):
            raise ValueError(f"unknown invariant {invariant!r}")
        self._pinned = True
        self._pin_invariant = invariant
        for store in self.stores:
            store.pin()
        if self.variant.uses_gar:
            with self.cluster.phase(
                PhaseKind.BROADCAST_SYNC, label=f"{self.name}:pin"
            ):
                self._broadcast(full=True)
        else:
            # Non-GAR variants cannot broadcast (no partition awareness);
            # the pinned mirrors join the per-round refetch set instead.
            self._refetch_all(f"{self.name}:pin-fetch")

    def unpin_mirrors(self) -> None:
        self._pinned = False
        for store in self.stores:
            store.unpin()

    def broadcast_sync(self) -> None:
        """Push updated master values to pinned mirrors (one-way traffic)."""
        if not self._pinned or not self.variant.uses_gar:
            return
        with self.cluster.phase(PhaseKind.BROADCAST_SYNC, label=self.name):
            self._broadcast(full=False)

    def _mirror_targets(self, invariant: str) -> list[list[_Feed]]:
        """fan-out[owner] -> the owner's feeds in ascending mirror-host
        order, after elision; frozen once per invariant, so a re-pin under
        another invariant builds its own."""
        cached = self._mirror_filter_cache.get(invariant)
        if cached is not None:
            return cached
        fan_out: list[list[_Feed]] = [[] for _ in range(self.cluster.num_hosts)]
        for owner_host, pairs in enumerate(self.pgraph.mirror_hosts_by_owner):
            for mirror_host, ids in pairs:
                part = self.pgraph.parts[mirror_host]
                if invariant == "none":
                    kept = ids
                else:
                    locals_ = self.stores[mirror_host]._translate_arr()[ids]
                    if invariant == "push":
                        degrees = part.indptr[locals_ + 1] - part.indptr[locals_]
                    else:
                        degrees = part.in_degrees[locals_]
                    kept = ids[degrees > 0]
                if kept.size:
                    fan_out[owner_host].append(_Feed(
                        mirror_host,
                        _frozen(kept),
                        _frozen(self.stores[owner_host]._master_locals(kept)),
                        _frozen(self.stores[mirror_host].mirror_locals(kept)),
                    ))
        self._mirror_filter_cache[invariant] = fan_out
        return fan_out

    def _broadcast(self, full: bool) -> None:
        fan_out = self._mirror_targets(self._pin_invariant)
        nbytes = KEY_BYTES + self.value_nbytes
        for owner_host in range(self.cluster.num_hosts):
            if not (full or self._host_pending[owner_host]):
                continue
            pending = self._updated_masters[owner_host]
            owner_store = self.stores[owner_host]
            for mirror_host, ids, owner_locals, mirror_locals in fan_out[owner_host]:
                if not full:
                    # Every fan-out pair filters by one O(|ids|) gather.
                    hit = pending[ids].nonzero()[0]
                    if hit.size == 0:
                        continue
                    ids = ids[hit]
                    owner_locals, mirror_locals = owner_locals[hit], mirror_locals[hit]
                self.cluster.network.send(owner_host, mirror_host, nbytes * ids.size)
                values = owner_store.serve_master_bulk(ids, owner_locals)
                self.stores[mirror_host].write_mirror_bulk(ids, values, mirror_locals)
                if not full:
                    self._next_active[mirror_host][ids] = True
                    self._host_next[mirror_host] = True
        self._clear_pending()

    def _clear_pending(self) -> None:
        """Nothing is pending broadcast any more. (Keys may have mirrors
        on several hosts, so this only runs after a whole fan-out.)"""
        for host, pending in enumerate(self._host_pending):
            if pending:
                self._updated_masters[host].fill(False)
        self._host_pending = [False] * len(self._host_pending)

    # --------------------------------------------------------------- helpers

    def set_initial(self, value_of: Callable[[int], Any]) -> None:
        """Initialize every node's canonical property (an init ParFor)
        from Figure 2's per-node initializer: an adapter onto
        :meth:`set_initial_bulk`, whose values go down as a plain list."""
        self.set_initial_bulk(_per_node(value_of))

    def set_initial_bulk(
        self, values_of: Callable[[np.ndarray], np.ndarray | list[Any]]
    ) -> None:
        """The one initializer: ``values_of`` maps an array of global ids
        (one host's masters, ascending) to their values - an array, or a
        plain list that is stored as given (tuples stay tuples)."""
        with self.cluster.phase(PhaseKind.INIT, label=f"{self.name}:init"):
            for host in range(self.cluster.num_hosts):
                keys = self.pgraph.parts[host].masters_global
                self.cluster.counters(host).node_iters += int(keys.size)
                if keys.size == 0:
                    continue
                values = values_of(keys)
                if not isinstance(values, list):
                    values = np.asarray(values)
                self._set_bulk(host, keys, values)
        self._report_memory()
        if not self.variant.uses_gar:
            self._refetch_all(f"{self.name}:init-fetch")

    def _set_bulk(
        self, host: int, keys: np.ndarray, values: np.ndarray | list[Any]
    ) -> None:
        """Batched :meth:`set` for keys iterated in ascending order."""
        if self.variant.uses_kvstore:
            assert self.kv_client is not None
            for key, value in zip(keys.tolist(), native_list(values)):
                self.kv_client.set(host, self._kv_key(key), value)
            return
        if self.variant.uses_gar:
            # GAR masters are owned by their own host: no network traffic.
            self.stores[host].write_master_bulk(keys, values)
            return
        owners = keys % self.cluster.num_hosts
        for owner in np.unique(owners).tolist():
            idx = np.flatnonzero(owners == owner)
            self.cluster.network.send_many(
                host, owner, KEY_BYTES + self.value_nbytes, int(idx.size)
            )
            self.stores[owner].write_master_bulk(keys[idx], _take(values, idx))

    def reset_values(self, value_of: Callable[[int], Any]) -> None:
        """:meth:`reset_values_bulk` from a per-node initializer (the
        adapter :meth:`set_initial` is)."""
        self.reset_values_bulk(_per_node(value_of))

    def reset_values_bulk(
        self, values_of: Callable[[np.ndarray], np.ndarray | list[Any]]
    ) -> None:
        """Reinitialize every canonical value (a fresh init ParFor).

        Lets per-round scratch maps (e.g. Boruvka's best-edge map) be
        reused instead of reallocated; costs the same as set_initial_bulk.
        """
        self._op = None
        self._any_updated = False
        self._clear_pending()
        self.set_initial_bulk(values_of)

    def snapshot(self) -> dict[int, Any]:
        """All canonical master values, for verification (not charged)."""
        result: dict[int, Any] = {}
        if self.variant.uses_kvstore:
            assert self.kv_client is not None
            # One prefix scan per server shard instead of formatting and
            # probing every possible node id; ascending insertion keeps the
            # result's iteration order identical to the per-id probes.
            prefix = self._kv_prefix()
            found: dict[int, Any] = {}
            for server in self.kv_client.servers:
                for string_key, value in server.scan_prefix(prefix):
                    suffix = string_key[len(prefix):]
                    if suffix.isdigit():
                        found[int(suffix)] = value
            for key in sorted(found):
                result[key] = found[key]
            return result
        for host in range(self.cluster.num_hosts):
            store = self.stores[host]
            if isinstance(store, GarHostStore):
                result.update(store.master_items())
            else:
                assert isinstance(store, HashHostStore)
                result.update(store.owned)
        return result

    def snapshot_array(self) -> np.ndarray:
        """Canonical master values as one dense array over global node ids.

        The bulk algorithms' counterpart of :meth:`snapshot` (not charged).
        Requires every node to hold a numeric value.
        """
        num_nodes = self.pgraph.num_nodes
        if self.variant.uses_gar:
            # Every node is a master on exactly one host, so the per-host
            # master columns scatter through masters_global into one array.
            chunks: list[tuple[np.ndarray, np.ndarray]] = []
            for store in self.stores:
                if store.part.num_masters == 0:
                    continue
                arr = store.master_column()
                if arr is None:
                    raise ValueError(
                        f"map {self.name!r} has uninitialized or non-numeric "
                        "masters; snapshot_array needs a value for every node"
                    )
                chunks.append((store.part.masters_global, arr))
            out = np.zeros(
                num_nodes,
                dtype=np.result_type(*[arr.dtype for _, arr in chunks])
                if chunks
                else np.float64,
            )
            for ids, arr in chunks:
                out[ids] = arr
            return out
        values = self.snapshot()
        if len(values) != num_nodes:
            raise ValueError(
                f"map {self.name!r} has {len(values)} of {num_nodes} values; "
                "snapshot_array needs a value for every node"
            )
        return np.asarray([values[key] for key in range(num_nodes)])

    def pending_reductions(self) -> int:
        return sum(reduction.pending() for reduction in self.reductions)

    # -------------------------------------------------- checkpointing (faults)

    def _kv_prefix(self) -> str:
        return f"npm:{self.name}:"

    def checkpoint_slots(self, host: int) -> int:
        """Value slots ``host`` serializes into a checkpoint.

        Mirrors :meth:`_report_memory`'s canonical + remote-cache
        accounting; the checkpoint phase prices one ``local_ops`` event and
        ``KEY+value`` bytes per slot. For the key-value-store variant the
        canonical values live on the host's server shard.
        """
        store = self.stores[host]
        if self.variant.uses_kvstore:
            assert self.kv_client is not None
            canonical = self.kv_client.servers[host].count_prefix(self._kv_prefix())
        elif isinstance(store, GarHostStore):
            canonical = store.part.num_local
        else:
            canonical = len(store.owned)
        return canonical + store.remote_cache_size

    def export_compute_effects(self, host: int) -> tuple:
        """One host's compute-phase side effects, for the host-shard
        exchange (``repro.exec.pool``): its pending reduction state.

        A sharded phase (an adjacent-vertex form reducing into a
        thread-local map) mutates nothing else on the computing host;
        stores, activity masks and updated flags change only during sync
        collectives, which every process replays identically. The state
        is *cumulative* since the last reduce-sync, so installing an
        export replaces the receiver's copy wholesale.
        """
        return self.reductions[host].export_state()

    def install_compute_effects(self, host: int, state: tuple, op: ReduceOp) -> None:
        """Install another process's export for ``host``. ``op`` is the
        sharded kernel's operator: a host that reduced binds it, as its
        reduce did on the exporting process - so a process whose own
        shard reduced nothing still reduce-syncs with it."""
        reduction = self.reductions[host]
        reduction.install_state(state)
        if reduction.pending():
            self._host_reduced[host] = True
            self._check_reduce(1, None, op)

    def checkpoint_state(self) -> dict:
        """Copy all mutable distributed state, for restore-and-replay.

        Checkpoints are taken at round boundaries, where reductions are
        drained (``pending_reductions() == 0``) and no phase is open, so
        store contents plus the round-vote/activity buffers are the whole
        state. Copying itself is not charged - the caller's checkpoint
        phase prices serialization through the cluster counters.
        """
        state = {
            "stores": [store.checkpoint() for store in self.stores],
            "any_updated": self._any_updated,
            # Private copies: the live masks are scattered into in place.
            "updated_masters": [mask.copy() for mask in self._updated_masters],
            "active": [mask.copy() for mask in self._active],
            "next_active": [mask.copy() for mask in self._next_active],
            "op": self._op,
            "pinned": self._pinned,
            "pin_invariant": self._pin_invariant,
        }
        if self.variant.uses_kvstore:
            assert self.kv_client is not None
            state["kv"] = [
                server.snapshot_prefix(self._kv_prefix())
                for server in self.kv_client.servers
            ]
        return state

    def restore_state(self, state: dict) -> None:
        """Reinstate a checkpoint (restorable any number of times)."""
        for store, store_state in zip(self.stores, state["stores"]):
            store.restore(store_state)
        self._any_updated = state["any_updated"]
        # Copying again: the saved arrays stay untouched.
        self._install_masks(*(
            [mask.copy() for mask in state[name]]
            for name in ("updated_masters", "active", "next_active")
        ))
        self._op = state["op"]
        self._pinned = state["pinned"]
        self._pin_invariant = state["pin_invariant"]
        if self.variant.uses_kvstore:
            assert self.kv_client is not None
            for server, snapshot in zip(self.kv_client.servers, state["kv"]):
                server.restore_prefix(self._kv_prefix(), snapshot)
        # Mid-round request state does not survive a crash: replay rebuilds
        # the request sets from scratch.
        for bitset in self.bitsets:
            bitset.clear()
        for dups in self._dup_requests:
            dups.clear()
