"""Event counters: what the simulation measures instead of wall-clock time.

Every phase of every BSP round claims one ``int64`` row of the
:class:`MetricsLog`'s block - per host, its ``CELL_FIELDS``: the event
counters and the four traffic totals - which the cost model
(:mod:`repro.cluster.costmodel`) prices into modeled seconds.
:class:`PhaseRecord` / :class:`Counters` are row views built on demand
for traces, profiles and tests.
"""

from __future__ import annotations

import enum
import operator
import struct
from array import array
from dataclasses import dataclass, fields

import numpy as np


class PhaseKind(enum.Enum):
    """The four BSP phase kinds of Section 4.1, plus baseline-specific ones."""

    REQUEST_COMPUTE = "request-compute"
    REQUEST_SYNC = "request-sync"
    REDUCE_COMPUTE = "reduce-compute"
    REDUCE_SYNC = "reduce-sync"
    BROADCAST_SYNC = "broadcast-sync"
    INIT = "init"
    SERIAL = "serial"  # e.g. Vite's single-threaded inspection phase
    # Fault-tolerance collectives (repro.faults): snapshot serialization /
    # restore-and-replay. Barrier collectives like the sync kinds, so their
    # cost reports as communication ("recovery time") in the breakdowns.
    CHECKPOINT = "checkpoint"
    RECOVERY = "recovery"
    # Barrier-free chunk of the asynchronous engine (repro.exec.engine):
    # compute and its eager messaging overlap, so the cost model prices
    # communication as only the part peeking out past compute rather than
    # adding a sync phase - there are no round barriers to charge.
    ASYNC_COMPUTE = "async-compute"

    @property
    def is_sync(self) -> bool:
        return self in (
            PhaseKind.REQUEST_SYNC,
            PhaseKind.REDUCE_SYNC,
            PhaseKind.BROADCAST_SYNC,
            PhaseKind.CHECKPOINT,
            PhaseKind.RECOVERY,
        )


# Counter fields that are statistics mirrors of priced events, not events of
# their own: every master/remote read already shows up as a vector_read,
# hash_probe or binsearch_step. The cost model gives these weight 0 and
# `Counters.total_events` excludes them, both from this one set.
STATISTIC_FIELDS = frozenset({"reads_master", "reads_remote"})


@dataclass(slots=True)
class Counters:
    """Additive per-host event counters for one phase.

    ``vector_reads`` are O(1) dense-array reads (the GAR master layout),
    ``binsearch_steps`` are probes of the sorted remote arrays,
    ``hash_probes`` are hash-map lookups (the non-GAR layouts),
    ``cas_attempts``/``cas_conflicts`` price shared-map and key-value-store
    reductions, ``combine_ops`` is the CF thread-local-map combining step,
    and ``kv_string_ops`` is the extra per-operation cost of the
    key-value-store's string keys (Section 6.4).
    """

    node_iters: int = 0
    edge_iters: int = 0
    local_ops: int = 0
    # Free statistics counters (zero cost weight): how many property reads
    # hit master vs non-master properties, for the Section 4.2 locality
    # measurement that motivates GAR.
    reads_master: int = 0
    reads_remote: int = 0
    vector_reads: int = 0
    binsearch_steps: int = 0
    hash_probes: int = 0
    reduce_calls: int = 0
    cas_attempts: int = 0
    cas_conflicts: int = 0
    combine_ops: int = 0
    materialize_ops: int = 0
    kv_string_ops: int = 0

    def add(self, other: "Counters") -> None:
        for name in COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def total_events(self) -> int:
        """Priced events only: statistics mirrors would double-count reads."""
        return sum(
            getattr(self, name)
            for name in COUNTER_FIELDS
            if name not in STATISTIC_FIELDS
        )

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in COUNTER_FIELDS}


COUNTER_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(Counters))


TRAFFIC_FIELDS: tuple[str, ...] = ("msgs_sent", "bytes_sent", "msgs_recv", "bytes_recv")
CELL_FIELDS: tuple[str, ...] = COUNTER_FIELDS + TRAFFIC_FIELDS

_KINDS = tuple(PhaseKind)
# A phase's tag row: kind (index into tuple(PhaseKind)), parallel, label
# and operator (codes into the log's name table), round, chunk (-1: none).
_TAG_WIDTH = 6
_cell_values = operator.attrgetter(*CELL_FIELDS)
# Rows go in packed: one C call a row, where extending from ints is one a value.
_pack_cells = struct.Struct(f"{len(CELL_FIELDS)}q").pack
_pack_tags = struct.Struct(f"{_TAG_WIDTH}q").pack


class HostCells:
    """One host's cells of the open phase, reused by every phase of a log:
    plain slots holding Python ints, so a ``+=`` is one slot store."""

    __slots__ = CELL_FIELDS

    def __init__(self) -> None:
        for name in CELL_FIELDS:
            setattr(self, name, 0)


@dataclass(slots=True)
class PhaseRecord:
    """A row view of one phase (a copy): counters and traffic per host.

    ``round`` is the BSP round the phase ran in (round loops count from 1;
    a phase outside any round - initialization, an outer loop's own steps
    such as a warm-up - carries the last round begun, 0 before the first)
    and
    ``operator`` names the operator or collective that opened the phase -
    together they let traces and profiles attribute modeled time.
    """

    kind: PhaseKind
    parallel: bool
    counters: list[Counters]
    msgs_sent: list[int]
    bytes_sent: list[int]
    msgs_recv: list[int]
    bytes_recv: list[int]
    label: str = ""
    round: int = 0
    operator: str = ""
    # Per-host compute-time multipliers stamped by an installed fault
    # injector (straggler modeling); None - the overwhelmingly common
    # case - prices identically to all-ones.
    slowdown: list[float] | None = None
    # Chunk ordinal within an asynchronous run (repro.exec.engine), which
    # has no rounds to attribute by; None under BSP, never serialized.
    chunk: int | None = None


class OpenPhase:
    """The log's last phase, as the handle ``start_phase`` returns and
    ``with cluster.phase(...)`` yields - one per log, reused by every
    phase. ``counters`` are the log's :class:`HostCells`; ``chunk`` and
    ``slowdown`` are written into the last phase's tags."""

    __slots__ = ("log", "counters", "kind", "label", "round", "operator")

    def __init__(self, log: "MetricsLog") -> None:
        self.log, self.counters = log, log.hosts

    @property
    def chunk(self) -> int | None:
        return None if self.log._tags[-1] < 0 else self.log._tags[-1]

    @chunk.setter
    def chunk(self, value: int) -> None:
        self.log._tags[-1] = value

    @property
    def slowdown(self) -> list[float] | None:
        return self.log._slowdown.get(self.log.num_phases - 1)

    @slowdown.setter
    def slowdown(self, value: list[float]) -> None:
        self.log._slowdown[self.log.num_phases - 1] = list(value)


class MetricsLog:
    """Append-only log of one measured region: growable ``int64`` blocks of
    rows and tags plus the open phase's :class:`HostCells` - O(hosts)
    objects for any number of phases. ``start_phase`` seals the open phase
    (appends its cells as a row, zeroes them); a read syncs the open row
    without sealing it, so writes after a phase closes (the pool's merge,
    the async engine's flush) land in the last phase."""

    def __init__(self, num_hosts: int) -> None:
        self.num_hosts = num_hosts
        self.hosts = tuple(HostCells() for _ in range(num_hosts))
        self.open = OpenPhase(self)
        self._block = array("q")
        self._tags = array("q")
        self._names: dict[str, int] = {}  # label / operator -> code
        self._slowdown: dict[int, list[float]] = {}  # phase -> straggler factors

    @property
    def num_phases(self) -> int:
        return len(self._tags) // _TAG_WIDTH

    def start_phase(
        self,
        kind: PhaseKind,
        parallel: bool = True,
        label: str = "",
        round: int = 0,
        operator: str = "",
    ) -> OpenPhase:
        tags = self._tags
        if tags:
            # Every cell named, in CELL_FIELDS order: a spelled-out slot read or
            # store is specialised, half the cost of attrgetter / setattr.
            seal = self._block.frombytes
            for c in self.hosts:
                seal(_pack_cells(
                    c.node_iters, c.edge_iters, c.local_ops, c.reads_master, c.reads_remote,
                    c.vector_reads, c.binsearch_steps, c.hash_probes, c.reduce_calls,
                    c.cas_attempts, c.cas_conflicts, c.combine_ops, c.materialize_ops,
                    c.kv_string_ops, c.msgs_sent, c.bytes_sent, c.msgs_recv, c.bytes_recv,
                ))
                c.node_iters = c.edge_iters = c.local_ops = c.reads_master = 0
                c.reads_remote = c.vector_reads = c.binsearch_steps = c.hash_probes = 0
                c.reduce_calls = c.cas_attempts = c.cas_conflicts = c.combine_ops = 0
                c.materialize_ops = c.kv_string_ops = 0
                c.msgs_sent = c.bytes_sent = c.msgs_recv = c.bytes_recv = 0
        names = self._names
        label_code = names.setdefault(label, len(names))
        operator_code = names.setdefault(operator, len(names))
        tags.frombytes(
            _pack_tags(_KINDS.index(kind), parallel, label_code, round, operator_code, -1)
        )
        handle = self.open
        handle.kind, handle.label, handle.round, handle.operator = kind, label, round, operator
        return handle

    def open_row(self) -> np.ndarray:
        """The open phase's cells so far, ``int64`` ``(hosts, cells)``."""
        return np.array([*map(_cell_values, self.hosts)], dtype=np.int64)

    def add(self, host: int, values, names: tuple[str, ...] = CELL_FIELDS) -> None:
        """Add ``values`` (in ``names`` order) to ``host``'s open cells."""
        cells = self.hosts[host]
        for name, value in zip(names, values):
            setattr(cells, name, getattr(cells, name) + int(value))

    def row_blocks(self) -> tuple[np.ndarray, ...]:
        """Every phase's row in log order, ``int64`` ``(phases, hosts,
        cells)`` in two blocks: the sealed rows - a view of the block, so
        read it before the next seal - then the open row, synced."""
        sealed = np.frombuffer(self._block, np.int64)
        sealed = sealed.reshape(-1, self.num_hosts, len(CELL_FIELDS))
        return (sealed, self.open_row()[np.newaxis]) if self._tags else (sealed,)

    def cells(self) -> np.ndarray:
        """Every phase's row, as one fresh array."""
        return np.concatenate(self.row_blocks())

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Per-phase kinds (indices into ``tuple(PhaseKind)``), parallel, and
        ``(phases, hosts)`` slowdown (ones where a phase has none; or None)."""
        tags = np.frombuffer(self._tags, np.int64).reshape(-1, _TAG_WIDTH)
        slowdown = None
        if self._slowdown:
            slowdown = np.ones((len(tags), self.num_hosts))
            for index, factors in self._slowdown.items():
                slowdown[index] = factors
        return tags[:, 0].copy(), tags[:, 1].astype(bool), slowdown

    @property
    def phases(self) -> list[PhaseRecord]:
        """Every phase as a :class:`PhaseRecord` row view (a copy)."""
        width, names = len(COUNTER_FIELDS), list(self._names)
        tags = np.frombuffer(self._tags, np.int64).reshape(-1, _TAG_WIDTH).tolist()
        return [
            PhaseRecord(
                _KINDS[kind], bool(parallel), [Counters(*row[:width]) for row in rows],
                *([row[width + column] for row in rows] for column in range(4)),
                label=names[label], round=round, operator=names[operator],
                slowdown=[*self._slowdown[index]] if index in self._slowdown else None,
                chunk=None if chunk < 0 else chunk,
            )
            for index, (rows, (kind, parallel, label, round, operator, chunk)) in enumerate(
                zip(self.cells().tolist(), tags)
            )
        ]

    def _sums(self) -> list[int]:
        """Every cell column summed over phases and hosts, exactly (``einsum``:
        the strided ``sum(axis=(0, 1))`` pass takes twice as long)."""
        sums = np.zeros(len(CELL_FIELDS), dtype=np.int64)
        for rows in self.row_blocks():
            sums += np.einsum("phc->c", rows)
        return sums.tolist()

    def total_counters(self) -> Counters:
        """The log's counters summed, plain Python ints (``as_dict`` is serialized)."""
        return Counters(*self._sums()[: len(COUNTER_FIELDS)])

    def total_messages(self) -> int:
        return self._sums()[CELL_FIELDS.index("msgs_sent")]

    def total_bytes(self) -> int:
        return self._sums()[CELL_FIELDS.index("bytes_sent")]
