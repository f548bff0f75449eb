"""Event counters: what the simulation measures instead of wall-clock time.

Every phase of every BSP round produces one :class:`PhaseRecord` holding a
:class:`Counters` per host plus per-host message/byte totals. The cost model
(:mod:`repro.cluster.costmodel`) prices these records into modeled seconds.

Records stay plain objects while a run writes them; a report reads the
log packed into arrays - :meth:`MetricsLog.host_rows` (``int64``
``(phases, counters)`` per host) and :meth:`MetricsLog.columns` (per-phase
tags) - so totals and pricing are array passes, not one Python call per
phase per question.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

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


_counter_values = operator.attrgetter(*COUNTER_FIELDS)


def counters_to_rows(rows: Iterable[Counters]) -> np.ndarray:
    """Pack counters into one ``int64`` matrix, one row each, column order
    = ``COUNTER_FIELDS``: the accumulation layout of the parallel
    exchange's bundles (:mod:`repro.exec.pool`) and of a host's rows of
    the phase log (:meth:`MetricsLog.host_rows`). Streamed through
    ``np.fromiter`` - no nested list of boxed ints is ever built."""
    rows = list(rows)
    flat = np.fromiter(
        chain.from_iterable(map(_counter_values, rows)),
        dtype=np.int64,
        count=len(rows) * len(COUNTER_FIELDS),
    )
    return flat.reshape(-1, len(COUNTER_FIELDS))


def add_counter_row(counters: Counters, row: np.ndarray) -> None:
    """Fold one packed row back in, keeping the fields plain Python ints
    (byte-identity: ``as_dict`` must serialize exactly as a serial run)."""
    for name, value in zip(COUNTER_FIELDS, row):
        setattr(counters, name, getattr(counters, name) + int(value))


@dataclass(slots=True)
class PhaseRecord:
    """One executed phase: counters and traffic for every host.

    ``round`` is the BSP round the phase ran in (0 for pre-loop phases such
    as initialization and one-shot warm-ups; plan-loop rounds count from
    1) and
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
    # Chunk ordinal within an asynchronous run (repro.exec.engine): the
    # async engine has no rounds, so traces key attribution on the chunk
    # instead. None for every BSP phase - never serialized, like
    # ``slowdown``, so the BSP byte-identity contract is untouched.
    chunk: int | None = None

    @classmethod
    def empty(
        cls,
        kind: PhaseKind,
        num_hosts: int,
        parallel: bool,
        label: str = "",
        round: int = 0,
        operator: str = "",
    ) -> "PhaseRecord":
        zeros = [0] * num_hosts
        return cls(
            kind,
            parallel,
            [Counters() for _ in range(num_hosts)],
            zeros,
            zeros.copy(),
            zeros.copy(),
            zeros.copy(),
            label,
            round,
            operator,
        )


class PhaseColumns(NamedTuple):
    """Per-phase tags of a log as arrays, one row per record in log order."""

    parallel: np.ndarray  # bool
    kinds: np.ndarray  # indices into tuple(PhaseKind)
    # Largest per-host sent-or-received total of each record: the
    # alpha-beta term's operands.
    max_msgs: np.ndarray
    max_bytes: np.ndarray
    # float64 (phases, hosts), exact ones where a record carries no
    # straggler multipliers; None when no record does.
    slowdown: np.ndarray | None


@dataclass
class MetricsLog:
    """Append-only log of phase records for one measured region."""

    num_hosts: int
    phases: list[PhaseRecord] = field(default_factory=list)
    # What the last full ``host_rows()`` pass read: (records, the last
    # one's counters by value, counter column sums).
    _totalled: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def start_phase(
        self,
        kind: PhaseKind,
        parallel: bool = True,
        label: str = "",
        round: int = 0,
        operator: str = "",
    ) -> PhaseRecord:
        record = PhaseRecord.empty(
            kind, self.num_hosts, parallel, label, round=round, operator=operator
        )
        self.phases.append(record)
        return record

    def host_rows(self) -> Iterator[np.ndarray]:
        """Each host's counters over the whole log in turn: ``int64``
        ``(phases, len(COUNTER_FIELDS))``. One host at a time because all
        hosts at once is the size of the log again; a pass that reaches
        the last host also leaves the counter column sums behind, so the
        ``total_counters()`` that follows pricing in a report is free."""
        phases = self.phases
        sums = np.zeros(len(COUNTER_FIELDS), dtype=np.int64)
        for host in range(self.num_hosts):
            rows = counters_to_rows([phase.counters[host] for phase in phases])
            sums += rows.sum(axis=0)
            yield rows
        self._totalled = (list(phases), self._open_counters(), sums.tolist())

    def _open_counters(self) -> list:
        """The last record's counters by value: phases do not nest, so it
        is the only record that can still be written after a report."""
        return [*map(_counter_values, self.phases[-1].counters)] if self.phases else []

    def columns(self) -> PhaseColumns:
        """The log's per-phase tags, packed."""
        phases, count = self.phases, len(self.phases)
        codes = {kind: code for code, kind in enumerate(PhaseKind)}

        def largest(sent: str, received: str) -> np.ndarray:
            width = 2 * self.num_hosts
            per_host = chain.from_iterable(map(operator.attrgetter(sent, received), phases))
            flat = np.fromiter(chain.from_iterable(per_host), np.int64, count * width)
            return flat.reshape(count, width).max(axis=1, initial=0)

        slowdown = None
        if any(phase.slowdown is not None for phase in phases):
            ones = [1.0] * self.num_hosts
            slowdown = np.array([phase.slowdown or ones for phase in phases])
        return PhaseColumns(
            parallel=np.fromiter((phase.parallel for phase in phases), bool, count),
            kinds=np.fromiter((codes[phase.kind] for phase in phases), np.int64, count),
            max_msgs=largest("msgs_sent", "msgs_recv"),
            max_bytes=largest("bytes_sent", "bytes_recv"),
            slowdown=slowdown,
        )

    def total_counters(self) -> Counters:
        """The packed rows' column sums - integer addition is exact, so
        they match a ``Counters.add`` fold field for field, as plain
        Python ints (``as_dict`` is serialized). Read again when the log
        was appended to, truncated (a fault rollback) or written into
        since the last pass."""
        phases, seen = self.phases, self._totalled
        if (
            seen is None
            or len(seen[0]) != len(phases)
            or not all(map(operator.is_, seen[0], phases))
            or seen[1] != self._open_counters()
        ):
            for _ in self.host_rows():
                pass
        return Counters(*self._totalled[2])

    def total_messages(self) -> int:
        return sum(sum(phase.msgs_sent) for phase in self.phases)

    def total_bytes(self) -> int:
        return sum(sum(phase.bytes_sent) for phase in self.phases)

    def counters_by_kind(self) -> dict[PhaseKind, Counters]:
        by_kind: dict[PhaseKind, Counters] = {}
        for phase in self.phases:
            bucket = by_kind.setdefault(phase.kind, Counters())
            for counters in phase.counters:
                bucket.add(counters)
        return by_kind
