"""Event counters: what the simulation measures instead of wall-clock time.

Every phase of every BSP round produces one :class:`PhaseRecord` holding a
:class:`Counters` per host plus per-host message/byte totals. The cost model
(:mod:`repro.cluster.costmodel`) prices these records into modeled seconds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Sequence

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


@dataclass
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


def counters_to_rows(rows: Sequence[Counters]) -> np.ndarray:
    """Pack counters into one ``int64`` matrix, one row per host: the
    shared-memory accumulation layout of the parallel exchange
    (:mod:`repro.exec.pool`), column order = ``COUNTER_FIELDS``."""
    return np.array(
        [[getattr(c, name) for name in COUNTER_FIELDS] for c in rows],
        dtype=np.int64,
    )


def add_counter_row(counters: Counters, row: np.ndarray) -> None:
    """Fold one packed row back in, keeping the fields plain Python ints
    (byte-identity: ``as_dict`` must serialize exactly as a serial run)."""
    for name, value in zip(COUNTER_FIELDS, row):
        setattr(counters, name, getattr(counters, name) + int(value))


@dataclass
class PhaseRecord:
    """One executed phase: counters and traffic for every host.

    ``round`` is the BSP round the phase ran in (0 for pre-loop phases such
    as initialization; ``kimbap_while`` rounds count from 1) and
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
    # Per-host frontier-gather path chosen by a compiled EdgePush
    # (repro.exec.codegen.PreparedFrontierPush): "dense" (mask over the
    # full precomputed expansion), "sparse" (per-source gather), or
    # "empty" (nothing survived the filters). None for every other phase
    # - never serialized, like ``slowdown``, so the byte-identity contract
    # is untouched.
    frontier: dict[int, str] | None = None

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
        return cls(
            kind=kind,
            parallel=parallel,
            counters=[Counters() for _ in range(num_hosts)],
            msgs_sent=[0] * num_hosts,
            bytes_sent=[0] * num_hosts,
            msgs_recv=[0] * num_hosts,
            bytes_recv=[0] * num_hosts,
            label=label,
            round=round,
            operator=operator,
        )


@dataclass
class MetricsLog:
    """Append-only log of phase records for one measured region."""

    num_hosts: int
    phases: list[PhaseRecord] = field(default_factory=list)

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

    def total_counters(self) -> Counters:
        # Integer addition is exact, so folding through the instance
        # dicts (and skipping zero entries) matches ``Counters.add``
        # field for field at a fraction of the attribute-protocol cost -
        # result assembly sums every phase of a many-thousand-phase log.
        total = Counters()
        sums = total.__dict__
        for phase in self.phases:
            for counters in phase.counters:
                for name, value in counters.__dict__.items():
                    if value:
                        sums[name] += value
        return total

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
