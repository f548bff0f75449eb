"""Cost model: prices event counters into modeled execution seconds.

This is the reproduction's substitute for Stampede2 wall-clock time. Each
counter kind has a weight in abstract "op units"; a host's phase time is its
weighted units divided by its virtual-thread count (for parallel phases),
times ``seconds_per_unit``. Phase time is the max over hosts (BSP barrier),
plus an alpha-beta network term for sync phases. The defaults are calibrated
so the Figure 11 variant ordering and rough factors match the paper; they are
deliberately simple and fully documented here rather than hidden.

Weight rationale (relative units):

* ``vector_reads`` = 1       - dense array load (GAR master layout).
* ``binsearch_steps`` = 1    - one probe of the sorted remote array; a read
  of a remote key costs ~log2(cache size) of these.
* ``hash_probes`` = 4        - hash + probe + compare of a general map.
* ``reduce_calls`` = 3       - thread-local (conflict-free) reduce.
* ``cas_attempts`` = 8       - an atomic RMW including fence cost.
* ``cas_conflicts`` = 40     - a failed CAS: cache-line ping-pong + retry
  logic. This is where shared-map reductions lose on power-law graphs.
* ``combine_ops`` = 2        - CF combining step entry scan (sequential
  traversal, cache friendly).
* ``materialize_ops`` = 3    - building/sorting the remote arrays.
* ``kv_string_ops`` = 25     - string key formatting + parsing per KV op
  (Section 6.4 blames string keys explicitly).
* ``edge_iters`` = 1, ``node_iters`` = 1, ``local_ops`` = 1 - operator body.

``phase_time`` / ``host_phase_time`` price one record (``repro.trace``,
the profile tables, the pricing property test's oracle); ``time_totals``
prices a whole log as array passes over its packed rows - the only loop
over a log here. Both add floats as strict left folds (never builtin
``sum``, compensated from Python 3.12 on, never a pairwise ``np.sum``),
so they agree bit for bit on every interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.metrics import (
    COUNTER_FIELDS,
    STATISTIC_FIELDS,
    Counters,
    MetricsLog,
    PhaseKind,
    PhaseRecord,
)


DEFAULT_WEIGHTS: dict[str, float] = {
    "node_iters": 1.0,
    "edge_iters": 1.0,
    "local_ops": 1.0,
    "vector_reads": 1.0,
    "binsearch_steps": 1.0,
    "hash_probes": 4.0,
    "reduce_calls": 3.0,
    "cas_attempts": 8.0,
    "cas_conflicts": 40.0,
    "combine_ops": 2.0,
    "materialize_ops": 3.0,
    "kv_string_ops": 25.0,
}
# Statistics mirrors (Section 4.2 locality measure) are priced at zero; the
# set lives in metrics.py so total_events() and the weights cannot drift.
DEFAULT_WEIGHTS.update({name: 0.0 for name in STATISTIC_FIELDS})


@dataclass(frozen=True)
class ModeledTime:
    """Modeled seconds split the way the paper's figures split them."""

    computation: float
    communication: float

    @property
    def total(self) -> float:
        return self.computation + self.communication

    def __add__(self, other: "ModeledTime") -> "ModeledTime":
        return ModeledTime(
            self.computation + other.computation,
            self.communication + other.communication,
        )


@dataclass
class CostModel:
    """Prices :class:`MetricsLog` records into :class:`ModeledTime`.

    ``seconds_per_unit`` is tuned so a ~1k-node simulation lands in the same
    numeric neighbourhood as the paper's charts; only *relative* numbers are
    meaningful. ``alpha`` is per-message latency, ``beta`` seconds/byte
    (1/bandwidth).
    """

    seconds_per_unit: float = 2e-4
    alpha: float = 3e-4
    beta: float = 4e-6
    weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))

    def units(self, counters: Counters) -> float:
        # An explicit left fold in COUNTER_FIELDS order - the per-element
        # sequence ``time_totals`` runs column by column. Dropping
        # zero-weight terms is exact (every partial sum is non-negative,
        # so +0.0 is the identity).
        weights = self.weights
        units = 0.0
        for name in COUNTER_FIELDS:
            if weights[name]:
                units += weights[name] * getattr(counters, name)
        return units

    def units_breakdown(self, counters: Counters) -> dict[str, float]:
        """Weighted units contributed by each counter kind (zero entries
        dropped) - the attribution shown by ``repro profile``."""
        return {
            name: self.weights[name] * value
            for name, value in counters.as_dict().items()
            if self.weights[name] * value != 0.0
        }

    def _host_units(self, phase: PhaseRecord, host: int) -> float:
        """One host's weighted units, stretched by any straggler slowdown."""
        units = self.units(phase.counters[host])
        if phase.slowdown is not None:
            units *= phase.slowdown[host]
        return units

    @staticmethod
    def _split(kind: PhaseKind, compute: float, comm: float) -> ModeledTime:
        """How a phase's compute and alpha-beta seconds are reported."""
        if kind.is_sync:
            # Local work inside a sync phase (serving requests, applying
            # reductions) is part of what the paper reports as communication
            # time (its ReduceSync / RequestSync breakdown).
            return ModeledTime(0.0, compute + comm)
        if kind is PhaseKind.ASYNC_COMPUTE:
            # Barrier-free execution hides eager messaging behind compute:
            # only the communication exceeding the chunk's compute time is
            # exposed (the "may hide communication overheads" half of the
            # paper's Section 4.1 asynchrony trade-off).
            return ModeledTime(compute, max(comm - compute, 0.0))
        # Compute phases normally carry no traffic; the MC variant's CAS
        # loops do (computation and communication overlap in MC, which the
        # paper reports as a single "compcomm" bar).
        return ModeledTime(compute, comm)

    def host_phase_time(
        self, phase: PhaseRecord, host: int, threads: int
    ) -> ModeledTime:
        """One host's own busy time inside a phase (its compute units plus
        its own traffic), before the BSP barrier extends it to the slowest
        host. Used by the trace exporter to show per-host utilization."""
        divisor = threads if phase.parallel else 1
        compute = (
            self._host_units(phase, host) / divisor
        ) * self.seconds_per_unit
        comm = self.alpha * max(
            phase.msgs_sent[host], phase.msgs_recv[host]
        ) + self.beta * max(phase.bytes_sent[host], phase.bytes_recv[host])
        return self._split(phase.kind, compute, comm)

    def phase_time(self, phase: PhaseRecord, threads: int) -> ModeledTime:
        divisor = threads if phase.parallel else 1
        compute = max(
            (
                self._host_units(phase, host) / divisor
                for host in range(len(phase.counters))
            ),
            default=0.0,
        ) * self.seconds_per_unit
        max_msgs = max(
            max(phase.msgs_sent, default=0), max(phase.msgs_recv, default=0)
        )
        max_bytes = max(
            max(phase.bytes_sent, default=0), max(phase.bytes_recv, default=0)
        )
        comm = self.alpha * max_msgs + self.beta * max_bytes
        return self._split(phase.kind, compute, comm)

    def time(self, log: MetricsLog, threads: int) -> ModeledTime:
        return self.time_totals(log, threads)[0]

    def time_by_kind(self, log: MetricsLog, threads: int) -> dict[PhaseKind, ModeledTime]:
        return self.time_totals(log, threads)[1]

    def time_totals(
        self, log: MetricsLog, threads: int
    ) -> tuple[ModeledTime, dict[PhaseKind, ModeledTime]]:
        """The run total and each kind's total (kinds in first-appearance
        order), priced in one array pass over the packed log.

        Every step is elementwise over phases and keeps the per-element
        IEEE sequence of :meth:`phase_time`; the totals accumulate with
        ``np.cumsum`` from an explicit 0.0, a strict left fold in log
        order - so the result is bit-identical to folding ``phase_time``
        record by record.
        """
        tags = log.columns()
        units = np.zeros((len(log.phases), log.num_hosts))
        for host, rows in enumerate(log.host_rows()):
            for column, name in enumerate(COUNTER_FIELDS):
                if self.weights[name]:
                    units[:, host] += self.weights[name] * rows[:, column]
        if tags.slowdown is not None:
            units *= tags.slowdown
        units /= np.where(tags.parallel, threads, 1)[:, None]
        compute = units.max(axis=1, initial=0.0) * self.seconds_per_unit
        comm = self.alpha * tags.max_msgs + self.beta * tags.max_bytes
        kinds = tuple(PhaseKind)
        is_sync = np.array([kind.is_sync for kind in kinds])[tags.kinds]
        is_async = tags.kinds == kinds.index(PhaseKind.ASYNC_COMPUTE)
        exposed = np.where(is_async, np.maximum(comm - compute, 0.0), comm)
        priced = np.stack(
            (np.where(is_sync, 0.0, compute), np.where(is_sync, compute + comm, exposed)),
            axis=1,
        )

        def fold(rows: np.ndarray | slice) -> ModeledTime:
            terms = np.vstack((np.zeros((1, 2)), priced[rows]))
            return ModeledTime(*np.cumsum(terms, axis=0)[-1].tolist())

        codes, first = np.unique(tags.kinds, return_index=True)
        return fold(slice(None)), {
            kinds[code]: fold(tags.kinds == code)
            for code in codes[np.argsort(first)].tolist()
        }
