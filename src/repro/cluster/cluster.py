"""The simulated cluster: hosts, virtual threads, and phase scoping.

All computation in the reproduction runs "on" a :class:`Cluster`. Code that
models per-host parallel work opens a phase (:meth:`Cluster.phase`), then
records events against per-host counters. Virtual threads exist only as a
deterministic dealing function (:func:`static_thread`) - matching OpenMP
static scheduling - used both by the conflict-free reduction (which keys
thread-local maps by thread id) and by the conflict accounting of the
shared-map variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.costmodel import CostModel, ModeledTime
from repro.cluster.metrics import HostCells, MetricsLog, OpenPhase, PhaseKind
from repro.cluster.network import Network


def static_thread(index: int, total: int, threads: int) -> int:
    """Deal item ``index`` of ``total`` to a virtual thread, OpenMP-static style."""
    if total <= 0:
        return 0
    if index < 0 or index >= total:
        raise IndexError(f"item {index} out of range for {total} items")
    return min(index * threads // total, threads - 1)


class SimulatedOutOfMemory(MemoryError):
    """A host's tracked property-slot footprint exceeded the cluster's
    configured memory limit (models the paper's LD OOM cells).

    Carries structured fields so reports can name the map whose report
    blew the budget: ``host``, ``owner`` (the reporting owner, e.g.
    ``"npm:rank"``), ``total_slots`` (the host's footprint at the time),
    and ``limit``.
    """

    def __init__(self, host: int, owner: str, total_slots: int, limit: int) -> None:
        super().__init__(
            f"host {host}: {owner!r} pushed the footprint to {total_slots} "
            f"value slots (limit {limit})"
        )
        self.host = host
        self.owner = owner
        self.total_slots = total_slots
        self.limit = limit


class _OpenPhase:
    """An open phase's scope (:meth:`Cluster.phase`), one per cluster: ``with``
    yields the log's open-phase handle, then closes the phase."""

    __slots__ = ("cluster",)

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster

    def __enter__(self) -> OpenPhase:
        return self.cluster.log.open

    def __exit__(self, *exc_info: object) -> None:
        self.cluster._current = None
        self.cluster.network.bind_phase(None)


@dataclass(frozen=True)
class Host:
    """One simulated machine (48 hardware threads on Stampede2 SKX)."""

    host_id: int
    threads: int


class Cluster:
    """A set of simulated hosts plus the metrics log they write into."""

    def __init__(
        self,
        num_hosts: int,
        threads_per_host: int = 48,
        cost_model: CostModel | None = None,
        memory_limit_slots: int | None = None,
    ) -> None:
        if num_hosts < 1:
            raise ValueError("need at least one host")
        if threads_per_host < 1:
            raise ValueError("need at least one thread per host")
        self.num_hosts = num_hosts
        self.threads_per_host = threads_per_host
        self.hosts = [Host(i, threads_per_host) for i in range(num_hosts)]
        self.cost_model = cost_model or CostModel()
        self.network = Network(num_hosts)
        self.log = MetricsLog(num_hosts)
        self._current: OpenPhase | None = None
        self._scope = _OpenPhase(self)
        # Round/operator attribution for traces and profiles: phases opened
        # before any loop round belong to round 0; the plan loop
        # (repro.exec.engine.BSPEngine.drive) advances the round counter
        # once per BSP round.
        self.current_round = 0
        # Memory accounting: property maps (and baselines) report their
        # per-host live value-slot footprint; the cluster tracks the peak
        # (the paper's max-RSS measure) and, with a limit configured,
        # raises SimulatedOutOfMemory like the paper's LD OOM cells.
        self.memory_limit_slots = memory_limit_slots
        self._live_slots: dict[tuple[int, str], int] = {}
        # Per-host running totals of _live_slots, maintained on every report
        # so track_memory is O(1) instead of summing the live table.
        self._host_slot_totals = [0] * num_hosts
        self.peak_memory_slots = [0] * num_hosts
        # Fault injection (repro.faults): None unless install_faults() has
        # attached an injector; every hook call site guards on this, so the
        # fault layer is zero-overhead when off.
        self.faults = None

    # -- phase scoping -----------------------------------------------------

    def phase(
        self,
        kind: PhaseKind,
        parallel: bool = True,
        label: str = "",
        operator: str = "",
    ) -> "_OpenPhase":
        """Open a phase; all events recorded inside its ``with`` block
        belong to it.

        Phases do not nest: the BSP execution model is a flat sequence of
        phases inside each round. ``operator`` names the operator body or
        collective for trace attribution (defaults to the label).
        """
        if self._current is not None:
            raise RuntimeError(
                f"phase {self._current.kind} is still open; phases do not nest"
            )
        record = self.log.start_phase(
            kind, parallel, label, self.current_round, operator or label
        )
        self._current = record
        self.network.bind_phase(record)
        if self.faults is not None:
            self.faults.on_phase_start(record)
        return self._scope

    def counters(self, host_id: int) -> HostCells:
        """The cells ``host_id``'s events in the current phase are added to."""
        if self._current is None:
            raise RuntimeError("no phase is open")
        return self._current.counters[host_id]

    @property
    def in_phase(self) -> bool:
        return self._current is not None

    # -- results ------------------------------------------------------------

    def elapsed(self) -> ModeledTime:
        return self.cost_model.time(self.log, self.threads_per_host)

    def elapsed_by_kind(self) -> dict[PhaseKind, ModeledTime]:
        return self.cost_model.time_by_kind(self.log, self.threads_per_host)

    def elapsed_all(self) -> tuple[ModeledTime, dict[PhaseKind, ModeledTime]]:
        """Total and per-kind modeled time in one pricing pass over the
        log (bit-identical to the two separate calls)."""
        return self.cost_model.time_totals(self.log, self.threads_per_host)

    def advance_round(self) -> int:
        """Start the next BSP round; later phases carry the new round id."""
        self.current_round += 1
        return self.current_round

    def reset(self) -> None:
        """Drop all recorded metrics (e.g. to exclude loading/partitioning)."""
        if self._current is not None:
            raise RuntimeError("cannot reset inside an open phase")
        self.log = MetricsLog(self.num_hosts)
        self.current_round = 0

    def thread_of(self, index: int, total: int) -> int:
        return static_thread(index, total, self.threads_per_host)

    def thread_boundaries(self, total: int) -> np.ndarray:
        """Closed-form OpenMP-static chunk bounds over ``total`` items.

        Item ``i`` is dealt to thread ``t`` iff ``bounds[t] <= i <
        bounds[t + 1]``; agrees with :func:`static_thread` for every index
        (the compiled kernels derive per-thread segments from these bounds
        once per ``(kernel, host)`` build instead of calling the dealing
        function per item). Returned read-only.
        """
        threads = self.threads_per_host
        t = np.arange(threads + 1, dtype=np.int64)
        bounds = np.minimum((t * total + threads - 1) // threads, total)
        bounds.flags.writeable = False
        return bounds

    def threads_of(self, total: int) -> np.ndarray:
        """Vectorized :func:`static_thread`: the thread id of every item
        (read-only), in the narrowest unsigned type: a byte an item."""
        threads = np.repeat(
            np.arange(self.threads_per_host, dtype=np.min_scalar_type(self.threads_per_host - 1)),
            np.diff(self.thread_boundaries(total)),
        )
        threads.flags.writeable = False
        return threads

    # -- memory accounting ---------------------------------------------------

    def track_memory(self, host_id: int, owner: str, slots: int) -> None:
        """Report ``owner``'s current value-slot footprint on a host.

        Owners (property maps, baseline kernels) call this whenever their
        footprint changes; the per-host total's peak is the modeled max
        RSS. Exceeding ``memory_limit_slots`` aborts the run the way the
        paper's out-of-memory cells do.
        """
        previous = self._live_slots.get((host_id, owner), 0)
        if slots == previous:
            return  # the total and its peak stand; the limit was checked when set
        if slots == 0:
            # A zero footprint is the same as no footprint: drop the entry
            # so released/empty owners do not linger in the live table.
            self._live_slots.pop((host_id, owner), None)
        else:
            self._live_slots[(host_id, owner)] = slots
        self._host_slot_totals[host_id] += slots - previous
        total = self._host_slot_totals[host_id]
        if total > self.peak_memory_slots[host_id]:
            self.peak_memory_slots[host_id] = total
        if self.memory_limit_slots is not None and total > self.memory_limit_slots:
            raise SimulatedOutOfMemory(
                host_id, owner, total, self.memory_limit_slots
            )

    def release_memory(self, owner: str) -> None:
        """Drop an owner's footprint on every host (e.g. a map going away)."""
        for key in [k for k in self._live_slots if k[1] == owner]:
            self._host_slot_totals[key[0]] -= self._live_slots[key]
            del self._live_slots[key]

    def max_memory_slots(self) -> int:
        """Peak per-host footprint across the cluster (the max-RSS analog)."""
        return max(self.peak_memory_slots, default=0)
