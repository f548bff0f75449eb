"""Deterministic modeled timeline: when each phase ran on each host.

The simulation has no wall clock; what it has is a :class:`MetricsLog` of
phase records and a :class:`CostModel` that prices each phase. This module
lays the priced phases out on a modeled time axis, BSP-style: every host
enters phase *i* at the same barrier time (the sum of the durations of
phases ``0..i-1``) and the phase lasts as long as its slowest host. A
host's *busy* time inside the phase is its own weighted work, so the gap
``duration - busy`` is exactly the modeled barrier-wait.

By construction, for **every** host the slice durations sum to
``CostModel.time(log).total`` - the invariant the exporter tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.costmodel import CostModel, ModeledTime
from repro.cluster.metrics import Counters, MetricsLog, PhaseKind


@dataclass(frozen=True)
class TimelineSlice:
    """One host's span of one phase on the modeled time axis (seconds)."""

    phase_index: int
    kind: PhaseKind
    label: str
    operator: str
    round: int
    host: int
    start: float
    duration: float  # barrier-to-barrier: identical across hosts of a phase
    busy: float  # this host's own modeled work inside the phase
    counters: Counters
    # Async-engine chunk ordinal for ASYNC_COMPUTE phases; None under BSP,
    # so BSP traces are unchanged by the engine layer.
    chunk: int | None = None


@dataclass
class Timeline:
    """All slices of a run, plus the totals they must add up to."""

    num_hosts: int
    threads: int
    slices: list[TimelineSlice] = field(default_factory=list)
    total: float = 0.0

    def per_host_totals(self) -> list[float]:
        """Sum of slice durations per host; every entry equals ``total``."""
        totals = [0.0] * self.num_hosts
        for s in self.slices:
            totals[s.host] += s.duration
        return totals


def build_timeline(
    log: MetricsLog, cost_model: CostModel, threads: int
) -> Timeline:
    """Lay the log's phases out on the modeled time axis, one track per host."""
    timeline = Timeline(num_hosts=log.num_hosts, threads=threads)
    clock = 0.0
    for index, phase in enumerate(log.phases):
        duration = cost_model.phase_time(phase, threads).total
        for host in range(log.num_hosts):
            busy = cost_model.host_phase_time(phase, host, threads).total
            timeline.slices.append(
                TimelineSlice(
                    phase_index=index,
                    kind=phase.kind,
                    label=phase.label,
                    operator=phase.operator,
                    round=phase.round,
                    host=host,
                    start=clock,
                    duration=duration,
                    busy=min(busy, duration),
                    counters=phase.counters[host],
                    chunk=getattr(phase, "chunk", None),
                )
            )
        clock += duration
    timeline.total = clock
    return timeline


@dataclass(frozen=True)
class PhaseCost:
    """One phase with its modeled price, for profiling (``repro profile``)."""

    phase_index: int
    kind: PhaseKind
    label: str
    operator: str
    round: int
    time: ModeledTime
    breakdown: dict[str, float]  # weighted units per counter kind


def phase_costs(
    log: MetricsLog, cost_model: CostModel, threads: int
) -> list[PhaseCost]:
    """Price every phase and attribute its units to counter kinds."""
    costs: list[PhaseCost] = []
    for index, phase in enumerate(log.phases):
        total = Counters()
        for counters in phase.counters:
            total.add(counters)
        costs.append(
            PhaseCost(
                phase_index=index,
                kind=phase.kind,
                label=phase.label,
                operator=phase.operator,
                round=phase.round,
                time=cost_model.phase_time(phase, threads),
                breakdown=cost_model.units_breakdown(total),
            )
        )
    return costs


def top_phases(
    log: MetricsLog, cost_model: CostModel, threads: int, k: int = 10
) -> list[PhaseCost]:
    """The ``k`` costliest phases by modeled total time, costliest first.

    Ties break deterministically by log order (stable sort), so profiles of
    the same run are always identical.
    """
    costs = phase_costs(log, cost_model, threads)
    return sorted(costs, key=lambda c: -c.time.total)[:k]
