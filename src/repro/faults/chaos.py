"""Real-fault chaos plans: actual signals, not modeled failures.

Where a :class:`~repro.faults.plan.FaultPlan` *models* failures (a
"crash" is a priced restore-and-replay, the process never dies), a
:class:`ChaosPlan` delivers the real thing to the host-parallel pool:
``SIGKILL``/``SIGTERM`` to a specific worker process, or a simulated
OOM-kill (``os._exit(137)``), at a specific boundary of the exchange
protocol - the compute-effect exchange that closes a sharded compute
phase, the only point where the processes of a run meet. The doomed
worker kills *itself* just before writing its effect bundle, so the
coordinator's supervisor must detect a real dead process mid-exchange -
exactly the failure the self-healing pool (:mod:`repro.exec.pool`)
recovers from.

Determinism: every process counts those exchanges identically
(``HostShardPool.boundaries_seen``, never rolled back by recovery), so
``ChaosEvent(boundary=B, worker=W)`` names one exact point in the
replicated protocol and fires exactly once - replacement workers
inherit the coordinator's counter, which is already past ``B``. The two
plan families compose: a run can carry a modeled ``FaultPlan`` (drops,
stragglers, modeled crashes) *and* a ``ChaosPlan`` killing real
workers, and the byte-identity contract still holds.
"""

from __future__ import annotations

import os
import signal
from dataclasses import asdict, dataclass, field

from repro.faults.rng import stream_rng

CHAOS_SCHEMA = "repro-chaos/v1"

#: What a chaos event can do to its victim worker process.
CHAOS_KINDS = ("sigkill", "sigterm", "oom")

#: Conventional exit status of an OOM-killed process (128 + SIGKILL).
OOM_EXIT_CODE = 137


@dataclass(frozen=True)
class ChaosEvent:
    """Kill worker ``worker`` at exchange boundary ``boundary``.

    ``boundary`` counts the pool's compute-effect exchanges (one per
    sharded compute phase; the sync collectives exchange nothing) from 1
    across the executor's lifetime; ``worker`` is a pool worker index
    (>= 1 - index 0 is the coordinator, which is the supervisor and not
    a valid victim). ``kind`` picks the weapon:
    ``sigkill`` and ``sigterm`` are delivered with ``os.kill``; ``oom``
    simulates the kernel OOM killer via ``os._exit(137)``.
    """

    boundary: int
    worker: int
    kind: str = "sigkill"

    def __post_init__(self) -> None:
        if self.boundary < 1:
            raise ValueError("chaos boundary must be >= 1 (boundaries count from 1)")
        if self.worker < 1:
            raise ValueError(
                "chaos worker must be >= 1 (worker 0 is the coordinator)"
            )
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r}; have {CHAOS_KINDS}"
            )


@dataclass(frozen=True)
class ChaosPlan:
    """One named, seeded schedule of real worker kills."""

    name: str = "chaos"
    seed: int = 0
    events: tuple[ChaosEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def describe(self) -> dict:
        """JSON-ready form (mirrors ``FaultPlan.describe``)."""
        return {
            "schema": CHAOS_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "events": [asdict(event) for event in self.events],
        }


def random_chaos(
    seed: int,
    workers: int,
    boundaries: int,
    events: int = 1,
    kinds: tuple[str, ...] = CHAOS_KINDS,
) -> ChaosPlan:
    """A seeded random kill schedule: ``events`` distinct boundaries drawn
    from ``1..boundaries``, each aimed at a random worker in
    ``1..workers`` with a random kind. Same seed, same plan."""
    if workers < 1:
        raise ValueError("need at least one worker to kill")
    if boundaries < 1:
        raise ValueError("need at least one boundary to kill at")
    rng = stream_rng(seed, "chaos", workers, boundaries, events)
    count = min(events, boundaries)
    picked = rng.sample(range(1, boundaries + 1), count)
    return ChaosPlan(
        name=f"random@{seed}",
        seed=seed,
        events=tuple(
            ChaosEvent(
                boundary=boundary,
                worker=rng.randint(1, workers),
                kind=rng.choice(list(kinds)),
            )
            for boundary in sorted(picked)
        ),
    )


def deliver(event: ChaosEvent) -> None:
    """Execute one chaos event against the *calling* process. Does not
    return (the process dies here)."""
    if event.kind == "oom":
        os._exit(OOM_EXIT_CODE)
    sig = signal.SIGKILL if event.kind == "sigkill" else signal.SIGTERM
    if sig == signal.SIGTERM:
        # A harness (e.g. coverage) may have hooked SIGTERM; restore the
        # default fatal disposition so the boundary stays the death point.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), sig)
    os._exit(1)  # pragma: no cover - unreachable once the signal lands
