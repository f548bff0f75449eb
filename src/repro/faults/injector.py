"""The runtime half of fault injection: hooks called by cluster primitives.

One :class:`FaultInjector` is installed per cluster (``install_faults``).
It is consulted from three places:

* :meth:`repro.cluster.cluster.Cluster.phase` - at phase open, to stamp
  straggler slowdown multipliers onto the phase record and advance the
  per-phase decision streams;
* :meth:`repro.cluster.network.Network.send` - per logical message, to
  decide drops (charged as sender retransmissions) and duplications
  (charged as extra receiver deliveries);
* :class:`repro.kvstore.client.KvClient` - per request, to decide
  transient timeouts (charged as extra request messages).

Crashes are not raised from inside phases: the recoverable loop driver
(:mod:`repro.faults.recovery`) polls :meth:`crash_at` at round boundaries,
which keeps every phase record well-formed and recovery attributable.

Every decision is a pure function of ``(plan.seed, decision labels)`` via
:mod:`repro.faults.rng`, so the same plan on the same workload yields a
byte-identical trace. When no injector is installed the hooks are never
reached (`cluster.faults is None` guards every call site), keeping the
fault layer zero-overhead when off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.plan import FaultPlan, HostCrash
from repro.faults.rng import stream_uniform

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.cluster.metrics import PhaseRecord


class HostCrashError(RuntimeError):
    """An injected host failure (caught by the recoverable loop driver)."""

    def __init__(self, crash: HostCrash) -> None:
        super().__init__(f"host {crash.host} crashed entering round {crash.round}")
        self.crash = crash


class FaultInjector:
    """Per-cluster fault state: schedules, decision streams, and tallies."""

    def __init__(self, plan: FaultPlan, cluster: "Cluster") -> None:
        self.plan = plan
        self.cluster = cluster
        self._phase: "PhaseRecord | None" = None
        self._phase_ordinal = -1
        self._msg_seq: dict[tuple[int, int], int] = {}
        self._kv_seq: dict[tuple[int, int], int] = {}
        self._fired_crashes: set[HostCrash] = set()
        # Tallies surfaced in RunResult.to_dict()["faults"].
        self.messages_dropped = 0
        self.retries = 0
        self.resent_bytes = 0
        self.messages_duplicated = 0
        self.duplicate_bytes = 0
        self.kv_timeouts = 0
        self.checkpoints_taken = 0
        self.checkpoint_bytes = 0
        self.recoveries = 0
        self.rounds_replayed = 0
        self.events: list[dict] = []

    # ------------------------------------------------------------ phase hook

    def on_phase_start(self, record: "PhaseRecord") -> None:
        """Advance the per-phase decision streams; stamp straggler slowdown."""
        self._phase = record
        self._phase_ordinal += 1
        self._msg_seq.clear()
        self._kv_seq.clear()
        slowdown = None
        for straggler in self.plan.stragglers:
            if straggler.host < self.cluster.num_hosts and straggler.covers(
                record.round
            ):
                if slowdown is None:
                    slowdown = [1.0] * self.cluster.num_hosts
                slowdown[straggler.host] *= straggler.multiplier
        if slowdown is not None:
            record.slowdown = slowdown

    # ---------------------------------------------------------- network hook

    def on_send(
        self, record: "PhaseRecord", src: int, dst: int, nbytes: int
    ) -> tuple[int, int]:
        """Decide one message's fate: ``(dropped_attempts, duplicates)``."""
        flake = self.plan.flake
        if flake is None or not flake.covers(record.round):
            return 0, 0
        key = (src, dst)
        seq = self._msg_seq.get(key, 0)
        self._msg_seq[key] = seq + 1
        seed = self.plan.seed
        drops = 0
        while drops < flake.max_retries and (
            stream_uniform(seed, "drop", self._phase_ordinal, src, dst, seq, drops)
            < flake.drop_rate
        ):
            drops += 1
        duplicates = int(
            flake.duplicate_rate > 0.0
            and stream_uniform(seed, "dup", self._phase_ordinal, src, dst, seq)
            < flake.duplicate_rate
        )
        if drops:
            self.messages_dropped += drops
            self.retries += drops
            self.resent_bytes += nbytes * drops
        if duplicates:
            self.messages_duplicated += duplicates
            self.duplicate_bytes += nbytes * duplicates
        return drops, duplicates

    # ---------------------------------------------------------- kvstore hook

    def kv_retries(self, host: int, server: int) -> int:
        """How many times this request times out before succeeding."""
        timeouts = self.plan.kv_timeouts
        if timeouts is None:
            return 0
        round = self._phase.round if self._phase is not None else 0
        if not timeouts.covers(round):
            return 0
        key = (host, server)
        seq = self._kv_seq.get(key, 0)
        self._kv_seq[key] = seq + 1
        retries = 0
        while retries < timeouts.max_retries and (
            stream_uniform(
                self.plan.seed, "kv", self._phase_ordinal, host, server, seq, retries
            )
            < timeouts.rate
        ):
            retries += 1
        self.kv_timeouts += retries
        return retries

    # ------------------------------------------------------------ crash hook

    def crash_at(self, round: int) -> HostCrash | None:
        """The crash scheduled for ``round``, if any and not yet fired.

        Firing is once-per-crash: after recovery rolls the round counter
        back, the replayed pass through the same round must not re-crash.
        """
        for crash in self.plan.crashes:
            if (
                crash.round == round
                and crash.host < self.cluster.num_hosts
                and crash not in self._fired_crashes
            ):
                self._fired_crashes.add(crash)
                self.events.append(
                    {"kind": "crash", "host": crash.host, "round": round}
                )
                return crash
        return None

    # --------------------------------------------------- checkpoint bookkeeping

    def note_checkpoint(self, round: int, nbytes: int) -> None:
        self.checkpoints_taken += 1
        self.checkpoint_bytes += nbytes
        self.events.append({"kind": "checkpoint", "round": round, "bytes": nbytes})

    def note_recovery(
        self, crash: HostCrash, restored_round: int, nbytes: int
    ) -> None:
        self.recoveries += 1
        self.rounds_replayed += crash.round - restored_round - 1
        self.events.append(
            {
                "kind": "recovery",
                "host": crash.host,
                "crash_round": crash.round,
                "restored_round": restored_round,
                "bytes": nbytes,
            }
        )

    # ---------------------------------------------------------------- report

    def report(self) -> dict:
        """The structured ``faults`` section of a run result."""
        fired = sorted((c.round, c.host) for c in self._fired_crashes)
        pending = sorted(
            (c.round, c.host)
            for c in self.plan.crashes
            if c not in self._fired_crashes
        )
        return {
            "schema": "repro-faults/v1",
            "plan": self.plan.describe(),
            "events": list(self.events),
            "messages_dropped": self.messages_dropped,
            "retries": self.retries,
            "resent_bytes": self.resent_bytes,
            "messages_duplicated": self.messages_duplicated,
            "duplicate_bytes": self.duplicate_bytes,
            "kv_timeouts": self.kv_timeouts,
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_bytes": self.checkpoint_bytes,
            "recoveries": self.recoveries,
            "rounds_replayed": self.rounds_replayed,
            "crashes_fired": [list(item) for item in fired],
            "crashes_pending": [list(item) for item in pending],
        }


def install_faults(cluster: "Cluster", plan: FaultPlan) -> FaultInjector:
    """Attach a fault injector to a cluster (and its network)."""
    if cluster.faults is not None:
        raise RuntimeError("cluster already has a fault injector installed")
    injector = FaultInjector(plan, cluster)
    cluster.faults = injector
    cluster.network.faults = injector
    return injector
