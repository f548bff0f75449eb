"""Round-granularity checkpointing and restore-and-replay recovery.

Checkpoints follow Distributed GraphLab's synchronous snapshot story: at a
round boundary (reductions drained, no phase open) every host serializes
its shard of each registered node-property map and ships it to a buddy
host - one hop right on the ring - modeling replicated snapshot storage.
Both the serialization work (``local_ops`` per value slot) and the bytes
cross the existing counters, so checkpoints are priced by the same cost
model as everything else and show up as attributed ``checkpoint`` phases
in traces.

Recovery is the mirror image: every host rolls back to the last snapshot
(deserialize cost), the crashed host additionally refetches its shard
from its buddy (bytes on the wire), and the loop replays from the
checkpointed round. Because the loop body is deterministic in map state,
replay converges to values identical to a fault-free run - the property
``repro.verify.check_equivalent_values`` pins down end-to-end.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.cluster.metrics import PhaseKind
from repro.faults.injector import FaultInjector
from repro.faults.plan import HostCrash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.core.propmap import NodePropMap

CHECKPOINT_KEY_BYTES = 8


@dataclass
class Checkpoint:
    """One snapshot: map states plus enough loop state to replay from it."""

    round: int  # cluster.current_round at capture time
    completed_rounds: int  # loop rounds completed at capture time
    map_states: list[dict]
    extra: Any  # loop-private state (e.g. PageRank's previous-ranks dict)
    host_nbytes: list[int]  # serialized size per host (for recovery pricing)
    host_slots: list[int]


class CheckpointManager:
    """Takes checkpoints of a set of maps and restores them after a crash."""

    def __init__(
        self,
        cluster: "Cluster",
        maps: Sequence["NodePropMap"],
        injector: FaultInjector,
        extra_snapshot: Callable[[], Any] | None = None,
        extra_restore: Callable[[Any], None] | None = None,
    ) -> None:
        self.cluster = cluster
        self.maps = list(maps)
        self.injector = injector
        self.extra_snapshot = extra_snapshot
        self.extra_restore = extra_restore
        self.interval = injector.plan.checkpoint_interval
        self._last: Checkpoint | None = None

    @property
    def last(self) -> Checkpoint | None:
        return self._last

    def due(self, completed_rounds: int) -> bool:
        """Periodic checkpoints: every ``interval`` completed rounds."""
        return self.interval > 0 and completed_rounds % self.interval == 0

    def take(self, completed_rounds: int) -> None:
        """Snapshot all registered maps; charge serialization and shipping."""
        cluster = self.cluster
        host_nbytes = [0] * cluster.num_hosts
        host_slots = [0] * cluster.num_hosts
        with cluster.phase(
            PhaseKind.CHECKPOINT, label="checkpoint", operator="checkpoint"
        ):
            for prop_map in self.maps:
                for host in range(cluster.num_hosts):
                    slots = prop_map.checkpoint_slots(host)
                    nbytes = slots * (CHECKPOINT_KEY_BYTES + prop_map.value_nbytes)
                    host_slots[host] += slots
                    host_nbytes[host] += nbytes
                    # Serialization: one pass over the live value slots.
                    cluster.counters(host).local_ops += slots
                    # Replicated snapshot storage: ship the shard to the
                    # ring buddy (a no-op charge on one-host clusters).
                    cluster.network.send(
                        host, (host + 1) % cluster.num_hosts, nbytes
                    )
        self._last = Checkpoint(
            round=cluster.current_round,
            completed_rounds=completed_rounds,
            map_states=[prop_map.checkpoint_state() for prop_map in self.maps],
            extra=(
                copy.deepcopy(self.extra_snapshot())
                if self.extra_snapshot is not None
                else None
            ),
            host_nbytes=host_nbytes,
            host_slots=host_slots,
        )
        self.injector.note_checkpoint(cluster.current_round, sum(host_nbytes))

    def recover(self, crash: HostCrash) -> int:
        """Roll back to the last checkpoint; returns the completed-round count
        to resume the loop from."""
        checkpoint = self._last
        if checkpoint is None:
            raise RuntimeError("no checkpoint to recover from")
        cluster = self.cluster
        refetched = checkpoint.host_nbytes[crash.host]
        with cluster.phase(
            PhaseKind.RECOVERY,
            label=f"recover:host{crash.host}",
            operator="recovery",
        ):
            # Every host rolls back: deserialize its shard of the snapshot.
            for host in range(cluster.num_hosts):
                cluster.counters(host).local_ops += checkpoint.host_slots[host]
            # The crashed host lost its state entirely: its shard comes
            # back over the wire from the buddy that holds the replica.
            cluster.network.send(
                (crash.host + 1) % cluster.num_hosts, crash.host, refetched
            )
        for prop_map, state in zip(self.maps, checkpoint.map_states):
            prop_map.restore_state(state)
        if self.extra_restore is not None:
            self.extra_restore(copy.deepcopy(checkpoint.extra))
        cluster.current_round = checkpoint.round
        self.injector.note_recovery(crash, checkpoint.completed_rounds, refetched)
        return checkpoint.completed_rounds
