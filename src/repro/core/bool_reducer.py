"""The distributed boolean reducer of Figure 4 (``BoolReducer``).

Tracks a cluster-wide boolean with per-host local flags OR-combined at an
explicit ``sync()`` (one small allreduce), mirroring how the paper's
``work_done`` flag decides whether hook + shortcut must repeat.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import PhaseKind


class BoolReducer:
    """A (distributed) concurrent reducer for a boolean value."""

    def __init__(self, cluster: Cluster, name: str = "bool") -> None:
        self.cluster = cluster
        self.name = name
        self._flags = [False] * cluster.num_hosts
        self._value = False

    def set_all(self, value: bool) -> None:
        """Reset the global value and all host-local flags (no races: init)."""
        self._flags = [bool(value)] * self.cluster.num_hosts
        self._value = bool(value)

    def reduce(self, host: int, value: bool) -> None:
        """OR ``value`` into the host-local flag (logical_or reduction)."""
        self.cluster.counters(host).local_ops += 1
        self._flags[host] = self._flags[host] or bool(value)

    def reduce_count(self, host: int, hits: int) -> None:
        """``hits`` calls of ``reduce(host, True)`` at once."""
        if hits:
            self.cluster.counters(host).local_ops += hits
            self._flags[host] = True

    def sync(self) -> None:
        """Combine host flags into the global value (one-byte allreduce)."""
        with self.cluster.phase(PhaseKind.REDUCE_SYNC, label=self.name):
            self.cluster.network.allreduce(1)
            self._value = any(self._flags)

    def read(self) -> bool:
        return self._value
