"""Message accounting for the simulated interconnect.

Values move between hosts as ordinary Python data (the simulation is
in-process), so the network's only job is to *count*: every logical message
adds its size to the sender's and receiver's traffic cells in the current
phase. The cost model later prices a phase's traffic with an alpha-beta
model (latency per message + volume / bandwidth).
"""

from __future__ import annotations

from repro.cluster.metrics import OpenPhase


class Network:
    """Counts messages and bytes into the currently-open phase's cells."""

    def __init__(self, num_hosts: int) -> None:
        self.num_hosts = num_hosts
        self._phase: OpenPhase | None = None
        # Fault injection hook (repro.faults.install_faults); None keeps
        # the accounting below byte-identical to the fault-free model.
        self.faults = None

    def bind_phase(self, phase: OpenPhase | None) -> None:
        self._phase = phase

    def send(self, src: int, dst: int, nbytes: int) -> None:
        """Record one message of ``nbytes`` from ``src`` to ``dst``.

        Self-sends are free: data already on the host is not communicated,
        matching the paper's per-pair message accounting. With a fault
        injector installed, a drop charges the sender one full retransmit
        per dropped attempt (the value still arrives - this is a model)
        and a duplication charges the receiver one extra delivery.
        """
        if src == dst:
            return
        if self._phase is None:
            raise RuntimeError("network used outside of a phase")
        sender, receiver = self._phase.counters[src], self._phase.counters[dst]
        if self.faults is not None:
            drops, duplicates = self.faults.on_send(self._phase, src, dst, nbytes)
            if drops:
                sender.msgs_sent += drops
                sender.bytes_sent += nbytes * drops
            if duplicates:
                receiver.msgs_recv += duplicates
                receiver.bytes_recv += nbytes * duplicates
        sender.msgs_sent += 1
        sender.bytes_sent += nbytes
        receiver.msgs_recv += 1
        receiver.bytes_recv += nbytes

    def send_many(self, src: int, dst: int, nbytes_each: int, count: int) -> None:
        """Record ``count`` identical messages of ``nbytes_each``.

        Fault-free this is a single aggregated update, byte-identical to
        ``count`` calls of :meth:`send`. With a fault injector installed the
        per-send hook must observe every message, so it falls back to the
        scalar loop (keeping drop/duplication draws identical too).
        """
        if src == dst or count <= 0:
            return
        if self.faults is not None:
            for _ in range(count):
                self.send(src, dst, nbytes_each)
            return
        if self._phase is None:
            raise RuntimeError("network used outside of a phase")
        sender, receiver = self._phase.counters[src], self._phase.counters[dst]
        sender.msgs_sent += count
        sender.bytes_sent += nbytes_each * count
        receiver.msgs_recv += count
        receiver.bytes_recv += nbytes_each * count

    def allreduce(self, nbytes: int) -> None:
        """Record a small collective (e.g. the BoolReducer / IsUpdated vote).

        Modeled as a ring: every host sends one message of ``nbytes``.
        """
        for host in range(self.num_hosts):
            self.send(host, (host + 1) % self.num_hosts, nbytes)
