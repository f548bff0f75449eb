"""Message accounting for the simulated interconnect.

Values move between hosts as ordinary Python data (the simulation is
in-process), so the network's only job is to *count*: every logical message
records its size against the sender's and receiver's totals in the current
phase. The cost model later prices a phase's traffic with an alpha-beta
model (latency per message + volume / bandwidth).
"""

from __future__ import annotations

from repro.cluster.metrics import PhaseRecord


class Network:
    """Counts messages and bytes against the currently-open phase record."""

    def __init__(self, num_hosts: int) -> None:
        self.num_hosts = num_hosts
        self._phase: PhaseRecord | None = None
        # Fault injection hook (repro.faults.install_faults); None keeps
        # the accounting below byte-identical to the fault-free model.
        self.faults = None

    def bind_phase(self, phase: PhaseRecord | None) -> None:
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
        if self.faults is not None:
            drops, duplicates = self.faults.on_send(self._phase, src, dst, nbytes)
            if drops:
                self._phase.msgs_sent[src] += drops
                self._phase.bytes_sent[src] += nbytes * drops
            if duplicates:
                self._phase.msgs_recv[dst] += duplicates
                self._phase.bytes_recv[dst] += nbytes * duplicates
        self._phase.msgs_sent[src] += 1
        self._phase.bytes_sent[src] += nbytes
        self._phase.msgs_recv[dst] += 1
        self._phase.bytes_recv[dst] += nbytes

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
        self._phase.msgs_sent[src] += count
        self._phase.bytes_sent[src] += nbytes_each * count
        self._phase.msgs_recv[dst] += count
        self._phase.bytes_recv[dst] += nbytes_each * count

    def allreduce(self, nbytes: int) -> None:
        """Record a small collective (e.g. the BoolReducer / IsUpdated vote).

        Modeled as a ring: every host sends one message of ``nbytes``.
        """
        for host in range(self.num_hosts):
            self.send(host, (host + 1) % self.num_hosts, nbytes)
