"""Pluggable execution engines: who owns the drive loop.

The :class:`~repro.exec.executor.Executor` owns kernel dispatch (scalar vs
bulk bodies, codegen, the host-shard pool endpoints); an :class:`Engine`
owns *when* those kernels run - round scheduling, convergence, quiesce,
checkpoint hooks. Two engines ship:

* :class:`BSPEngine` - the bulk-synchronous loop and the only loop driver
  there is: every iteration loop in the package is a plan it drives. One
  pass over the plan's steps per round, sync collectives as barriers,
  and - with a fault injector installed - checkpoints at round boundaries
  and restore-and-replay on an injected crash. It is the byte-identity
  oracle of the conformance table.

* :class:`AsyncEngine` - GraphLab-style vertex-consistency execution with
  priority/delta scheduling: a per-node residual priority queue, the
  highest-residual nodes processed first in configurable chunk sizes, no
  global barrier, eager cross-host update messages, and owner-serialized
  apply order inside each chunk so runs are deterministic. Plans opt in
  by declaring :class:`~repro.exec.plan.ResidualDecl` on their
  :class:`~repro.exec.plan.EdgePush` kernel; async results are
  verified by value-equivalence (``verify.check_equivalent_values``)
  against the BSP oracle, not byte-identity - chunk scheduling visits a
  different update order than rounds do.

The async engine is the quantitative answer to the paper's Section 4.1
rejection of asynchrony: ``benchmarks/bench_engine_comparison.py`` runs
both engines on PR/SSSP/CC-LP across all four partitioning policies and
reports updates-to-convergence and modeled seconds side by side.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.cluster.metrics import PhaseKind
from repro.core.propmap import KEY_BYTES
from repro.core.reducers import MIN
from repro.exec.codegen import ENTRY_PLAN, ENTRY_UNTIL
from repro.exec.plan import (
    CmpFilter,
    EdgePush,
    Operator,
    OperatorStep,
    Plan,
    ResidualDecl,
    apply_value_filter,
    walk_plans,
)
from repro.faults.checkpoint import CheckpointManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.executor import Executor


class UnsupportedPlanError(ValueError):
    """The selected engine cannot execute this plan."""


class NonQuiescenceError(RuntimeError):
    """A loop hit its ``max_rounds`` cap without converging.

    Carries the rounds (an outer loop's: iterations) executed and the
    names of the maps that kept updating, so ``eval.harness`` can record
    the failure as a structured run outcome (like the paper's OOM cells)
    instead of crashing.
    """

    def __init__(self, rounds: int, map_names: Sequence[str], loop: str = "KimbapWhile") -> None:
        names = ", ".join(map_names) or "<none>"
        super().__init__(
            f"{loop} did not quiesce in {rounds} rounds (maps: {names})"
        )
        self.rounds = rounds
        self.map_names = list(map_names)
        self.loop = loop


def _stuck(plan: Plan, rounds: int) -> NonQuiescenceError:
    names = [prop.name for prop in plan.quiesce or plan.maps]
    return NonQuiescenceError(rounds, names, loop=plan.loop_label)


class Engine:
    """The drive-loop interface: schedules a plan's kernels to completion.

    Engines borrow everything stateful from their executor (cluster, pool,
    compiled plans); they own only control flow. ``run`` executes a whole
    plan and returns its completed rounds; ``drive`` runs one plan of the
    tree under its pins - an outer loop here, recursing through ``drive``
    into its sub-plans, a round loop in the engine's ``_round_loop`` - and
    is what host-shard pool workers replay.
    """

    name = "?"

    def __init__(self, executor: "Executor") -> None:
        self.executor = executor

    def run(self, plan: Plan) -> int:
        raise NotImplementedError

    def drive(self, plan: Plan) -> int:
        for prop, invariant in plan.pins.items():
            prop.pin_mirrors(invariant=invariant)
        try:
            if plan.is_outer:
                return self._outer_loop(plan)
            return self._round_loop(plan)
        finally:
            for prop in plan.pins:
                prop.unpin_mirrors()

    def _outer_loop(self, plan: Plan) -> int:
        """Iterate an outer loop's steps until an ``Until`` fires (once
        when it has none). Iterations are not rounds: no round counter,
        checkpoint or crash poll - only sub-plans' rounds count, and each
        sub-plan's own loop takes its checkpoints."""
        executor = self.executor
        entries = executor.compiled(plan).entries
        loops = any(tag == ENTRY_UNTIL for tag, _ in entries)
        rounds = 0
        for _ in range(plan.max_rounds if loops else 1):
            for tag, payload in entries:
                if tag == ENTRY_PLAN:
                    rounds += self.drive(payload)
                elif tag == ENTRY_UNTIL:
                    if payload():
                        return rounds
                else:
                    executor.run_entry(plan.pgraph, tag, payload)
        if loops and plan.raise_on_max_rounds:
            raise _stuck(plan, plan.max_rounds)
        return rounds


class BSPEngine(Engine):
    """The bulk-synchronous loop: the one driver of every plan loop.

    Every byte-identity cell of the conformance table
    (``tests/test_conformance.py``) runs through it.
    """

    name = "bsp"

    def run(self, plan: Plan) -> int:
        """Execute a whole plan tree; returns its completed rounds."""
        executor = self.executor
        pool = executor._ensure_pool(plan)
        # pool.active means this is a nested run launched from a HostStep
        # of an in-flight parallel run: it replays replicated on every
        # process (the outer run's replay reaches this same call), so it
        # must not fork a group of its own.
        if pool is not None and not pool.active and pool.begin_run(plan):
            # A sharded run is one fork: begin_run forks the worker group
            # from the coordinator's current state (kernels close over
            # lambdas and only fork inheritance ships them - and the state
            # with them), end_run reaps it.
            failed = True
            try:
                rounds = self.drive(plan)
                failed = False
                return rounds
            finally:
                pool.end_run(failed)
        return self.drive(plan)

    def _round_loop(self, plan: Plan) -> int:
        """The round loop proper, replayed identically by every process of
        a parallel run (the pool endpoint decides shard vs replicated work
        per phase inside ``Executor._run_compiled_operator``).

        Each round resets the ``quiesce`` maps' updated flags, advances the
        cluster's round counter (so every phase carries its BSP round id),
        runs the plan's steps, and stops on quiescence or ``converged()``.
        Without a fault injector that is all. With one, the loop takes an
        entry checkpoint before the first round (so any crash is
        recoverable) and periodic ones every ``checkpoint_interval``
        completed rounds; on an injected crash at a round boundary it
        restores ``maps`` (and ``extra_restore``'s loop-private state),
        rolls the round counter back and replays. Replay determinism is
        the contract: a round is a pure function of the registered maps
        plus the captured extra state, so recovered values equal the
        fault-free ones.
        """
        if plan.max_rounds <= 0:
            return 0
        executor = self.executor
        cluster = executor.cluster
        quiesce = tuple(plan.quiesce)
        maps = tuple(plan.maps) if plan.maps else quiesce
        injector = cluster.faults
        manager = None
        if injector is not None and (
            injector.plan.crashes or injector.plan.checkpoint_interval > 0
        ):
            manager = CheckpointManager(
                cluster,
                maps,
                injector,
                extra_snapshot=plan.extra_snapshot,
                extra_restore=plan.extra_restore,
            )
            manager.take(0)
        rounds = 0
        while rounds < plan.max_rounds:
            for prop in quiesce:
                prop.reset_updated()
            cluster.advance_round()
            if manager is not None:
                crash = injector.crash_at(cluster.current_round)
                if crash is not None:
                    # The state mutated since the last boundary is
                    # discarded by the restore; replay re-runs it.
                    rounds = manager.recover(crash)
                    continue
            executor.run_round(plan)
            rounds += 1
            if quiesce and not any(prop.is_updated() for prop in quiesce):
                return rounds
            if plan.converged is not None and plan.converged():
                return rounds
            if rounds < plan.max_rounds and manager is not None and manager.due(rounds):
                manager.take(rounds)
        if plan.raise_on_max_rounds:
            raise _stuck(plan, rounds)
        return rounds


class AsyncEngine(Engine):
    """Priority/delta asynchronous execution (Distributed GraphLab style).

    Highest-residual-first: a global priority queue over node residuals,
    popped in chunks of ``chunk_size``; each chunk opens one barrier-free
    ``ASYNC_COMPUTE`` phase whose updates apply immediately (later nodes
    of the same chunk see earlier nodes' writes - vertex consistency).
    Cross-host updates send one eager message each, priced by the cost
    model with communication overlapped behind compute (no sync phases
    exist at all). Inside a chunk, applies are serialized by owner host
    (then node id) and ties break by node id, so a run is a pure function
    of the plan - and its report a byte contract of its own
    (``tests/test_engine_async.py`` pins the digests), which is why the
    chunk loop stays a scalar loop and meters per chunk, not per edge
    (:class:`_ChunkSchedule`).

    An outer loop's own steps (a warm-up, say) run as BSP does; each round
    loop of the plan must carry a
    :class:`~repro.exec.plan.ResidualDecl` on its ``EdgePush`` kernel,
    and a monotone one must reduce with ``MIN``, which the relax loop
    applies inline. :meth:`run` refuses a plan before any step runs.
    """

    name = "async"

    def __init__(self, executor: "Executor", chunk_size: int = 64) -> None:
        super().__init__(executor)
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = int(chunk_size)
        # Updates-to-convergence instrumentation for the engine-comparison
        # bench: node applies (processed pops) and chunks of the last run.
        self.last_updates = 0
        self.last_chunks = 0

    # ------------------------------------------------------------ dispatch

    def run(self, plan: Plan) -> int:
        if self.executor.cluster.faults is not None:
            raise UnsupportedPlanError(
                "the async engine does not run under fault injection; "
                "checkpoint/recovery is round-structured (use engine='bsp')"
            )
        for loop in walk_plans(plan):
            if not loop.is_outer:
                self._scheduled(loop)
        return self.drive(plan)

    def _scheduled(self, plan: Plan) -> tuple[Operator, ResidualDecl, Any]:
        """The residual operator, its declaration and the value map of a
        round loop the async scheduler can run; refuses any other."""
        operator = self._residual_operator(plan)
        decl = operator.kernel.residual
        value_map = decl.value if decl.value is not None else operator.kernel.target
        if not value_map.variant.uses_gar:
            raise UnsupportedPlanError(
                f"async execution needs the GAR master layout; map "
                f"{value_map.name!r} uses variant {value_map.variant.label!r}"
            )
        if decl.mode == "monotone" and operator.kernel.op.name != MIN.name:
            raise UnsupportedPlanError(
                f"monotone async execution relaxes with MIN; plan "
                f"{plan.name!r} reduces with {operator.kernel.op.name!r}"
            )
        return operator, decl, value_map

    def _round_loop(self, plan: Plan) -> int:
        operator, decl, value_map = self._scheduled(plan)
        chunk = _ChunkSchedule(self, plan, operator.label, value_map)
        if decl.mode == "monotone":
            values = self._run_monotone(chunk, operator.kernel)
        else:
            values = self._run_accumulate(chunk, operator.kernel, decl)
        return self._finish(chunk, value_map, values)

    def _residual_operator(self, plan: Plan) -> Operator:
        for step in plan.steps:
            if isinstance(step, OperatorStep) and isinstance(
                step.operator.kernel, EdgePush
            ):
                if step.operator.kernel.residual is not None:
                    return step.operator
        raise UnsupportedPlanError(
            f"plan {plan.name!r} declares no residual on any EdgePush "
            "kernel; only residual-declared plans can run asynchronously "
            "(see ResidualDecl / 'repro plan --json')"
        )

    def _finish(self, chunk: "_ChunkSchedule", value_map, values: np.ndarray) -> int:
        """Materialize the final values into the map's masters (one last
        barrier-free phase) so ``snapshot()`` sees the async fixed point."""
        cluster, plan = chunk.cluster, chunk.plan
        with cluster.phase(
            PhaseKind.ASYNC_COMPUTE,
            label=f"{plan.name}:materialize",
            operator=chunk.operator,
        ) as record:
            record.chunk = chunk.opened
            for host in range(cluster.num_hosts):
                keys = plan.pgraph.parts[host].masters_global
                if keys.size == 0:
                    continue
                cluster.counters(host).materialize_ops += int(keys.size)
                value_map._set_bulk(host, keys, values[keys])
        self.last_updates = chunk.updates
        # Rounds in the result schema mean "scheduler steps": chunks here.
        self.last_chunks = chunk.opened + 1
        return self.last_chunks

    # ------------------------------------------------- monotone (SSSP, CC)

    def _run_monotone(self, chunk: "_ChunkSchedule", kernel: EdgePush) -> np.ndarray:
        """Label-correcting relaxation: values improve monotonically under
        ``MIN`` (applied inline, see :meth:`run`), residual = size of the
        last improvement."""
        typed = np.array(kernel.target.snapshot_array(), copy=True)
        num_nodes = int(typed.size)
        # Initial frontier: every node whose value is pushable. Residuals
        # start at +inf (nothing has been processed yet); ties and equal
        # priorities break by node id via the heap tuple. A declarative
        # value filter (CmpFilter) seeds the frontier as one compiled
        # mask over the whole value array; an opaque callable keeps the
        # per-node probe (its scalar contract is all we may assume).
        value_filter = kernel.value_filter
        if value_filter is None:
            seed = list(range(num_nodes))
        elif isinstance(value_filter, CmpFilter):
            all_nodes = np.arange(num_nodes, dtype=np.int64)
            keep = np.asarray(apply_value_filter(value_filter, typed, all_nodes))
            seed = np.flatnonzero(keep).tolist()
        else:
            seed = [node for node in range(num_nodes) if bool(value_filter(typed[node]))]
        # The mutated per-node columns run as Python lists from here on
        # (typed again only on return); Python's float/int arithmetic is
        # the IEEE/exact arithmetic the numpy scalars did.
        values = typed.tolist()
        heap, priority = chunk.schedule(num_nodes, [(np.inf, node) for node in seed])
        node_iters, edge_iters, local_ops, applies = chunk.tallies
        owner, indptr, indices = chunk.columns
        hosts = len(node_iters)
        edge_filter = kernel.edge_filter
        filtered = edge_filter is not None
        per_source, per_edge = kernel.charge_per_source, kernel.charge_per_edge
        weighted = kernel.with_weight == "add"
        weights = None if kernel.unit_weights else chunk.plan.pgraph.graph.weights
        if weights is not None:
            weights = memoryview(weights)
        push = heapq.heappush
        while heap:
            nodes = chunk.pop()
            if not nodes:
                break
            with chunk.phase():
                chunk.updates += len(nodes)
                for u in nodes:
                    host = owner[u]
                    node_iters[host] += 1
                    local_ops[host] += per_source
                    value = values[u]
                    # Per-pop, not chunk-prefiltered: values improve
                    # mid-chunk (vertex consistency), so a node failing
                    # the filter at chunk start can pass by its pop.
                    if value_filter is not None and not bool(
                        apply_value_filter(value_filter, value, u)
                    ):
                        continue
                    first, last = indptr[u], indptr[u + 1]
                    edge_iters[host] += last - first
                    local_ops[host] += per_edge * (last - first)
                    row = host * hosts
                    candidate = value
                    for edge in range(first, last):
                        dst = indices[edge]
                        if filtered and not bool(edge_filter(u, dst)):
                            continue
                        if weighted:
                            candidate = value + (
                                1.0 if weights is None else weights[edge]
                            )
                        # MIN inline: ``min(old, candidate) != old`` holds
                        # exactly when the candidate is smaller or ``old``
                        # is NaN (MIN keeps a NaN and still applies it).
                        old = values[dst]
                        if candidate < old:
                            # The apply happens at the destination's owner;
                            # a foreign improvement is one eager message.
                            applies[row + owner[dst]] += 1
                            values[dst] = candidate
                            # Never negative (candidate < old) and +inf
                            # when old is: the gain ``abs(old - new)`` was.
                            gain = old - candidate
                            if gain > priority[dst]:
                                priority[dst] = gain
                                push(heap, (-gain, dst))
                        elif old != old:
                            # The value stays NaN and so does its gain,
                            # which outranks no priority: nothing to push.
                            applies[row + owner[dst]] += 1
        return np.array(values, dtype=typed.dtype)

    # ------------------------------------------------ accumulate (PageRank)

    def _run_accumulate(
        self, chunk: "_ChunkSchedule", kernel: EdgePush, decl: ResidualDecl
    ) -> np.ndarray:
        """Delta-style mass propagation: processing a node folds its
        residual into its value and pushes ``transform(residual, node)``
        along each out-edge; zero-out-degree mass pools and is flushed
        uniformly. Stops when the remaining residual mass (queue + pool)
        falls below ``decl.tolerance``."""
        pgraph = chunk.plan.pgraph
        num_nodes = pgraph.num_nodes
        all_nodes = np.arange(num_nodes, dtype=np.int64)
        # Python lists for the mutated columns, as in _run_monotone.
        values = np.asarray(decl.init_value(all_nodes), dtype=np.float64).tolist()
        residual = np.asarray(
            decl.init_residual(all_nodes), dtype=np.float64
        ).tolist()
        # Below this per-node residual a node is not worth scheduling: the
        # unscheduled leftover across all nodes stays under the tolerance.
        threshold = decl.tolerance / max(num_nodes, 1)
        heap, priority = chunk.schedule(
            num_nodes,
            [(mass, node) for node, mass in enumerate(residual) if mass > threshold],
        )
        node_iters, edge_iters, local_ops, applies = chunk.tallies
        owner, indptr, indices = chunk.columns
        hosts = len(node_iters)
        transform = kernel.transform
        per_source, per_edge = kernel.charge_per_source, kernel.charge_per_edge
        uniform, dangling_scale = decl.dangling == "uniform", decl.dangling_scale
        push = heapq.heappush
        pool_mass = 0.0
        nodes = chunk.pop()
        while nodes or (uniform and not pool_mass < decl.tolerance):
            if not nodes:
                # Queue drained: flush the dangling pool uniformly while it
                # still carries meaningful mass, else converge.
                with chunk.phase():
                    share = pool_mass / max(num_nodes, 1)
                    pool_mass = 0.0
                    residual[:] = [mass + share for mass in residual]
                    for host in range(hosts):
                        masters = pgraph.parts[host].masters_global
                        local_ops[host] += int(masters.size)
                    for node, mass in enumerate(residual):
                        if mass > threshold and mass > priority[node]:
                            priority[node] = mass
                            push(heap, (-mass, node))
                nodes = chunk.pop()
                continue
            with chunk.phase():
                for u in nodes:
                    mass = residual[u]
                    residual[u] = 0.0
                    if mass <= 0.0:
                        continue
                    host = owner[u]
                    node_iters[host] += 1
                    local_ops[host] += per_source
                    chunk.updates += 1
                    values[u] += mass
                    first, last = indptr[u], indptr[u + 1]
                    if first == last:
                        if uniform:
                            pool_mass += dangling_scale * mass
                        continue
                    if transform is not None:
                        mass = float(
                            np.asarray(
                                transform(
                                    np.asarray([mass]),
                                    np.asarray([u], dtype=np.int64),
                                )
                            )[0]
                        )
                    edge_iters[host] += last - first
                    local_ops[host] += per_edge * (last - first)
                    row = host * hosts
                    for dst in indices[first:last]:
                        applies[row + owner[dst]] += 1
                        grown = residual[dst] + mass
                        residual[dst] = grown
                        if grown > threshold and grown > priority[dst]:
                            priority[dst] = grown
                            push(heap, (-grown, dst))
            nodes = chunk.pop()
        return np.array(values, dtype=np.float64)


class _ChunkSchedule:
    """What the two async modes share: the residual heap over the per-node
    ``priority`` column, and per-chunk tallied metering.

    Inside a chunk the modes count in plain integers - ``node_iters`` /
    ``edge_iters`` / ``local_ops`` per host, and one ``applies`` count per
    (source owner, destination owner) pair, because every apply is one
    ``reduce_calls`` at the source, one owner-side ``local_ops`` at the
    destination and, between two hosts, one eager message. :meth:`flush`
    writes the tallies into the chunk's phase once as its
    :meth:`phase` closes (one ``send_many`` per non-empty foreign pair);
    integer sums are exact, so the row equals what per-edge bumps
    produced. The read-only ``columns`` (owner, indptr, indices) are
    memoryviews: plain ints out, no per-element objects kept.
    """

    def __init__(self, engine: AsyncEngine, plan: Plan, operator: str, value_map) -> None:
        self.cluster = cluster = engine.executor.cluster
        self.plan = plan
        self.operator = operator
        self.chunk_size = engine.chunk_size
        self.message_bytes = KEY_BYTES + value_map.value_nbytes
        graph = plan.pgraph.graph
        self.columns = tuple(
            map(memoryview, (plan.pgraph.owner, graph.indptr, graph.indices))
        )
        hosts = cluster.num_hosts
        self.tallies = ([0] * hosts, [0] * hosts, [0] * hosts, [0] * hosts**2)
        # Chunk phases opened and node applies (processed pops) so far.
        self.opened = self.updates = 0

    def schedule(self, num_nodes: int, seeds: list[tuple[float, int]]):
        """The heap and priority column holding ``(residual, node)`` seeds;
        ties and equal priorities break by node id via the heap tuple."""
        self.priority = [0.0] * num_nodes
        for mass, node in seeds:
            self.priority[node] = mass
        self.heap = [(-mass, node) for mass, node in seeds]
        heapq.heapify(self.heap)
        return self.heap, self.priority

    def pop(self) -> list[int]:
        """Up to ``chunk_size`` live (non-stale) nodes, highest residual
        first, re-serialized by (owner host, node id) for the apply order -
        ascending node id, since ownership is blocked."""
        heap, priority = self.heap, self.priority
        room, pop = self.chunk_size, heapq.heappop
        nodes: list[int] = []
        while heap:
            neg, node = pop(heap)
            # Lazy deletion: an entry is live only while it matches the
            # node's current priority; superseded entries are skipped.
            live = priority[node]
            if -neg == live and live > 0.0:
                priority[node] = 0.0
                nodes.append(node)
                room -= 1
                if not room:
                    break
        nodes.sort()
        return nodes

    def phase(self) -> "_ChunkPhase":
        """One chunk's barrier-free phase; closing it flushes the tallies."""
        open_phase = self.cluster.phase(
            PhaseKind.ASYNC_COMPUTE,
            label=f"{self.plan.name}:chunk",
            operator=self.operator,
        )
        self.cluster.log.open.chunk = self.opened
        return _ChunkPhase(self, open_phase)

    def flush(self) -> None:
        """Write the chunk's tallies into its phase's cells and zero them."""
        node_iters, edge_iters, local_ops, applies = self.tallies
        hosts, send_many = len(node_iters), self.cluster.network.send_many
        for host, counters in enumerate(self.cluster.log.hosts):
            sent = applies[host * hosts : (host + 1) * hosts]
            counters.node_iters += node_iters[host]
            counters.edge_iters += edge_iters[host]
            counters.reduce_calls += sum(sent)
            counters.local_ops += local_ops[host] + sum(applies[host::hosts])
            for dst, count in enumerate(sent):
                if count and dst != host:
                    send_many(host, dst, self.message_bytes, count)
        for tally in self.tallies:
            tally[:] = [0] * len(tally)


class _ChunkPhase:
    """An open chunk phase (:meth:`_ChunkSchedule.phase`): exiting flushes
    the tallies and closes the phase, an exception's exit included - one
    small object, where a generator costs two resumes a chunk."""

    __slots__ = ("chunk", "open_phase")

    def __init__(self, chunk: _ChunkSchedule, open_phase) -> None:
        self.chunk = chunk
        self.open_phase = open_phase

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        try:
            self.chunk.flush()
        finally:
            self.open_phase.__exit__(*exc_info)
        self.chunk.opened += 1


ENGINES = ("bsp", "async")


def make_engine(executor: "Executor", name: str) -> Engine:
    """Resolve an engine by name for an executor."""
    if name == "bsp":
        return BSPEngine(executor)
    if name == "async":
        return AsyncEngine(executor)
    raise ValueError(f"unknown engine {name!r}; have {ENGINES}")


__all__ = [
    "Engine",
    "BSPEngine",
    "AsyncEngine",
    "UnsupportedPlanError",
    "NonQuiescenceError",
    "ENGINES",
    "make_engine",
]
