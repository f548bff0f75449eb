"""Pluggable execution engines: who owns the drive loop.

The :class:`~repro.exec.executor.Executor` owns kernel dispatch (scalar vs
bulk bodies, codegen, the host-shard pool endpoints); an :class:`Engine`
owns *when* those kernels run - round scheduling, convergence, quiesce,
checkpoint hooks. Two engines ship:

* :class:`BSPEngine` - the bulk-synchronous loop, extracted verbatim from
  the pre-engine ``Executor``: one pass over the plan's steps per round,
  sync collectives as barriers, ``run_recoverable_loop`` for
  checkpoint/recovery, the self-healing supervisor for ``jobs=N``. It is
  the byte-identity oracle: running through it produces bit-for-bit the
  same counters, traffic, modeled seconds and values as before the
  extraction, for every app x backend x jobs x fault plan.

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
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.cluster.metrics import PhaseKind
from repro.core.propmap import KEY_BYTES
from repro.exec.plan import (
    CmpFilter,
    EdgePush,
    OperatorStep,
    Plan,
    ResidualDecl,
    apply_value_filter,
)
from repro.exec.pool import HEALABLE_ERRORS
from repro.faults.recovery import run_recoverable_loop
from repro.runtime.engine import NonQuiescenceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.executor import Executor


class UnsupportedPlanError(ValueError):
    """The selected engine cannot execute this plan."""


class Engine:
    """The drive-loop interface: schedules a plan's kernels to completion.

    Engines borrow everything stateful from their executor (cluster, pool,
    compiled plans); they own only control flow. ``run`` executes a whole
    plan and returns completed rounds (0 for ``once`` plans); ``drive`` is
    the loop body re-entry point the host-shard pool uses to replay or
    resume a plan on worker processes.
    """

    name = "?"

    def __init__(self, executor: "Executor") -> None:
        self.executor = executor

    def run(self, plan: Plan) -> int:
        raise NotImplementedError

    def drive(self, plan: Plan, resume_rounds: int | None = None) -> int:
        raise NotImplementedError


class BSPEngine(Engine):
    """Today's bulk-synchronous loop, extracted unchanged from ``Executor``.

    Every method body here is a pure move: the byte-identity suites (bulk,
    parallel, chaos, codegen equivalence) pass unmodified against it, and
    ``--engine bsp`` reports are ``cmp``-equal to pre-refactor output.
    """

    name = "bsp"

    def run(self, plan: Plan) -> int:
        """Execute a plan; returns completed rounds (0 for ``once`` plans)."""
        executor = self.executor
        pool = executor._ensure_pool(plan)
        # pool.active means this is a nested run launched from a HostStep
        # of an in-flight parallel run: it replays replicated on every
        # process (the outer run's replay reaches this same call), so it
        # must not re-frame the epoch protocol.
        if pool is not None and not pool.active and pool.begin_run(plan):
            # The worker group is persistent and warm: begin_run reuses the
            # forked workers when they already know this plan (epoch blob
            # resynchronizes their state), reforks when they cannot (new
            # plan: kernels close over lambdas and only fork inheritance
            # ships them), and end_run parks them for the next run.
            failed = True
            try:
                rounds = self.drive(plan)
                failed = False
                return rounds
            finally:
                pool.end_run(failed)
        return self.drive(plan)

    def drive(self, plan: Plan, resume_rounds: int | None = None) -> int:
        """The plan loop proper, replayed identically by every process of
        a parallel run (the pool endpoint decides shard vs replicated work
        per phase inside ``Executor._run_operator``). ``resume_rounds``
        re-enters an in-flight loop on a heal-time replacement worker (see
        :meth:`HostShardPool.heal`)."""
        executor = self.executor
        if plan.once:
            executor.cluster.loop_rounds = 0
            self._guarded_round(plan)
            return 0
        quiesce = tuple(plan.quiesce)
        maps = tuple(plan.maps) if plan.maps else quiesce

        def before_round() -> None:
            for prop in quiesce:
                prop.reset_updated()

        def converged() -> bool:
            if quiesce and not any(prop.is_updated() for prop in quiesce):
                return True
            if plan.converged is not None:
                return bool(plan.converged())
            return False

        on_max_rounds = None
        if plan.raise_on_max_rounds:
            names = [prop.name for prop in (quiesce or maps)]
            loop_label = plan.loop_label

            def on_max_rounds(rounds: int) -> Exception:
                return NonQuiescenceError(rounds, names, loop=loop_label)

        return run_recoverable_loop(
            executor.cluster,
            list(maps),
            lambda: self._guarded_round(plan),
            converged=converged,
            before_round=before_round,
            max_rounds=plan.max_rounds,
            advance_rounds=plan.advance_rounds,
            extra_snapshot=plan.extra_snapshot,
            extra_restore=plan.extra_restore,
            on_max_rounds=on_max_rounds,
            resume_rounds=resume_rounds,
        )

    def _guarded_round(self, plan: Plan) -> None:
        """One round, wrapped in the self-healing supervisor when it is on.

        The coordinator snapshots the round-start state, runs the round,
        and on a healable failure (:data:`~repro.exec.pool.HEALABLE_ERRORS`)
        asks the pool to heal - reap the group, roll back to the snapshot,
        re-fork or reshard - then retries the round. When resharding
        degrades the pool to a single shard the retry runs serially, which
        is the ``jobs=1`` oracle. Workers never guard (the coordinator
        replaces the whole group); with healing off this is exactly
        ``run_round``.
        """
        executor = self.executor
        pool = executor._pool
        if (
            pool is None
            or pool.is_worker
            or not pool.healing
            or not pool.active
            or pool._guard_depth
        ):
            executor.run_round(plan)
            return
        pool._guard_depth += 1
        try:
            snapshot = pool.snapshot_round(plan)
            while True:
                try:
                    executor.run_round(plan)
                    return
                except HEALABLE_ERRORS as err:
                    pool.heal(err, plan, snapshot)
                    if not pool.active:
                        # Degraded to the serial path mid-run: finish this
                        # round (and the rest of the loop) as jobs=1.
                        executor.run_round(plan)
                        return
        finally:
            pool._guard_depth = 0


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
    of the plan.

    ``once`` plans (warm-ups, host-driven phase groups) delegate to the
    BSP engine unchanged; loop plans must carry a
    :class:`~repro.exec.plan.ResidualDecl` on their ``EdgePush`` kernel.
    """

    name = "async"

    def __init__(self, executor: "Executor", chunk_size: int = 64) -> None:
        super().__init__(executor)
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = int(chunk_size)
        self._bsp = BSPEngine(executor)
        # Updates-to-convergence instrumentation for the engine-comparison
        # bench: node applies (processed pops) and chunks of the last run.
        self.last_updates = 0
        self.last_chunks = 0

    # ------------------------------------------------------------ dispatch

    def run(self, plan: Plan) -> int:
        if plan.once:
            # Warm-ups and per-round phase groups are one-shot BSP phase
            # sequences; there is no loop for the async scheduler to own.
            return self._bsp.run(plan)
        if self.executor.cluster.faults is not None:
            raise UnsupportedPlanError(
                "the async engine does not run under fault injection; "
                "checkpoint/recovery is round-structured (use engine='bsp')"
            )
        kernel = self._residual_kernel(plan)
        decl = kernel.residual
        value_map = decl.value if decl.value is not None else kernel.target
        if not value_map.variant.uses_gar:
            raise UnsupportedPlanError(
                f"async execution needs the GAR master layout; map "
                f"{value_map.name!r} uses variant {value_map.variant.label!r}"
            )
        if decl.mode == "monotone":
            return self._run_monotone(plan, kernel, decl)
        return self._run_accumulate(plan, kernel, decl)

    def drive(self, plan: Plan, resume_rounds: int | None = None) -> int:
        # Worker replay is a BSP-pool concern; the async engine never forks.
        return self._bsp.drive(plan, resume_rounds)

    def _residual_kernel(self, plan: Plan) -> EdgePush:
        for step in plan.steps:
            if isinstance(step, OperatorStep) and isinstance(
                step.operator.kernel, EdgePush
            ):
                if step.operator.kernel.residual is not None:
                    return step.operator.kernel
        raise UnsupportedPlanError(
            f"plan {plan.name!r} declares no residual on any EdgePush "
            "kernel; only residual-declared plans can run asynchronously "
            "(see ResidualDecl / 'repro plan --json')"
        )

    # ----------------------------------------------------------- machinery

    def _operator_label(self, plan: Plan, kernel: EdgePush) -> str:
        for step in plan.steps:
            if isinstance(step, OperatorStep) and step.operator.kernel is kernel:
                return step.operator.label
        return plan.name

    def _chunk_phase(self, plan: Plan, operator: str):
        return self.executor.cluster.phase(
            PhaseKind.ASYNC_COMPUTE,
            label=f"{plan.name}:chunk",
            operator=operator,
        )

    def _pop_chunk(
        self,
        heap: list[tuple[float, int]],
        priority: np.ndarray,
        owner: np.ndarray,
    ) -> list[int]:
        """Up to ``chunk_size`` live (non-stale) nodes, highest residual
        first, re-serialized by (owner host, node id) for the apply order."""
        nodes: list[int] = []
        while heap and len(nodes) < self.chunk_size:
            neg, node = heapq.heappop(heap)
            # Lazy deletion: an entry is live only while it matches the
            # node's current priority; superseded entries are skipped.
            if -neg == priority[node] and priority[node] > 0.0:
                priority[node] = 0.0
                nodes.append(node)
        nodes.sort(key=lambda n: (int(owner[n]), n))
        return nodes

    def _finish(
        self,
        plan: Plan,
        operator: str,
        value_map,
        values: np.ndarray,
        chunks: int,
    ) -> int:
        """Materialize the final values into the map's masters (one last
        barrier-free phase) so ``snapshot()`` sees the async fixed point."""
        executor = self.executor
        cluster = executor.cluster
        pgraph = plan.pgraph
        with cluster.phase(
            PhaseKind.ASYNC_COMPUTE,
            label=f"{plan.name}:materialize",
            operator=operator,
        ) as record:
            record.chunk = chunks
            for host in range(cluster.num_hosts):
                keys = pgraph.parts[host].masters_global
                if keys.size == 0:
                    continue
                cluster.counters(host).materialize_ops += int(keys.size)
                value_map._set_bulk(host, keys, values[keys])
        self.last_chunks = chunks + 1
        # Rounds in the result schema mean "scheduler steps": chunks here.
        return chunks + 1

    # ------------------------------------------------- monotone (SSSP, CC)

    def _run_monotone(self, plan: Plan, kernel: EdgePush, decl: ResidualDecl) -> int:
        """Label-correcting relaxation: values improve monotonically under
        the kernel's reducer, residual = size of the last improvement."""
        executor = self.executor
        cluster = executor.cluster
        pgraph = plan.pgraph
        graph = pgraph.graph
        owner = pgraph.owner
        indptr, indices = graph.indptr, graph.indices
        weights = graph.weights
        op = kernel.op
        target = kernel.target
        values = np.array(target.snapshot_array(), copy=True)
        num_nodes = int(values.size)
        # Initial frontier: every node whose value is pushable. Residuals
        # start at +inf (nothing has been processed yet); ties and equal
        # priorities break by node id via the heap tuple. A declarative
        # value filter (CmpFilter) seeds the frontier as one compiled
        # mask over the whole value array; an opaque callable keeps the
        # per-node probe (its scalar contract is all we may assume).
        priority = np.zeros(num_nodes, dtype=np.float64)
        vf = kernel.value_filter
        if vf is None or isinstance(vf, CmpFilter):
            if vf is None:
                seed = np.arange(num_nodes, dtype=np.int64)
            else:
                all_nodes = np.arange(num_nodes, dtype=np.int64)
                keep = np.asarray(apply_value_filter(vf, values, all_nodes))
                seed = np.flatnonzero(keep)
            priority[seed] = np.inf
            heap: list[tuple[float, int]] = [
                (-np.inf, int(node)) for node in seed
            ]
        else:
            heap = []
            for node in range(num_nodes):
                if not bool(vf(values[node])):
                    continue
                priority[node] = np.inf
                heap.append((-np.inf, node))
        heapq.heapify(heap)
        self.last_updates = 0
        chunks = 0
        while heap:
            nodes = self._pop_chunk(heap, priority, owner)
            if not nodes:
                break
            with self._chunk_phase(
                plan, self._operator_label(plan, kernel)
            ) as record:
                record.chunk = chunks
                for u in nodes:
                    host = int(owner[u])
                    counters = cluster.counters(host)
                    counters.node_iters += 1
                    if kernel.charge_per_source:
                        counters.local_ops += kernel.charge_per_source
                    self.last_updates += 1
                    value = values[u]
                    # Per-pop, not chunk-prefiltered: values improve
                    # mid-chunk (vertex consistency), so a node failing
                    # the filter at chunk start can pass by its pop.
                    if kernel.value_filter is not None and not bool(
                        apply_value_filter(kernel.value_filter, value, u)
                    ):
                        continue
                    for edge in range(int(indptr[u]), int(indptr[u + 1])):
                        counters.edge_iters += 1
                        if kernel.charge_per_edge:
                            counters.local_ops += kernel.charge_per_edge
                        dst = int(indices[edge])
                        if kernel.edge_filter is not None and not bool(
                            kernel.edge_filter(u, dst)
                        ):
                            continue
                        candidate = value
                        if kernel.with_weight == "add":
                            weight = (
                                1.0
                                if kernel.unit_weights or weights is None
                                else float(weights[edge])
                            )
                            candidate = value + weight
                        old = values[dst]
                        new = op(old, candidate)
                        if new == old:
                            continue
                        # The apply happens at the destination's owner;
                        # a foreign improvement is one eager message.
                        dst_owner = int(owner[dst])
                        counters.reduce_calls += 1
                        if dst_owner != host:
                            cluster.network.send(
                                host,
                                dst_owner,
                                KEY_BYTES + target.value_nbytes,
                            )
                        cluster.counters(dst_owner).local_ops += 1
                        values[dst] = new
                        gain = float(abs(old - new)) if old != np.inf else np.inf
                        if gain > priority[dst]:
                            priority[dst] = gain
                            heapq.heappush(heap, (-gain, dst))
            chunks += 1
        return self._finish(
            plan, self._operator_label(plan, kernel), target, values, chunks
        )

    # ------------------------------------------------ accumulate (PageRank)

    def _run_accumulate(
        self, plan: Plan, kernel: EdgePush, decl: ResidualDecl
    ) -> int:
        """Delta-style mass propagation: processing a node folds its
        residual into its value and pushes ``transform(residual, node)``
        along each out-edge; zero-out-degree mass pools and is flushed
        uniformly. Stops when the remaining residual mass (queue + pool)
        falls below ``decl.tolerance``."""
        executor = self.executor
        cluster = executor.cluster
        pgraph = plan.pgraph
        graph = pgraph.graph
        owner = pgraph.owner
        indptr, indices = graph.indptr, graph.indices
        value_map = decl.value
        num_nodes = pgraph.num_nodes
        all_nodes = np.arange(num_nodes, dtype=np.int64)
        values = np.asarray(decl.init_value(all_nodes), dtype=np.float64).copy()
        residual = np.asarray(
            decl.init_residual(all_nodes), dtype=np.float64
        ).copy()
        degrees = np.diff(indptr)
        # Below this per-node residual a node is not worth scheduling: the
        # unscheduled leftover across all nodes stays under the tolerance.
        threshold = decl.tolerance / max(num_nodes, 1)
        priority = np.zeros(num_nodes, dtype=np.float64)
        heap: list[tuple[float, int]] = []
        for node in range(num_nodes):
            if residual[node] > threshold:
                priority[node] = residual[node]
                heap.append((-residual[node], node))
        heapq.heapify(heap)
        pool_mass = 0.0
        label = self._operator_label(plan, kernel)
        self.last_updates = 0
        chunks = 0
        while True:
            nodes = self._pop_chunk(heap, priority, owner)
            if not nodes:
                # Queue drained: flush the dangling pool uniformly if it
                # still carries meaningful mass, else converge.
                if decl.dangling != "uniform" or pool_mass < decl.tolerance:
                    break
                with self._chunk_phase(plan, label) as record:
                    record.chunk = chunks
                    share = pool_mass / max(num_nodes, 1)
                    pool_mass = 0.0
                    residual += share
                    for host in range(cluster.num_hosts):
                        masters = pgraph.parts[host].masters_global
                        cluster.counters(host).local_ops += int(masters.size)
                    for node in np.flatnonzero(residual > threshold).tolist():
                        if residual[node] > priority[node]:
                            priority[node] = residual[node]
                            heapq.heappush(heap, (-residual[node], node))
                chunks += 1
                continue
            with self._chunk_phase(plan, label) as record:
                record.chunk = chunks
                for u in nodes:
                    mass = residual[u]
                    residual[u] = 0.0
                    if mass <= 0.0:
                        continue
                    host = int(owner[u])
                    counters = cluster.counters(host)
                    counters.node_iters += 1
                    if kernel.charge_per_source:
                        counters.local_ops += kernel.charge_per_source
                    self.last_updates += 1
                    values[u] += mass
                    if degrees[u] == 0:
                        if decl.dangling == "uniform":
                            pool_mass += decl.dangling_scale * mass
                        continue
                    if kernel.transform is not None:
                        push = float(
                            np.asarray(
                                kernel.transform(
                                    np.asarray([mass]),
                                    np.asarray([u], dtype=np.int64),
                                )
                            )[0]
                        )
                    else:
                        push = mass
                    for edge in range(int(indptr[u]), int(indptr[u + 1])):
                        counters.edge_iters += 1
                        if kernel.charge_per_edge:
                            counters.local_ops += kernel.charge_per_edge
                        dst = int(indices[edge])
                        dst_owner = int(owner[dst])
                        counters.reduce_calls += 1
                        if dst_owner != host:
                            cluster.network.send(
                                host,
                                dst_owner,
                                KEY_BYTES + value_map.value_nbytes,
                            )
                        cluster.counters(dst_owner).local_ops += 1
                        residual[dst] += push
                        if (
                            residual[dst] > threshold
                            and residual[dst] > priority[dst]
                        ):
                            priority[dst] = residual[dst]
                            heapq.heappush(heap, (-residual[dst], dst))
            chunks += 1
        return self._finish(plan, label, value_map, values, chunks)


ENGINES = ("bsp", "async")


def make_engine(executor: "Executor", name: str, **options: Any) -> Engine:
    """Resolve an engine by name for an executor."""
    if name == "bsp":
        return BSPEngine(executor)
    if name == "async":
        return AsyncEngine(executor, **options)
    raise ValueError(f"unknown engine {name!r}; have {ENGINES}")


__all__ = [
    "Engine",
    "BSPEngine",
    "AsyncEngine",
    "UnsupportedPlanError",
    "ENGINES",
    "make_engine",
]
