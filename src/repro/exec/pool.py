"""Host-shard parallel execution: the ``jobs=N`` executor backend.

The paper's whole execution model is BSP: per-host work inside a compute
phase is independent by construction, and hosts only exchange state at
the sync barriers. This module exploits exactly that structure to make
the *simulator's* wall clock scale with real cores while preserving the
byte-identity contract of the serial backends.

Design: **forked replicated state machines with a per-phase effect
exchange over the worker pipes - one fork per sharded run.**

* **A parallel run is a fork.** ``begin_run`` forks ``jobs - 1`` worker
  processes (POSIX ``fork``, copy-on-write) from the coordinator's
  current state and ``end_run`` reaps them: one fork per sharded run.
  Every process - coordinator included - replays the *identical* plan
  loop: host steps, resets, sync
  collectives, checkpoint/recovery, and fault-injection draws all run
  everywhere, so each process's replica of the cluster state evolves
  deterministically in lockstep. Fork-time inheritance is what makes
  this possible without pickling kernels or state: workers share every
  closure, graph array, and map with the coordinator at the fork point,
  so whatever driver code did between two runs (mirror pinning, value
  resets, reducer syncs) is simply there. Nothing is kept alive between
  runs and nothing is resynchronized (DESIGN.md, "Why a run is a fork").
  A run ends with one ``eor`` token per worker - including after
  exceptions, which abort cleanly.
* **One mechanism:** only *shardable compute phases* divide work. Each
  process drives ``par_for``/``run_hosted`` over its own contiguous host
  shard, then exchanges the phase's effects before anything else runs (a
  sync collective always follows a compute phase, so there is nothing to
  batch - DESIGN.md, "Why there is no fusion or deferral"). One flush
  ships, per worker, a single bundle: the per-host effect state of
  every carrier the phase touches, plus the phase's row of the metrics
  log sliced to the shard's counters and every host's traffic (one
  ``int64`` matrix each). That exchange
  (:meth:`HostShardPool.flush`) is the only one, and its coordinator and
  worker halves are the only place the fx token protocol is written:
  every sync collective is replayed whole by every process on its own
  replica (DESIGN.md, "Why the sync collectives are not sharded").
* The exchange rides the pipes that carry the run's tokens: each worker
  sends its bundle as one pickled ``fx`` message; the coordinator keeps
  the raw bytes and, after the merge, sends every worker its own ``fx``
  message followed by every other worker's bytes, forwarded verbatim,
  in index order (DESIGN.md, "Why the exchange is the pipe").
* The coordinator merges worker bundles **in worker order** - shards
  are contiguous ascending, so worker order IS host order and the
  merged phase rows are byte-identical to the serial visit. Phases
  that are not shardable simply run **replicated** on every process.

The coordinator's metrics log, counters, conflict counts, modeled
seconds, and trace rows therefore evolve exactly as a serial run's
would: the serial backend stays the oracle, and the conformance table
(``tests/test_conformance.py``) enforces ``RunResult.to_dict()``
byte-identity across ``jobs`` for every application. The collectives
are replicated, so a fault injector's draws and crash points replay
exactly as they did serially.

**A lost worker fails the run.** Every coordinator token wait polls the
pipe and the worker's exit code instead of blocking, so a dead worker
surfaces as :class:`WorkerDied`, a silent one as :class:`ExchangeTimeout`
and a disagreeing replica as :class:`ProtocolDivergence`, each naming the
worker, its host shard and the phase in flight. Nothing is rolled back or
re-forked (DESIGN.md, "Why the pool does not heal"); modeled faults are
the :mod:`repro.faults` layer's business.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import signal as _signal
import time
import traceback
from typing import TYPE_CHECKING, Any, Sequence

from repro.cluster.metrics import COUNTER_FIELDS, TRAFFIC_FIELDS, MetricsLog
from repro.core.reducers import NAMED_REDUCE_OPS, ReduceOp
from repro.exec.plan import Operator, OperatorStep, Plan, ScalarKernel, walk_plans

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.executor import Executor


def fork_available() -> bool:
    """Parallel execution needs POSIX fork (workers inherit closures)."""
    return "fork" in multiprocessing.get_all_start_methods()


def shard_hosts(num_hosts: int, shards: int) -> list[tuple[int, ...]]:
    """Contiguous balanced host shards, ascending.

    Shard ``s`` owns hosts ``[s*H//N, (s+1)*H//N)`` - the same closed-form
    dealing as the OpenMP-static thread chunks. The shard count clamps to
    the host count, so no shard is ever empty. Concatenating the shards
    in shard order yields ``0..H-1``, which is what lets the coordinator
    merge worker bundles in fixed host order by walking workers in index
    order.
    """
    shards = max(1, min(shards, num_hosts))
    return [
        tuple(range(s * num_hosts // shards, (s + 1) * num_hosts // shards))
        for s in range(shards)
    ]


class _RunAborted(Exception):
    """Raised inside a worker when the coordinator aborts the run."""


# ----------------------------------------------------- exception taxonomy


def _rebuild_pool_error(cls, args, state):
    """Unpickle helper: rebuild a PoolError with its context attributes
    (plain ``RuntimeError`` pickling would drop ``worker``/``shard``/
    ``phase``, and the eor path round-trips worker exceptions)."""
    err = cls.__new__(cls)
    RuntimeError.__init__(err, *args)
    err.__dict__.update(state)
    return err


class PoolError(RuntimeError):
    """A failure of the parallel exchange protocol or its substrate.

    Subclasses ``RuntimeError`` so pre-taxonomy callers keep working.
    Every instance carries the failing worker index, its host-shard
    range, and the phase label in flight, both as attributes and
    appended to the message.
    """

    def __init__(
        self,
        message: str,
        *,
        worker: int | None = None,
        shard: Sequence[int] | None = None,
        phase: str | None = None,
    ) -> None:
        context = []
        if worker is not None:
            context.append(f"worker {worker}")
        if shard:
            context.append(f"hosts {shard[0]}..{shard[-1]}")
        if phase:
            context.append(f"phase {phase!r}")
        if context:
            message = f"{message} [{', '.join(context)}]"
        super().__init__(message)
        self.worker = worker
        self.shard = tuple(shard) if shard is not None else None
        self.phase = phase

    def __reduce__(self):
        return (_rebuild_pool_error, (type(self), self.args, dict(self.__dict__)))


class WorkerDied(PoolError):
    """A worker process exited (signal, OOM kill, crash) mid-protocol."""


class ExchangeTimeout(PoolError):
    """A live worker sent nothing within the exchange deadline."""


class ProtocolDivergence(PoolError):
    """The replicated state machines disagreed (wrong token, phase-count
    mismatch)."""


# --------------------------------------------------------------- plan tables


def _effect_carrier(obj: Any) -> bool:
    return hasattr(obj, "export_compute_effects")


def _map_table(plan: Plan) -> dict[str, Any]:
    """Every effect carrier the plan names, keyed by name (identical on
    all processes: the table is built from the same plan object on the
    coordinator and, via fork inheritance, on every worker)."""
    table: dict[str, Any] = {}

    def put(obj: Any) -> None:
        if obj is not None and _effect_carrier(obj):
            table[obj.name] = obj

    for loop in walk_plans(plan):
        for step in loop.steps:
            if isinstance(step, OperatorStep):
                kernel = step.operator.kernel
                for field in dataclasses.fields(kernel):
                    put(getattr(kernel, field.name))
                for extra in getattr(kernel, "extra_effects", ()):
                    put(extra)
            else:
                put(getattr(step, "map", None))
        for prop in (*loop.quiesce, *loop.maps):
            put(prop)
    return table


def _op_table(plan: Plan) -> dict[str, ReduceOp]:
    """Reducers resolvable by name: the canonical registry plus every
    operator object the plan's kernels carry (covers algorithm-local
    custom reducers like Louvain's pair_sum)."""
    ops = dict(NAMED_REDUCE_OPS)
    for operator in _operators(plan):
        kernel = operator.kernel
        op = getattr(kernel, "op", None)
        if op is not None:
            ops[op.name] = op
        for extra in getattr(kernel, "ops", ()):
            ops[extra.name] = extra
    return ops


def _operators(plan: Plan):
    """Every operator of the plan tree: a jobs=N run is one fork per
    top-level plan, so its decision tables cover the nested loops too."""
    for loop in walk_plans(plan):
        for step in loop.steps:
            if isinstance(step, OperatorStep):
                yield step.operator


def _phase_carriers(
    operator: Operator, by_name: dict[str, Any], ops: dict[str, ReduceOp]
) -> list[Any] | None:
    """The effect carriers of one compute phase, or None when the phase
    must run replicated instead of sharded.

    The declarative kernel forms are shardable by construction: their
    only mutations are host-local and each form declares the carriers
    that take them (``effects()``: reductions into the target, a
    ``KeyRequest``'s request bits in the map it requests from, a
    ``NeighborReduceToKey``'s vote in its flag). A
    ``ScalarKernel`` is shardable when it declares itself host-local,
    every map it names resolves, and every reducer it writes with is
    resolvable by name across processes. Key-value-store maps are never
    shardable: their reductions hit shared server shards and the network
    immediately.
    """
    kernel = operator.kernel
    if isinstance(kernel, ScalarKernel):
        if not kernel.host_local:
            return None
        names: list[str] = []
        for name in kernel.read_names:
            if name not in names:
                names.append(name)
        for name, op_name in kernel.write_names:
            if name not in names:
                names.append(name)
            if op_name not in ops:
                return None
        carriers = []
        for name in names:
            carrier = by_name.get(name)
            if carrier is None:
                return None
            carriers.append(carrier)
        carriers.extend(kernel.extra_effects)
    else:
        carriers = kernel.effects()
    for carrier in carriers:
        variant = getattr(carrier, "variant", None)
        if variant is not None and variant.uses_kvstore:
            return None
    return carriers


# ------------------------------------------------------------- the endpoint


def _send_token(conn, *token: Any) -> None:
    conn.send_bytes(pickle.dumps(token, pickle.HIGHEST_PROTOCOL))


class HostShardPool:
    """The executor's process-group endpoint: coordinator in the parent,
    worker (same object, mutated post-fork) in each child. Construction
    only builds the decision tables; ``begin_run`` forks the workers of
    one run and ``end_run`` reaps them."""

    def __init__(self, executor: "Executor", plan: Plan, jobs: int) -> None:
        cluster = executor.cluster
        self.executor = executor
        self.num_hosts = cluster.num_hosts
        self.jobs = max(1, min(int(jobs), self.num_hosts))
        self.shards = shard_hosts(self.num_hosts, self.jobs)
        self.index = 0
        self.shard: Sequence[int] = self.shards[0]
        self.is_worker = False
        self.dead = False
        self.conn = None
        self.workers: list[tuple[Any, Any]] = []
        # The run's plan tree and its decision tables, which workers
        # inherit at fork time. Reducers resolvable by name accumulate
        # over every plan seen: a map can carry one into the next plan.
        self._ops: dict[str, ReduceOp] = {}
        self.load_plan(plan)
        # Exchange state.
        self._eor_seen: set[int] = set()
        self._seq = 0
        # Instrumentation.
        self.bytes_exchanged = 0
        self.forks = 0
        # Supervisor: the longest a coordinator waits on a live worker.
        self.exchange_timeout = 120.0
        self.diagnostics: list[str] = []
        self.deaths_detected = 0

    @property
    def active(self) -> bool:
        """Is a sharded run in flight in this process? Workers exist only
        for the length of one, and a worker is always inside one."""
        return self.is_worker or bool(self.workers)

    # -- the run's plan ----------------------------------------------------

    def load_plan(self, plan: Plan) -> None:
        """Make ``plan`` the one the next run drives: its carrier table
        covers every operator of the tree, nested loops included."""
        self.plan = plan
        self._ops.update(_op_table(plan))
        by_name = _map_table(plan)
        table: dict[int, list[Any] | None] = {
            id(operator): _phase_carriers(operator, by_name, self._ops)
            for operator in _operators(plan)
        }
        # The key-value-store (RuntimeVariant.MC) invariant: kv-backed
        # phases run REPLICATED on every process, never sharded. KvCas
        # reductions apply immediately against shared server shards -
        # conflict draws and the kv network accounting depend on the
        # global operation order, which host-sharding would change.
        # Replicated replay IS the correctness strategy, enforced here
        # so a future carrier-table change cannot silently shard a kv
        # phase.
        for carriers in table.values():
            if carriers is None:
                continue
            for carrier in carriers:
                variant = getattr(carrier, "variant", None)
                if variant is not None and variant.uses_kvstore:
                    raise AssertionError(
                        f"kvstore-backed map {carrier.name!r} in a "
                        "shardable phase: MC phases must stay replicated"
                    )
        self.table = table

    def has_shardable_phase(self) -> bool:
        return any(c is not None for c in self.table.values())

    def shardable(self, operator: Operator) -> bool:
        return self.table.get(id(operator)) is not None

    def resolve_op(self, map_name: str, op_name: str) -> ReduceOp:
        op = self._ops.get(op_name)
        if op is None:
            raise RuntimeError(
                f"reducer {op_name!r} for map {map_name!r} cannot be "
                "resolved across processes; declare the operator via "
                "ScalarKernel(ops=...) so the plan carries a live object"
            )
        return op

    # -- lifecycle: fork ---------------------------------------------------

    def fork_workers(self) -> None:
        """Fork one worker per extra shard; each inherits the coordinator's
        current state and drives the loaded plan from its start. The only
        way a worker ever comes to exist.

        If forking worker ``k`` fails midway, the already-started workers
        are reaped before the error propagates - a partial pool must not
        leak children.
        """
        self._eor_seen = set()
        ctx = multiprocessing.get_context("fork")
        pipes = [ctx.Pipe() for _ in self.shards[1:]]
        try:
            for index in range(1, len(self.shards)):
                process = self._make_process(ctx, index, pipes)
                process.start()
                self.workers.append((process, pipes[index - 1][0]))
        except BaseException:
            for process, _ in self.workers:
                process.terminate()
            for process, _ in self.workers:
                process.join(timeout=2)
                if process.is_alive():  # pragma: no cover - stuck child
                    process.kill()
                    process.join(timeout=2)
            self.workers = []
            for parent_end, child_end in pipes:
                for end in (parent_end, child_end):
                    try:
                        end.close()
                    except OSError:  # pragma: no cover
                        pass
            raise
        for _, child_end in pipes:
            child_end.close()
        self.forks += 1
        self.dead = False

    def _make_process(self, ctx, index: int, pipes):
        """One worker process (overridable seam: the fork-failure tests
        inject a factory that fails partway through the group)."""
        return ctx.Process(
            target=_worker_main,
            args=(self.executor, self, index, pipes),
            daemon=True,
            name=f"repro-host-shard-{index}",
        )

    # -- lifecycle: runs ---------------------------------------------------

    def begin_run(self, plan: Plan) -> bool:
        """Coordinator run entry: fork this run's worker group. Returns
        False when the plan has no shardable phase (the caller runs it
        serially; nothing is forked)."""
        self.load_plan(plan)
        if not self.has_shardable_phase():
            return False
        self._seq = 0
        self.fork_workers()
        return True

    def end_run(self, failed: bool) -> None:
        """Coordinator run exit: collect one ``eor`` per worker (aborting
        the run first if the coordinator failed), then reap the group."""
        if failed and not self.dead:
            for _, conn in self.workers:
                try:
                    _send_token(conn, "abort")
                except OSError:
                    # The worker already left: its replay failed the same
                    # way and sent its eor, or it died - read below.
                    pass
        try:
            for index, (process, conn) in enumerate(self.workers, start=1):
                if index not in self._eor_seen:
                    self._collect_eor(index, process, conn, failed)
        finally:
            self.shutdown()

    def _collect_eor(self, index: int, process, conn, failed: bool) -> None:
        try:
            # Stray fx tokens from an aborted exchange: drain them.
            while self._recv_token(conn, index, process)[0][0] != "eor":
                pass
            self._eor_seen.add(index)
        except (WorkerDied, ExchangeTimeout, ProtocolDivergence) as err:
            # Only the typed peer-failure family is tolerated here, and
            # every instance leaves a diagnostic.
            self.dead = True
            self.note_diagnostic(f"end_run eor from worker {index}", err)
            if isinstance(err, WorkerDied):
                self.deaths_detected += 1
            if not failed:
                raise
            # After a failed run the coordinator's error wins.

    def note_diagnostic(self, context: str, err: BaseException) -> None:
        self.diagnostics.append(f"{context}: {type(err).__name__}: {err}")

    def _shard_of(self, index: int) -> tuple[int, ...]:
        return tuple(self.shards[index])

    def _phase_label(self) -> str | None:
        """The phase in flight, else the last one logged: the sharded
        phase whose effects a flush is exchanging."""
        log = self.executor.cluster.log
        return (log.open.label or log.open.operator) if log.num_phases else None

    # -- operator-phase execution ------------------------------------------

    def run_sharded(self, cluster, driver, pgraph, operator: Operator, body) -> None:
        """Drive one shardable phase over the local shard, then exchange
        its effects."""
        driver(
            cluster,
            pgraph,
            operator.space,
            body,
            kind=operator.kind,
            label=operator.label,
            hosts=self.shard,
        )
        self.flush(self.table[id(operator)], cluster.log)

    def flush(self, carriers: list[Any], log: MetricsLog) -> None:
        """The compute-effect exchange: one bundle per process for the
        sharded phase that just closed. Replay determinism makes every
        process reach the same flush in the same order, so the collective
        stays aligned without a barrier.
        """
        self._seq += 1
        if self.is_worker:
            self._flush_worker(carriers, log)
        else:
            self._flush_coordinator(carriers, log)

    def _export_bundle(self, carriers: list[Any], log: MetricsLog) -> dict[str, Any]:
        bundle: dict[str, Any] = {
            "effects": [
                [carrier.export_compute_effects(host) for host in self.shard]
                for carrier in carriers
            ],
        }
        if self.is_worker:
            # The phase's row, sliced: the shard's counters, every host's traffic.
            row = log.open_row()
            bundle["counters"] = row[list(self.shard), : len(COUNTER_FIELDS)]
            bundle["net"] = row[:, len(COUNTER_FIELDS) :]
        return bundle

    def _install_effects(
        self, carriers: list[Any], shard: Sequence[int], bundle: dict
    ) -> None:
        for carrier, per_host in zip(carriers, bundle["effects"]):
            for host, effects in zip(shard, per_host):
                carrier.install_compute_effects(host, effects, self.resolve_op)

    def _pack(self, carriers: list[Any], log: MetricsLog) -> bytes:
        """This process's ``fx`` message for the current exchange."""
        return pickle.dumps(
            ("fx", self._seq, self._export_bundle(carriers, log)),
            pickle.HIGHEST_PROTOCOL,
        )

    def _send_to_worker(self, index: int, process, conn, message: bytes) -> None:
        """Coordinator-side send; a broken pipe means the worker died
        (previously an uncaught OSError) and surfaces as WorkerDied."""
        try:
            conn.send_bytes(message)
        except OSError:
            raise self._death_error(f"worker {index}", process, index) from None

    def _flush_worker(self, carriers, log: MetricsLog) -> None:
        message = self._pack(carriers, log)
        self.bytes_exchanged += len(message)
        self.conn.send_bytes(message)
        # Every other process's message, in index order: the coordinator's
        # own first, then the other workers' as they sent them.
        for index in range(len(self.shards)):
            if index == self.index:
                continue
            token, _ = self._recv_token(self.conn, 0, None)
            if token[0] == "abort":
                raise _RunAborted()
            if token[0] != "fx" or token[1] != self._seq:  # pragma: no cover
                raise ProtocolDivergence(
                    f"expected fx token {self._seq}, got {token[:2]!r}",
                    worker=self.index,
                )
            self._install_effects(carriers, self.shards[index], token[2])

    def _flush_coordinator(self, carriers, log: MetricsLog) -> None:
        relayed: list[bytes] = []
        for index, (process, conn) in enumerate(self.workers, start=1):
            token, message = self._recv_token(conn, index, process)
            if token[0] == "eor":
                # The worker's replay of this run raised before reaching
                # this exchange; surface its (deterministic) error here.
                self._eor_seen.add(index)
                raise self._worker_run_error(index, process, token[1])
            if token[0] != "fx" or token[1] != self._seq:
                self.dead = True
                raise ProtocolDivergence(
                    f"parallel worker {index} sent {token[0]!r} out of "
                    "phase; the processes diverged",
                    worker=index,
                    shard=self._shard_of(index),
                    phase=self._phase_label(),
                )
            self.bytes_exchanged += len(message)
            self._merge_worker_bundle(index, carriers, log, token[2])
            relayed.append(message)
        own = self._pack(carriers, log)
        self.bytes_exchanged += len(own)
        messages = [own, *relayed]
        for index, (process, conn) in enumerate(self.workers, start=1):
            for sender, message in enumerate(messages):
                if sender != index:
                    self._send_to_worker(index, process, conn, message)

    def _merge_worker_bundle(
        self, index: int, carriers, log: MetricsLog, bundle: dict
    ) -> None:
        """Fold one worker's bundle into the coordinator's last phase, in
        worker order = host order, keeping the log byte-identical to the
        serial visit."""
        shard = self.shards[index]
        for host, row in zip(shard, bundle["counters"]):
            log.add(host, row, COUNTER_FIELDS)
        for host, row in enumerate(bundle["net"]):
            log.add(host, row, TRAFFIC_FIELDS)
        self._install_effects(carriers, shard, bundle)

    # -- tokens and failure surfacing --------------------------------------

    def _recv_token(self, conn, index: int, process) -> tuple[tuple, bytes]:
        """One message from ``conn``: the decoded token and its raw bytes
        (the coordinator forwards a worker's ``fx`` bytes verbatim). A
        coordinator waits through the supervisor's poll."""
        if process is not None:
            self._await_peer(conn, index, process)
        try:
            message = conn.recv_bytes()
        except EOFError:
            who = "the coordinator" if self.is_worker else f"worker {index}"
            raise self._death_error(who, process, index) from None
        token = pickle.loads(message)
        if token[0] == "err":
            self.dead = True
            raise ProtocolDivergence(
                f"parallel worker failed:\n{token[1]}",
                worker=index if not self.is_worker else None,
            )
        return token, message

    def _await_peer(self, conn, index: int, process) -> None:
        """The supervisor's token wait: poll the pipe AND the worker's
        exit code instead of blocking, so a SIGKILLed worker surfaces as
        :class:`WorkerDied` within ~50ms (and a hung-but-alive worker as
        :class:`ExchangeTimeout`) rather than stalling the run. A message
        already waiting costs one ``select``."""
        deadline = time.monotonic() + self.exchange_timeout
        while not conn.poll(0.05):
            if not process.is_alive():
                if conn.poll(0):
                    # The worker sent its token just before dying; drain
                    # it - the death will surface at the next wait.
                    return
                raise self._death_error(f"worker {index}", process, index)
            if time.monotonic() >= deadline:
                self.dead = True
                raise ExchangeTimeout(
                    f"parallel worker {index} (pid {process.pid}) sent "
                    f"nothing for {self.exchange_timeout:.0f}s; the worker "
                    "hung or the processes diverged",
                    worker=index,
                    shard=self._shard_of(index),
                    phase=self._phase_label(),
                )

    def _death_error(self, who: str, process, index: int | None = None):
        """A dead peer surfaces its exit code and signal, not just "pipe
        closed", as a typed :class:`WorkerDied`."""
        self.dead = True
        detail = ""
        if process is not None:
            process.join(timeout=2)
            code = process.exitcode
            if code is None:  # pragma: no cover - still running, hung pipe
                detail = "; the worker process is still alive (hung pipe)"
            elif code < 0:
                try:
                    name = _signal.Signals(-code).name
                except ValueError:  # pragma: no cover - unknown signal
                    name = f"signal {-code}"
                detail = f" (pid {process.pid}, killed by {name})"
            else:
                detail = f" (pid {process.pid}, exit code {code})"
        return WorkerDied(
            f"parallel execution lost {who} mid-phase (pipe closed{detail}); "
            "the processes diverged or the peer crashed",
            worker=index,
            shard=self._shard_of(index) if index is not None else None,
            phase=self._phase_label(),
        )

    def _worker_run_error(self, index: int, process, err) -> BaseException:
        kind, exc_blob, text = err
        if exc_blob is not None:
            try:
                exc = pickle.loads(exc_blob)
            except Exception:  # pragma: no cover - unpicklable exception
                exc = None
            if isinstance(exc, BaseException):
                # Deterministic replay errors (simulated OOM on a worker's
                # shard host, non-quiescence) re-raise as themselves so the
                # harness records the same structured outcome as jobs=1.
                return exc
        return ProtocolDivergence(
            f"parallel worker {index} (pid {process.pid}) failed "
            f"mid-run ({kind}):\n{text}",
            worker=index,
            shard=self._shard_of(index),
        )

    # -- lifecycle: teardown -----------------------------------------------

    def shutdown(self) -> None:
        """Coordinator teardown: reap the group. Closing the pipes unblocks any worker still waiting in recv (it
        sees EOF and exits). After a failure the graceful window is ~2s
        before escalating to terminate.
        """
        workers, self.workers = self.workers, []
        for _, conn in workers:
            try:
                conn.close()
            except OSError:  # pragma: no cover - double close is benign
                pass
        grace = 2 if self.dead else 10
        for process, _ in workers:
            process.join(timeout=grace)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2)
                if process.is_alive():  # pragma: no cover - stuck child
                    process.kill()
                    process.join(timeout=2)

    def stats(self) -> dict[str, int]:
        return {
            "bytes_exchanged": int(self.bytes_exchanged),
            "forks": int(self.forks),
            "deaths_detected": int(self.deaths_detected),
            "diagnostics": len(self.diagnostics),
        }


def create_pool(executor: "Executor", plan: Plan) -> HostShardPool | None:
    """Build (but do not fork) the pool, or None when parallelism cannot
    help right now: a single host, no fork on this platform, or no phase
    of this plan the metadata proves shardable (then the serial path is
    already optimal and correct; a later plan may still create the pool).
    """
    jobs = min(executor.jobs, executor.cluster.num_hosts)
    if jobs < 2 or not fork_available():
        return None
    pool = HostShardPool(executor, plan, jobs)
    # Effective shard count clamps to the host count: every shard owns at
    # least one host, so no worker ever idle-spins the protocol.
    assert all(pool.shards), "host shards must be non-empty"
    if not pool.has_shardable_phase():
        return None
    return pool


def _pickle_or_none(exc: BaseException) -> bytes | None:
    try:
        blob = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
    except Exception:
        return None
    return blob


def _worker_setup(pool: HostShardPool, index: int, pipes):
    """Post-fork endpoint switch: close foreign pipe ends and mutate the
    inherited pool object into the worker-``index`` endpoint."""
    conn = pipes[index - 1][1]
    for i, (parent_end, child_end) in enumerate(pipes):
        parent_end.close()
        if i != index - 1:
            child_end.close()
    pool.is_worker = True
    pool.index = index
    pool.shard = pool.shards[index]
    pool.conn = conn
    pool.workers = []
    pool.dead = False
    return conn


def _worker_drive(executor: "Executor", pool: HostShardPool):
    """Replay one run; deterministic exceptions become the eor error
    triple instead of killing the worker."""
    try:
        # jobs > 1 implies the BSP engine (Executor refuses the rest).
        executor.engine.drive(pool.plan)
    except _RunAborted:
        return ("aborted", None, "")
    except Exception as exc:
        return (
            type(exc).__name__,
            _pickle_or_none(exc),
            traceback.format_exc()[-8000:],
        )
    return None


def _worker_main(
    executor: "Executor",
    pool: HostShardPool,
    index: int,
    pipes,
) -> None:
    """Worker entry, running in the forked child only.

    The child inherited the coordinator's entire state copy-on-write, so
    it switches its pool endpoint to worker mode, replays the loaded plan
    from the start, reports the outcome in one ``eor`` token and exits. Deterministic
    exceptions (non-quiescence, simulated OOM) replay here too and ride
    in that token.
    ``os._exit`` skips the inherited exit handlers and teardown - this
    process must not flush the parent's buffers or touch its resources
    on the way out.
    """
    status = 1
    conn = pipes[index - 1][1]
    try:
        conn = _worker_setup(pool, index, pipes)
        executor._pool = pool
        _send_token(conn, "eor", _worker_drive(executor, pool))
        status = 0
    except BaseException:
        try:
            _send_token(conn, "err", traceback.format_exc()[-8000:])
        except (OSError, ValueError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
        os._exit(status)


__all__ = [
    "ExchangeTimeout",
    "HostShardPool",
    "PoolError",
    "ProtocolDivergence",
    "WorkerDied",
    "create_pool",
    "fork_available",
    "shard_hosts",
]
