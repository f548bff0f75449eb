"""Run drivers: one call per (system, application, workload, hosts) cell.

Each driver builds a fresh cluster and partition, runs the algorithm,
excludes loading/partitioning from the measured region exactly as the
paper does ("we report the execution time ... excluding graph
loading/partitioning time"), and returns a structured :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.algorithms import (
    bfs,
    boruvka_msf,
    cc_lp,
    cc_sclp,
    cc_sv,
    k_core,
    leiden,
    louvain,
    mis,
    pagerank,
    sssp,
    vertex_cover,
)
from repro.baselines import (
    galois_cc_lp,
    galois_cc_sv,
    galois_leiden,
    galois_louvain,
    galois_mis,
    galois_msf,
    gluon_cc_lp,
    vite_louvain,
)
from repro.cluster import Cluster, ModeledTime
from repro.cluster.cluster import SimulatedOutOfMemory
from repro.cluster.metrics import PhaseKind
from repro.core.variants import RuntimeVariant
from repro.eval.workloads import load_graph
from repro.exec import Executor
from repro.faults import FaultPlan, install_faults
from repro.graph.csr import Graph
from repro.partition import partition
from repro.runtime.engine import NonQuiescenceError

# The paper's partitioning choices (Section 6.1): Cartesian vertex-cut for
# CC / MSF / MIS, edge-cut for LV / LD (Vite only supports edge-cuts).
# Extension apps: K-CORE and VERTEX-COVER need each node's full edge list
# at its master (edge-cut); the traversal suite runs on the vertex-cut.
APP_POLICY = {
    "LV": "oec",
    "LD": "oec",
    "MSF": "cvc",
    "CC-LP": "cvc",
    "CC-SCLP": "cvc",
    "CC-SV": "cvc",
    "MIS": "cvc",
    "BFS": "cvc",
    "SSSP": "cvc",
    "PR": "cvc",
    "K-CORE": "oec",
    "VERTEX-COVER": "oec",
}

APP_WEIGHTED = {"LV": True, "LD": True, "MSF": True, "SSSP": True}

KIMBAP_APPS: dict[str, Callable] = {
    "LV": louvain,
    "LD": leiden,
    "MSF": boruvka_msf,
    "CC-LP": cc_lp,
    "CC-SCLP": cc_sclp,
    "CC-SV": cc_sv,
    "MIS": mis,
    "BFS": bfs,
    "SSSP": sssp,
    "PR": pagerank,
    "K-CORE": k_core,
    "VERTEX-COVER": vertex_cover,
}

GALOIS_APPS: dict[str, Callable] = {
    "LV": galois_louvain,
    "LD": galois_leiden,
    "MSF": galois_msf,
    "CC-LP": galois_cc_lp,
    "CC-SV": galois_cc_sv,
    "MIS": galois_mis,
}

THREADS_PER_HOST = 48  # Stampede2 SKX: 48 threads per host


RESULT_SCHEMA = "repro-run-result/v1"


@dataclass
class RunResult:
    """One measured cell of a paper table or figure.

    ``counters`` are the run's summed event counters (the cost-model
    inputs); ``cluster`` keeps the simulated cluster - and with it the full
    phase log - alive so traces and profiles can be built from the result.

    ``outcome`` is ``"ok"`` for a completed run, ``"oom"`` or
    ``"non-quiescent"`` for the structured failure cells (the paper's OOM
    table entries); ``failure`` then carries the typed details. ``faults``
    is the injector's report when the run executed under a fault plan.
    ``values`` keeps the algorithm's final per-node properties (when the
    run produced them) for equivalence checking; it is never serialized.
    """

    system: str
    app: str
    graph: str
    hosts: int
    time: ModeledTime
    rounds: int
    stats: dict[str, float] = field(default_factory=dict)
    messages: int = 0
    bytes: int = 0
    time_by_kind: dict[PhaseKind, ModeledTime] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    threads: int = THREADS_PER_HOST
    cluster: Cluster | None = field(default=None, repr=False, compare=False)
    outcome: str = "ok"
    failure: dict | None = None
    faults: dict | None = None
    values: dict | None = field(default=None, repr=False, compare=False)
    # Execution engine the run used ("bsp" | "async"). Serialized only when
    # it is not the BSP oracle, so every existing report stays byte-identical.
    engine: str = "bsp"

    @property
    def total(self) -> float:
        return self.time.total

    def row(self) -> tuple:
        return (
            self.system,
            self.app,
            self.graph,
            self.hosts,
            round(self.time.computation, 3),
            round(self.time.communication, 3),
            round(self.total, 3),
        )

    def timeline(self):
        """Modeled per-host timeline of this run (``repro.trace.Timeline``)."""
        if self.cluster is None:
            raise ValueError("run result carries no cluster; cannot build a timeline")
        from repro.trace import build_timeline

        return build_timeline(
            self.cluster.log, self.cluster.cost_model, self.threads
        )

    def to_dict(self) -> dict:
        """Machine-readable form (the ``BENCH_*.json`` schema).

        The ``outcome``/``failure``/``faults`` keys appear only on failed
        or fault-injected runs, so fault-free reports stay byte-identical
        to the pre-fault-layer schema.
        """
        result = {
            "schema": RESULT_SCHEMA,
            "system": self.system,
            "app": self.app,
            "graph": self.graph,
            "hosts": self.hosts,
            "threads": self.threads,
            "comp": self.time.computation,
            "comm": self.time.communication,
            "total": self.total,
            "rounds": self.rounds,
            "messages": self.messages,
            "bytes": self.bytes,
            "counters": dict(self.counters),
            "stats": {key: float(value) for key, value in self.stats.items()},
            "time_by_kind": {
                kind.value: {"comp": t.computation, "comm": t.communication}
                for kind, t in self.time_by_kind.items()
            },
        }
        if self.outcome != "ok":
            result["outcome"] = self.outcome
            result["failure"] = dict(self.failure) if self.failure else None
        if self.faults is not None:
            result["faults"] = self.faults
        if self.engine != "bsp":
            result["engine"] = self.engine
        return result


def _finish(
    system: str,
    app: str,
    graph_name: str,
    hosts: int,
    cluster: Cluster,
    result,
) -> RunResult:
    elapsed, by_kind = cluster.elapsed_all()
    return RunResult(
        system=system,
        app=app,
        graph=graph_name,
        hosts=hosts,
        time=elapsed,
        rounds=result.rounds,
        stats=dict(result.stats),
        messages=cluster.log.total_messages(),
        bytes=cluster.log.total_bytes(),
        time_by_kind=by_kind,
        counters=cluster.log.total_counters().as_dict(),
        threads=cluster.threads_per_host,
        cluster=cluster,
        values=getattr(result, "values", None),
    )


def _failed(
    system: str,
    app: str,
    graph_name: str,
    hosts: int,
    cluster: Cluster,
    outcome: str,
    failure: dict,
    rounds: int = 0,
) -> RunResult:
    """A structured failed-run cell: metrics up to the failure point."""
    elapsed, by_kind = cluster.elapsed_all()
    return RunResult(
        system=system,
        app=app,
        graph=graph_name,
        hosts=hosts,
        time=elapsed,
        rounds=rounds,
        messages=cluster.log.total_messages(),
        bytes=cluster.log.total_bytes(),
        time_by_kind=by_kind,
        counters=cluster.log.total_counters().as_dict(),
        threads=cluster.threads_per_host,
        cluster=cluster,
        outcome=outcome,
        failure=failure,
    )


def _attach_faults(result: RunResult, injector, cluster: Cluster) -> None:
    """Stamp the injector's report - plus priced checkpoint/recovery time -
    onto a run result."""
    report = injector.report()
    by_kind = cluster.elapsed_by_kind()
    zero = ModeledTime(0.0, 0.0)
    report["checkpoint_time"] = by_kind.get(PhaseKind.CHECKPOINT, zero).total
    report["recovery_time"] = by_kind.get(PhaseKind.RECOVERY, zero).total
    result.faults = report


def run_kimbap(
    app: str,
    graph_name: str,
    hosts: int,
    variant: RuntimeVariant = RuntimeVariant.KIMBAP,
    threads: int = THREADS_PER_HOST,
    graph: Graph | None = None,
    pgraph: Any | None = None,
    fault_plan: FaultPlan | None = None,
    memory_limit_slots: int | None = None,
    bulk: bool = False,
    jobs: int = 1,
    engine: str = "bsp",
    **kwargs: Any,
) -> RunResult:
    """Run a Kimbap application on the simulated cluster.

    ``pgraph`` optionally supplies a prebuilt partition so callers timing
    the run can exclude partitioning from the measured region, exactly as
    the paper reports execution time; when omitted, the graph is
    partitioned with the app's paper policy (``APP_POLICY``).

    ``bulk`` selects the executor backend (scalar reference vs vectorized
    bulk) for the whole run - the backend is an executor property, not a
    per-algorithm flag, so every application supports it. ``jobs`` fans
    shardable compute phases out to that many OS processes
    (``repro.exec.pool``); it composes with either backend and preserves
    byte-identical results by contract.

    With a ``fault_plan``, the run executes under deterministic fault
    injection (``repro.faults``) and the result carries the structured
    ``faults`` report. Failures the paper reports as table cells -
    simulated OOM and non-quiescence - come back as a ``RunResult`` with
    ``outcome`` set instead of raising.

    ``engine`` picks the drive loop (``repro.exec.engine``): ``"bsp"``
    (default) is the byte-identity oracle; ``"async"`` schedules
    residual-declared plans (PR, SSSP, CC-LP, BFS) barrier-free with
    priority/delta ordering, verified by value-equivalence instead.
    """
    if graph is None:
        graph = load_graph(graph_name, weighted=APP_WEIGHTED.get(app, False))
    if pgraph is None:
        pgraph = partition(graph, hosts, APP_POLICY[app])
    cluster = Cluster(
        hosts, threads_per_host=threads, memory_limit_slots=memory_limit_slots
    )
    injector = None
    if fault_plan is not None:
        injector = install_faults(cluster, fault_plan)
    executor = Executor(cluster, bulk=bulk, jobs=jobs, engine=engine)
    label = "Kimbap" if variant is RuntimeVariant.KIMBAP else f"Kimbap[{variant.label}]"
    try:
        try:
            result = KIMBAP_APPS[app](
                cluster, pgraph, variant=variant, executor=executor, **kwargs
            )
        finally:
            # Reap the worker pool no matter how the run ends; grab the
            # exchange stats first - close() drops the pool.
            parallel_stats = executor.parallel_stats()
            executor.close()
    except SimulatedOutOfMemory as oom:
        run = _failed(
            label,
            app,
            graph_name,
            hosts,
            cluster,
            "oom",
            {
                "error": "SimulatedOutOfMemory",
                "host": oom.host,
                "owner": oom.owner,
                "total_slots": oom.total_slots,
                "limit": oom.limit,
            },
        )
    except NonQuiescenceError as stuck:
        run = _failed(
            label,
            app,
            graph_name,
            hosts,
            cluster,
            "non-quiescent",
            {
                "error": "NonQuiescenceError",
                "loop": stuck.loop,
                "rounds": stuck.rounds,
                "maps": stuck.map_names,
            },
            rounds=stuck.rounds,
        )
    else:
        run = _finish(label, app, graph_name, hosts, cluster, result)
    if injector is not None:
        _attach_faults(run, injector, cluster)
    run.engine = executor.engine.name
    # Side-channel instrumentation only: not a dataclass field, so it never
    # enters to_dict() and cannot perturb the byte-identity contract.
    run.parallel = parallel_stats
    run.async_stats = (
        {
            "updates": executor.engine.last_updates,
            "chunks": executor.engine.last_chunks,
        }
        if executor.engine.name == "async"
        else None
    )
    return run


def run_vite(
    graph_name: str,
    hosts: int,
    threads: int = THREADS_PER_HOST,
    graph: Graph | None = None,
    **kwargs: Any,
) -> RunResult:
    if graph is None:
        graph = load_graph(graph_name, weighted=True)
    pgraph = partition(graph, hosts, "oec")
    cluster = Cluster(hosts, threads_per_host=threads)
    result = vite_louvain(cluster, pgraph, **kwargs)
    return _finish("Vite", "LV", graph_name, hosts, cluster, result)


def run_gluon(
    graph_name: str,
    hosts: int,
    threads: int = THREADS_PER_HOST,
    graph: Graph | None = None,
) -> RunResult:
    if graph is None:
        graph = load_graph(graph_name)
    pgraph = partition(graph, hosts, "cvc")
    cluster = Cluster(hosts, threads_per_host=threads)
    result = gluon_cc_lp(cluster, pgraph)
    return _finish("Gluon", "CC-LP", graph_name, hosts, cluster, result)


def run_galois(
    app: str,
    graph_name: str,
    threads: int = THREADS_PER_HOST,
    graph: Graph | None = None,
) -> RunResult:
    if graph is None:
        graph = load_graph(graph_name, weighted=APP_WEIGHTED.get(app, False))
    cluster = Cluster(1, threads_per_host=threads)
    result = GALOIS_APPS[app](cluster, graph)
    return _finish("Galois", app, graph_name, 1, cluster, result)
