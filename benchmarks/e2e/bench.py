"""Measure one workload in this process (the caller starts a fresh one).

Closed loop, one client: set-up (timed, repeated) -> warm-up run ->
timed runs -> ``ru_maxrss`` -> oracle and identity checks. The timed runs
are untraced, or (traced mode) untraced and traced runs in turn, the span
wrappers installed for every other one. A "run" is
``run_kimbap(..., graph=, pgraph=, bulk=True)`` followed by ``to_dict()``:
executor build, plan compile, lazy fold-plan builds, execute, price,
report. Partitioning is set-up, excluded from the run exactly as the paper
excludes it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import time
from typing import Any

import numpy as np

from repro import verify
from repro.baselines import cost
from repro.cluster.metrics import STATISTIC_FIELDS
from repro.eval.harness import run_kimbap
from repro.graph import generators
from repro.partition import partition

import spans
import workloads as wl

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def _rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Checks:
    """Verification as counted operations: ``failed / attempted`` is the
    benchmark's ``check_fail_frac``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)


class Run:
    """What is kept of one ``run_kimbap`` + ``to_dict`` once the
    ``RunResult`` (cluster, phase log, values) has been dropped."""

    def __init__(self, wall_s: float, result: Any, report: dict) -> None:
        self.wall_s = wall_s
        self.sha256 = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()
        ).hexdigest()
        self.outcome = result.outcome
        self.rounds = result.rounds
        # Counters.total_events() of the run, from the report (no extra log walk).
        self.events = sum(
            count for name, count in report["counters"].items()
            if name not in STATISTIC_FIELDS
        )
        # Simulated statistics: must repeat exactly for a fixed seed.
        self.sim = {
            "sim.modeled_s": result.total,
            "sim.comp_s": report["comp"],
            "sim.comm_s": report["comm"],
            "sim.events": self.events,
            "sim.messages": report["messages"],
            "sim.bytes": report["bytes"],
        }
        self.parallel = result.parallel
        self.async_stats = result.async_stats


def _one_run(workload: wl.Workload, graph, pgraph, recorder=None, **override) -> tuple[Run, dict]:
    """One measured run; returns its summary and the final node values."""
    args = {**workload.run_args, **override}
    # Named after the input, not the workload: a jobs=N workload and its
    # serial twin must produce the same report bytes.
    label = workload.graph + "".join(f"-{v}" for v in workload.graph_args.values())

    def run():
        result = run_kimbap(
            workload.app, label, wl.HOSTS, threads=wl.THREADS,
            graph=graph, pgraph=pgraph, bulk=True, **args,
        )
        return result, result.to_dict()

    if recorder is not None:
        run = recorder.wrap(run, spans.ROOT_SPAN)
    gc.collect()
    start = time.perf_counter()
    result, report = run()
    wall = time.perf_counter() - start
    return Run(wall, result, report), result.values


def _set_up(workload: wl.Workload, seed: int):
    """Generate + partition repeatedly (at least ``SETUP_REPEATS`` times
    and ``SETUP_MIN_SECONDS``: the road inputs set up in 30-60 ms, too
    short to time a handful of times); the last pair is used."""
    generate = getattr(generators, workload.graph)
    gen_s, part_s = [], []
    begin = time.perf_counter()
    while len(gen_s) < wl.SETUP_REPEATS or time.perf_counter() - begin < wl.SETUP_MIN_SECONDS:
        graph = pgraph = None
        gc.collect()
        t0 = time.perf_counter()
        graph = generate(seed=seed, **workload.graph_args)
        t1 = time.perf_counter()
        pgraph = partition(graph, wl.HOSTS, wl.POLICY)
        t2 = time.perf_counter()
        gen_s.append(t1 - t0)
        part_s.append(t2 - t1)
    totals = [g + p for g, p in zip(gen_s, part_s)]
    return graph, pgraph, {
        "setup_s": statistics.median(totals),
        "graph.generate_s": statistics.median(gen_s),
        "partition.build_s": statistics.median(part_s),
    }


def _check_values(workload: wl.Workload, graph, values: dict, rounds: int, checks: Checks) -> float:
    """Final values against an oracle that shares no code with the
    simulator; returns the seconds the oracle's straight loop took."""
    n = graph.num_nodes
    start = time.perf_counter()
    if workload.app == "PR":
        want, want_rounds = cost.cost_pagerank(graph)
        oracle_s = time.perf_counter() - start
        got = np.array([values[v] for v in range(n)])
        worst = float(np.max(np.abs(got - np.array(want))))
        checks.record("oracle cost_pagerank", worst <= wl.PAGERANK_TOLERANCE, f"max |diff| {worst:.3e}")
        checks.record("oracle rounds", rounds == want_rounds, f"{rounds} != {want_rounds}")
    elif workload.app == "SSSP":
        want = cost.cost_sssp(graph)
        oracle_s = time.perf_counter() - start
        bad = sum(1 for v in range(n) if values[v] != want[v])
        checks.record("oracle cost_sssp", bad == 0, f"{bad} distances differ")
    else:
        want = cost.cost_cc(graph)
        oracle_s = time.perf_counter() - start
        bad = sum(1 for v in range(n) if values[v] != want[v])
        checks.record("oracle cost_cc", bad == 0, f"{bad} labels differ")
        try:
            verify.check_components(graph, values)
            checks.record("verify.check_components", True)
        except verify.VerificationError as err:
            checks.record("verify.check_components", False, str(err))
    return oracle_s


def _check_identical(runs: list[Run], checks: Checks) -> None:
    """Every run of a workload is the same simulation: same report bytes,
    same modeled seconds and counts, and it completed."""
    first = runs[0]
    for index, run in enumerate(runs):
        checks.record(f"run {index} outcome", run.outcome == "ok", run.outcome)
        if index:
            checks.record(f"run {index} report sha256", run.sha256 == first.sha256)
            checks.record(f"run {index} sim.*", run.sim == first.sim, f"{run.sim} != {first.sim}")


def _straight_loop_s(workload: wl.Workload, graph, oracle_s: float) -> float:
    """The COST yardstick: the same algorithm as one plain loop."""
    straight = cost.COST_STRAIGHT.get(workload.app)
    if straight is None:
        return 0.0
    if straight is cost.COST_BASELINES[workload.app]:
        return oracle_s  # PageRank: the oracle already is the straight loop
    start = time.perf_counter()
    straight(graph)
    return time.perf_counter() - start


def _recorded_sha(workload: wl.Workload, seed: int) -> str | None:
    """The report digest this PR series recorded for ``seed``, if any."""
    path = os.path.join(RESULTS_DIR, f"seed{seed}.json")
    try:
        with open(path, encoding="utf-8") as src:
            return json.load(src)["workloads"][workload.name]["report_sha256"]
    except (OSError, KeyError, ValueError):
        return None


# Layers whose number of calls is work an optimisation can remove (the
# rest are called a fixed handful of times per run).
CALL_COUNTS = {
    "exec.executor.kernel": "exec.executor.kernel_calls",
    "core.propmap.reduce_bulk": "core.propmap.reduce_bulk_calls",
    "core.propmap.reduce_sync": "core.propmap.reduce_sync_calls",
    "core.propmap.broadcast_sync": "core.propmap.broadcast_sync_calls",
    "core.propmap.request_sync": "core.propmap.request_sync_calls",
    "core.reduction.collect": "core.reduction.collect_calls",
    "core.reduction.fold_build": "core.reduction.fold_builds",
    "core.backends.apply_master": "core.backends.apply_master_calls",
    "cluster.metrics.start_phase": "cluster.metrics.phases",
    "exec.pool.exchange": "exec.pool.exchanges",
}


def _layer_metrics(recorder: spans.Recorder, traced: Run, run_id: int, base_wall: float) -> dict[str, float]:
    seconds, calls = recorder.self_times(run_id)
    root_s = seconds.pop(spans.ROOT_SPAN)
    calls.pop(spans.ROOT_SPAN)
    metrics: dict[str, float] = {}
    for name in sorted({target[2] for target in spans.SPAN_TARGETS}):
        metrics[f"{name}_s"] = seconds.get(name, 0.0)
        if name in CALL_COUNTS:
            metrics[CALL_COUNTS[name]] = calls.get(name, 0)
    metrics["exec.codegen.specialized_ops"] = recorder.compiled_ops["specialized"]
    metrics["exec.codegen.interpreted_ops"] = recorder.compiled_ops["interpreted"]
    metrics["exec.engine.rounds"] = traced.rounds
    async_stats = traced.async_stats or {}
    metrics["exec.engine.async_updates"] = async_stats.get("updates", 0)
    metrics["exec.engine.async_chunks"] = async_stats.get("chunks", 0)
    metrics["exec.pool.exchanged_bytes"] = (traced.parallel or {}).get("bytes_exchanged", 0)
    metrics["trace.traced_wall_s"] = traced.wall_s
    metrics["trace.untraced_wall_s"] = base_wall
    metrics["trace.overhead_frac"] = (traced.wall_s - base_wall) / base_wall
    metrics["trace.coverage_frac"] = 1.0 - root_s / traced.wall_s
    metrics["trace.uncovered_s"] = root_s
    metrics["trace.spans"] = sum(calls.values())
    metrics["trace.missing_spans"] = len(recorder.missing)
    return metrics


def _timed_runs(workload: wl.Workload, graph, pgraph, seconds: float) -> list[Run]:
    timed: list[Run] = []
    begin = time.perf_counter()
    while len(timed) < wl.MIN_TIMED_RUNS or time.perf_counter() - begin < seconds:
        timed.append(_one_run(workload, graph, pgraph)[0])
    return timed


def _traced_runs(workload: wl.Workload, graph, pgraph, seed: int, seconds: float) -> tuple[list[Run], list[Run], dict]:
    """Untraced and traced runs interleaved, so both see the same machine
    noise. Noise on a shared sandbox only ever adds time, so the least
    disturbed run of each kind (the minimum) gives the tracing overhead,
    and the least disturbed traced run gives the layer times."""
    recorder = spans.Recorder()
    untraced: list[Run] = []
    traced: list[Run] = []
    begin = time.perf_counter()
    while len(traced) < wl.MIN_TRACE_PAIRS or time.perf_counter() - begin < seconds:
        untraced.append(_one_run(workload, graph, pgraph)[0])
        recorder.install(run_id=len(traced))
        try:
            traced.append(_one_run(workload, graph, pgraph, recorder=recorder)[0])
        finally:
            recorder.uninstall()
    best = min(range(len(traced)), key=lambda pair: traced[pair].wall_s)
    base_wall = min(run.wall_s for run in untraced)
    layers = _layer_metrics(recorder, traced[best], best, base_wall)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    recorder.write_chrome_trace(
        os.path.join(RESULTS_DIR, f"trace-{workload.name}.json"),
        best,
        {"workload": workload.name, "seed": seed, "wall_s": traced[best].wall_s,
         "missing_spans": recorder.missing},
    )
    return untraced, traced, layers


def _check_serial_twin(workload: wl.Workload, graph, pgraph, want: Run, repeats: int, checks: Checks) -> list[float]:
    """The jobs=N report must be the jobs=1 report, byte for byte;
    returns the serial walls (the other side of ``exec.pool.speedup``)."""
    walls = []
    for _ in range(repeats):
        serial, _ = _one_run(workload, graph, pgraph, jobs=1)
        walls.append(serial.wall_s)
        checks.record("serial twin outcome", serial.outcome == "ok", serial.outcome)
        checks.record(
            f"report identical to {wl.SERIAL_TWIN[workload.name]}",
            serial.sha256 == want.sha256,
        )
    return walls


def measure(workload: wl.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run the whole procedure; returns the detail record (see run.py)."""
    begin = time.perf_counter()
    checks = Checks()
    graph, pgraph, setup = _set_up(workload, seed)
    warm, values = _one_run(workload, graph, pgraph)

    layers: dict[str, float] = {}
    if trace:
        timed, traced, layers = _traced_runs(workload, graph, pgraph, seed, seconds)
    else:
        timed, traced = _timed_runs(workload, graph, pgraph, seconds), []
    walls = [run.wall_s for run in timed]
    wall_s = statistics.median(walls)
    peak_rss = _rss_mib(resource.RUSAGE_SELF)

    serial_walls: list[float] = []
    if workload.name in wl.SERIAL_TWIN:
        serial_walls = _check_serial_twin(
            workload, graph, pgraph, warm, wl.MIN_TRACE_PAIRS if trace else 1, checks
        )
    _check_identical([warm, *timed, *traced], checks)
    oracle_s = _check_values(workload, graph, values, warm.rounds, checks)

    if trace:
        layers["graph.generate_s"] = setup["graph.generate_s"]
        layers["partition.build_s"] = setup["partition.build_s"]
        layers["partition.replication_factor"] = pgraph.replication_factor()
        straight_s = _straight_loop_s(workload, graph, oracle_s)
        layers["baselines.cost.straight_s"] = straight_s
        layers["baselines.cost.cost_ratio"] = min(walls) / straight_s if straight_s else 0.0
        layers["exec.pool.speedup"] = min(serial_walls) / min(walls) if serial_walls else 0.0
        layers["exec.pool.worker_peak_rss_mb"] = (
            _rss_mib(resource.RUSAGE_CHILDREN) if serial_walls else 0.0
        )
        recorded = _recorded_sha(workload, seed)
        # 0 = same report as recorded for this seed, 1 = differs, -1 = seed not recorded
        layers["sim.report_sha256_changed"] = (
            -1 if recorded is None else int(recorded != warm.sha256)
        )
        layers.update(warm.sim)

    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "rounds": warm.rounds,
        "report_sha256": warm.sha256,
        "timed_runs": len(timed),
        "elapsed_s": time.perf_counter() - begin,  # this process, set-up and checks included
        "wall_samples_s": walls,
        "end_to_end": {
            "wall_s": wall_s,
            "setup_s": setup["setup_s"],
            # Fastest run: sandbox noise only ever adds time, so the minimum
            # repeats best (same-seed A/A: 3-6% against 4-14% for the median).
            "sim_events_per_s": warm.events / min(walls),
            "modeled_s": warm.sim["sim.modeled_s"],
            "peak_rss_mb": peak_rss,
            "check_fail_frac": len(checks.failures) / checks.attempted,
        },
        "per_layer": layers,
        "sim": warm.sim,
        "checks_attempted": checks.attempted,
        "checks_failed": len(checks.failures),
        "check_failures": checks.failures,
    }
