#!/usr/bin/env python
"""Wall-clock speedup of the bulk and host-parallel paths.

Standalone script (no pytest dependency - CI's smoke job runs it directly):
for each app cell it runs the full backend matrix on the same workload -
scalar ``jobs=1`` (the oracle), scalar ``jobs=4``, bulk ``jobs=1`` (the
compiled kernels of ``repro.exec.codegen``), and bulk ``jobs=2/4``
(host-shard process parallelism, ``repro.exec.pool``) - times every
variant with ``time.perf_counter`` over a cell-shared prebuilt
partition (graph loading/partitioning is excluded from the measured
region, matching how the paper reports execution time), and **asserts
the byte-identical equivalence contract** against the scalar oracle: ``RunResult.to_dict()``
(counters, conflict counts, modeled seconds, traces) and the final
property values must match exactly. Any divergence exits non-zero, so
the CI smoke job doubles as the equivalence gate.

On runners with at least 4 cores the script additionally gates on real
parallel speedup: the headline cell's scalar ``jobs=4`` run must beat
scalar ``jobs=1`` by ``REPRO_BENCH_MIN_PARALLEL_SPEEDUP`` (default 1.8x),
and bulk ``jobs=2`` must beat bulk ``jobs=1`` by
``REPRO_BENCH_MIN_BULK_J2_SPEEDUP`` (default 1.3x). How fast the compiled
kernels are in absolute terms is measured against an external loop by
``benchmarks/e2e`` (``pr-powerlaw-dense``, ``sssp-road-wavefront``), not
here. The scalar backend is
the easy parallelism demonstration: its compute phases dominate the run.
The bulk gate is the honest one (the COST caution of PAPERS.md): the
vectorized baseline is fast, so winning against it demands the
shared-memory aggregated exchange of ``repro.exec.pool`` - persistent
warm workers, one zero-copy bundle per worker per sync boundary - rather
than per-phase pickled round-trips. The report records the exchange
instrumentation (``bytes_exchanged``, ``segments_peak``) per cell so the
aggregation win is visible in the artifact.
Single-core machines still verify the full equivalence matrix - the
determinism contract is core-count independent - and record the measured
ratios without gating; set ``REPRO_BENCH_REQUIRE_SPEEDUP=1`` to force the
gates regardless of core count.

Outputs ``benchmarks/reports/bench_wallclock_speedup.{json,txt}`` in the
standard ``repro-bench-report/v1`` schema. Environment knobs match the
pytest benchmarks: ``REPRO_BENCH_FAST=1`` shrinks the sweep to the
equivalence-critical cells, ``REPRO_BENCH_SCALE`` rescales the graphs.
"""

from __future__ import annotations

import json
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.eval.harness import APP_POLICY, run_kimbap  # noqa: E402
from repro.eval.workloads import load_graph  # noqa: E402
from repro.partition import partition  # noqa: E402

REPORT_SCHEMA = "repro-bench-report/v1"
TITLE = (
    "Bulk + host-parallel execution paths: wall-clock speedup "
    "(byte-identical metrics)"
)
# Backend matrix per cell: (column key, bulk flag, jobs). The scalar
# jobs=1 run is the oracle every other variant must match byte for byte.
MATRIX = (
    ("scalar_j1", False, 1),
    ("scalar_j4", False, 4),
    ("bulk_j1", True, 1),
    ("bulk_j2", True, 2),
    ("bulk_j4", True, 4),
)
HEADERS = (
    "app",
    "graph",
    "hosts",
    "scalar j1(s)",
    "scalar j4(s)",
    "bulk j1(s)",
    "bulk j2(s)",
    "bulk j4(s)",
    "bulk/scalar",
    "scalar j4/j1",
    "bulk j2/j1",
    "bulk j4/j1",
    "exchanged",
    "segs",
    "identical",
)


def fast_mode() -> bool:
    return os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


def min_parallel_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_MIN_PARALLEL_SPEEDUP", "1.8"))


def min_bulk_j2_speedup() -> float:
    return float(os.environ.get("REPRO_BENCH_MIN_BULK_J2_SPEEDUP", "1.3"))


def gate_speedup() -> bool:
    """The >=1.8x scalar jobs=4 gate needs 4 real cores; equivalence
    does not."""
    forced = os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP", "")
    if forced not in ("", "0"):
        return True
    return (os.cpu_count() or 1) >= 4


def cells() -> list[tuple[str, str, int]]:
    # The headline cell is PR on the Fig-9 power-law medium graph at 4
    # hosts; SSSP and CC-LP ride along as the other two ported apps.
    sweep = [
        ("PR", "powerlaw", 4),
        ("SSSP", "powerlaw", 4),
        ("CC-LP", "powerlaw", 4),
    ]
    if not fast_mode():
        sweep += [
            ("PR", "road", 4),
            ("SSSP", "road", 4),
            ("CC-LP", "road", 4),
            ("PR", "powerlaw", 16),
        ]
    return sweep


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def run_cell(app: str, graph_name: str, hosts: int) -> dict:
    graph = load_graph(graph_name, weighted=(app == "SSSP"))
    # One partition per cell, shared by every variant: the timed region
    # measures execution only, the same exclusion of graph loading and
    # partitioning time the paper's reported numbers use.
    pgraph = partition(graph, hosts, APP_POLICY[app])
    wallclock: dict[str, float] = {}
    results: dict[str, object] = {}
    for key, bulk, jobs in MATRIX:
        start = time.perf_counter()
        results[key] = run_kimbap(
            app, graph_name, hosts, graph=graph, pgraph=pgraph, bulk=bulk,
            jobs=jobs,
        )
        wallclock[key] = time.perf_counter() - start
    oracle = results["scalar_j1"]
    oracle_bytes = canonical(oracle)
    diverged = sorted(
        key
        for key, result in results.items()
        if key != "scalar_j1"
        and (canonical(result) != oracle_bytes or result.values != oracle.values)
    )
    # Exchange instrumentation of the widest parallel run (bulk jobs=4):
    # bytes through the shared arenas + pipe fallbacks, peak live
    # /dev/shm segments, forks, and warm (fork-free) pool reuses.
    parallel = getattr(results["bulk_j4"], "parallel", None) or {}
    return {
        "app": app,
        "graph": graph_name,
        "hosts": hosts,
        "wallclock_s": wallclock,
        "bulk_speedup": (
            wallclock["scalar_j1"] / wallclock["bulk_j1"]
            if wallclock["bulk_j1"] > 0
            else float("inf")
        ),
        "parallel_speedup": (
            wallclock["scalar_j1"] / wallclock["scalar_j4"]
            if wallclock["scalar_j4"] > 0
            else float("inf")
        ),
        "bulk_j2_speedup": (
            wallclock["bulk_j1"] / wallclock["bulk_j2"]
            if wallclock["bulk_j2"] > 0
            else float("inf")
        ),
        "bulk_parallel_speedup": (
            wallclock["bulk_j1"] / wallclock["bulk_j4"]
            if wallclock["bulk_j4"] > 0
            else float("inf")
        ),
        "bytes_exchanged": int(parallel.get("bytes_exchanged", 0)),
        "segments_peak": int(parallel.get("segments_peak", 0)),
        "pool_forks": int(parallel.get("forks", 0)),
        "pool_warm_runs": int(parallel.get("warm_runs", 0)),
        "modeled_total_s": oracle.total,
        "identical": not diverged,
        "diverged": diverged,
    }


def main() -> int:
    rows = [run_cell(*cell) for cell in cells()]

    from repro.eval.reporting import format_table

    printable = [
        (
            r["app"],
            r["graph"],
            r["hosts"],
            f"{r['wallclock_s']['scalar_j1']:.3f}",
            f"{r['wallclock_s']['scalar_j4']:.3f}",
            f"{r['wallclock_s']['bulk_j1']:.3f}",
            f"{r['wallclock_s']['bulk_j2']:.3f}",
            f"{r['wallclock_s']['bulk_j4']:.3f}",
            f"{r['bulk_speedup']:.1f}x",
            f"{r['parallel_speedup']:.2f}x",
            f"{r['bulk_j2_speedup']:.2f}x",
            f"{r['bulk_parallel_speedup']:.2f}x",
            f"{r['bytes_exchanged'] / 1024:.0f}K",
            r["segments_peak"],
            "yes" if r["identical"] else "DIVERGED",
        )
        for r in rows
    ]
    text = f"\n\n===== {TITLE} =====\n" + format_table(HEADERS, printable) + "\n"
    print(text)

    reports_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reports")
    os.makedirs(reports_dir, exist_ok=True)
    with open(os.path.join(reports_dir, "bench_wallclock_speedup.txt"), "w") as handle:
        handle.write(text)
    report = {
        "schema": REPORT_SCHEMA,
        "module": "bench_wallclock_speedup",
        "title": TITLE,
        "headers": list(HEADERS),
        "results": [],
        "rows": [list(row) for row in printable],
        "cells": rows,
        "matrix": [list(entry) for entry in MATRIX],
        "cpu_count": os.cpu_count(),
        "speedup_gated": gate_speedup(),
        "min_parallel_speedup": min_parallel_speedup(),
        "min_bulk_j2_speedup": min_bulk_j2_speedup(),
        "fast_mode": fast_mode(),
    }
    with open(os.path.join(reports_dir, "bench_wallclock_speedup.json"), "w") as handle:
        json.dump(report, handle, indent=1)

    failed = False
    for r in rows:
        for key in r["diverged"]:
            failed = True
            print(
                f"EQUIVALENCE FAILURE: {r['app']} on {r['graph']} @ "
                f"{r['hosts']} hosts - {key} RunResult.to_dict() diverged "
                "from scalar jobs=1",
                file=sys.stderr,
            )
    headline = rows[0]
    if gate_speedup() and headline["parallel_speedup"] < min_parallel_speedup():
        failed = True
        print(
            f"SPEEDUP FAILURE: headline {headline['app']} "
            f"{headline['graph']}@{headline['hosts']} scalar jobs=4 over "
            f"jobs=1 is {headline['parallel_speedup']:.2f}x "
            f"(< {min_parallel_speedup():.1f}x, cpu_count={os.cpu_count()})",
            file=sys.stderr,
        )
    if gate_speedup() and headline["bulk_j2_speedup"] < min_bulk_j2_speedup():
        failed = True
        print(
            f"SPEEDUP FAILURE: headline {headline['app']} "
            f"{headline['graph']}@{headline['hosts']} bulk jobs=2 over "
            f"jobs=1 is {headline['bulk_j2_speedup']:.2f}x "
            f"(< {min_bulk_j2_speedup():.1f}x, cpu_count={os.cpu_count()})",
            file=sys.stderr,
        )
    if failed:
        return 1
    print(
        f"headline: {headline['app']} {headline['graph']}@{headline['hosts']} "
        f"bulk/scalar {headline['bulk_speedup']:.1f}x, "
        f"scalar j4/j1 {headline['parallel_speedup']:.2f}x, "
        f"bulk j2/j1 {headline['bulk_j2_speedup']:.2f}x, "
        f"bulk j4/j1 {headline['bulk_parallel_speedup']:.2f}x, "
        f"exchanged {headline['bytes_exchanged']} bytes over "
        f"{headline['segments_peak']} segments "
        f"(cpu_count={os.cpu_count()}, gated={gate_speedup()})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
