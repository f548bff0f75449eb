#!/usr/bin/env python
"""Recovery overhead of the self-healing host-parallel pool.

Standalone script (no pytest dependency, not CI-gated on speed): for each
cell it runs the ``jobs=1`` oracle, a fault-free ``jobs=4`` run with the
supervisor armed (measuring what watching costs), and a ``jobs=4`` run
that loses a real worker - SIGKILLed by a :class:`repro.faults.chaos.ChaosPlan`
at a mid-run effect exchange - under ``recovery="refork"`` (roll back
to the round start, fork the group again). Every variant **must** stay
byte-identical to
the oracle (``RunResult.to_dict()``); any divergence exits non-zero, so
the benchmark doubles as a recovery-equivalence gate wherever it is run.

The interesting numbers are the wall-clock columns: how much a kill plus
refork-and-resume recovery costs over the fault-free parallel run
(snapshot restore + refork + round replay), and how much the armed
supervisor costs when nothing fails (it should be noise: the watch path
only polls exit codes while already waiting on tokens).

Outputs ``benchmarks/reports/bench_chaos_recovery.{json,txt}`` in the
standard ``repro-bench-report/v1`` schema. ``REPRO_BENCH_FAST=1`` shrinks
the sweep to the headline cell.
"""

from __future__ import annotations

import json
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.eval.harness import run_kimbap  # noqa: E402
from repro.eval.workloads import load_graph  # noqa: E402
from repro.faults import ChaosEvent, ChaosPlan  # noqa: E402

REPORT_SCHEMA = "repro-bench-report/v1"
TITLE = "Self-healing pool: worker-kill recovery overhead (byte-identical results)"
HEADERS = (
    "app",
    "graph",
    "kind",
    "boundary",
    "j1(s)",
    "clean j4(s)",
    "killed j4(s)",
    "recovery cost",
    "heals",
    "identical",
)
JOBS = 4


def fast_mode() -> bool:
    return os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


def cells() -> list[tuple[str, str, str]]:
    sweep = [("PR", "powerlaw", "sigkill")]
    if not fast_mode():
        sweep += [("CC-SV", "powerlaw", "sigterm")]
    return sweep


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def run_cell(app: str, graph_name: str, kind: str) -> dict:
    graph = load_graph(graph_name)
    hosts = 4

    start = time.perf_counter()
    oracle = run_kimbap(app, graph_name, hosts, graph=graph)
    oracle_s = time.perf_counter() - start
    oracle_bytes = canonical(oracle)

    # Fault-free run with the supervisor armed: probes the boundary count
    # and prices the watching itself.
    start = time.perf_counter()
    clean = run_kimbap(
        app, graph_name, hosts, graph=graph, jobs=JOBS, recovery="refork"
    )
    clean_s = time.perf_counter() - start
    boundaries = clean.parallel["boundaries"]
    boundary = max(1, boundaries // 2)

    chaos = ChaosPlan(
        name=f"{kind}@{boundary}",
        events=(ChaosEvent(boundary=boundary, worker=1, kind=kind),),
    )
    start = time.perf_counter()
    killed = run_kimbap(
        app,
        graph_name,
        hosts,
        graph=graph,
        jobs=JOBS,
        recovery="refork",
        chaos_plan=chaos,
    )
    killed_s = time.perf_counter() - start
    stats = killed.parallel

    diverged = sorted(
        key
        for key, result in (("clean_j4", clean), ("killed_j4", killed))
        if canonical(result) != oracle_bytes or result.values != oracle.values
    )
    return {
        "app": app,
        "graph": graph_name,
        "hosts": hosts,
        "kind": kind,
        "boundary": boundary,
        "boundaries": boundaries,
        "wallclock_s": {"j1": oracle_s, "clean_j4": clean_s, "killed_j4": killed_s},
        "recovery_cost": (killed_s / clean_s) if clean_s > 0 else float("inf"),
        "watch_cost": (clean_s / oracle_s) if oracle_s > 0 else float("inf"),
        "deaths_detected": int(stats["deaths_detected"]),
        "heals": int(stats["heals"]),
        "reforks": int(stats["reforks"]),
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
            r["kind"],
            f"{r['boundary']}/{r['boundaries']}",
            f"{r['wallclock_s']['j1']:.3f}",
            f"{r['wallclock_s']['clean_j4']:.3f}",
            f"{r['wallclock_s']['killed_j4']:.3f}",
            f"{r['recovery_cost']:.2f}x",
            r["heals"],
            "yes" if r["identical"] else "DIVERGED",
        )
        for r in rows
    ]
    text = f"\n\n===== {TITLE} =====\n" + format_table(HEADERS, printable) + "\n"
    print(text)

    reports_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reports")
    os.makedirs(reports_dir, exist_ok=True)
    with open(os.path.join(reports_dir, "bench_chaos_recovery.txt"), "w") as handle:
        handle.write(text)
    report = {
        "schema": REPORT_SCHEMA,
        "module": "bench_chaos_recovery",
        "title": TITLE,
        "headers": list(HEADERS),
        "results": [],
        "rows": [list(row) for row in printable],
        "cells": rows,
        "jobs": JOBS,
        "cpu_count": os.cpu_count(),
        "fast_mode": fast_mode(),
    }
    with open(os.path.join(reports_dir, "bench_chaos_recovery.json"), "w") as handle:
        json.dump(report, handle, indent=1)

    failed = False
    for r in rows:
        for key in r["diverged"]:
            failed = True
            print(
                f"EQUIVALENCE FAILURE: {r['app']} on {r['graph']} "
                f"({r['kind']}@{r['boundary']}) - {key} "
                "RunResult.to_dict() diverged from jobs=1",
                file=sys.stderr,
            )
        if r["deaths_detected"] < 1 or r["heals"] < 1:
            failed = True
            print(
                f"CHAOS FAILURE: {r['app']} ({r['kind']}@{r['boundary']}) "
                "never killed a worker "
                f"(deaths={r['deaths_detected']}, heals={r['heals']})",
                file=sys.stderr,
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
