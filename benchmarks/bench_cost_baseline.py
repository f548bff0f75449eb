#!/usr/bin/env python
"""COST guardrail: simulator configurations vs single-threaded loops.

"Scalability! But at what COST?" (McSherry et al.) asks of every parallel
system: which Configuration Outperforms a Single Thread? This bench
applies that discipline to the reproduction's own execution backends.
Per app (PageRank, SSSP, CC-LP) it times three single-thread yardsticks
and the full backend configuration matrix on the same workload:

* ``straight`` - :data:`repro.baselines.cost.COST_STRAIGHT`: the same
  round-based algorithm the simulated app runs, as one plain Python
  loop over the CSR arrays (no simulator, no metering).
* ``tuned`` - :data:`repro.baselines.cost.COST_BASELINES`: the best
  sequential algorithm (Dijkstra, union-find; PageRank's straight loop
  is already the tuned one).
* ``scalar j1`` - the simulator's own single-threaded scalar reference
  configuration, producing the full metered deliverable (counters,
  modeled seconds, traces).

For each yardstick the report lists the cheapest winning configuration -
fewest cores first, then wall clock - or ``unbounded`` when no
configuration wins. The honest headline matches the COST paper's: at
bench scales, the metered simulator does **not** beat the tuned (or even
the straight same-algorithm) Python loop for the frontier apps - that
unbounded external COST is the paper's reproduced finding, printed, not
hidden. The CI floor therefore gates on the internal yardstick: when
armed (>=4 cores or ``REPRO_BENCH_REQUIRE_SPEEDUP=1``, the
arm-only-in-CI pattern), PageRank, SSSP, and CC-LP must each report a
configuration that beats the single-thread scalar baseline, so
bulk/parallel gains are always re-proven against a single
thread and the external COST columns are always published next to them.

Every configuration's final property values are verified against the
baseline oracles (PageRank to 1e-9 absolute - the vectorized fold order
differs - SSSP and CC exactly); any divergence exits non-zero
regardless of gating.

Outputs ``benchmarks/reports/bench_cost_baseline.{json,txt}`` in the
standard ``repro-bench-report/v1`` schema. ``REPRO_BENCH_FAST=1``
shrinks the matrix, ``REPRO_BENCH_SCALE`` rescales the graphs (larger
scales amortize per-round machinery and move the external COST
frontier).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.baselines.cost import (  # noqa: E402
    COST_BASELINES,
    COST_STRAIGHT,
    cost_pagerank,
)
from repro.eval.harness import run_kimbap  # noqa: E402
from repro.eval.workloads import load_graph  # noqa: E402

REPORT_SCHEMA = "repro-bench-report/v1"
TITLE = "COST guardrail: cheapest configuration beating a single thread"
PR_TOLERANCE = 1e-9
# Configuration matrix: (column key, bulk flag, jobs, cores).
# ``cores`` is the configuration's price in the COST ordering - cheapest
# (fewest cores, then fastest) winning configuration is the app's COST.
MATRIX = (
    ("scalar_j1", False, 1, 1),
    ("bulk_j1", True, 1, 1),
    ("bulk_j2", True, 2, 2),
    ("bulk_j4", True, 4, 4),
)
YARDSTICKS = ("straight", "tuned", "scalar")
HEADERS = (
    "app",
    "graph",
    "straight(s)",
    "tuned(s)",
    "scalar j1(s)",
    "bulk j1(s)",
    "bulk j2(s)",
    "bulk j4(s)",
    "COST straight",
    "COST tuned",
    "COST scalar",
    "values",
)


def fast_mode() -> bool:
    return os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


def gate_cost() -> bool:
    """The COST floor is armed exactly like the speedup gates: forced by
    env, or automatically on runners with at least 4 real cores."""
    forced = os.environ.get("REPRO_BENCH_REQUIRE_SPEEDUP", "")
    if forced not in ("", "0"):
        return True
    return (os.cpu_count() or 1) >= 4


def matrix() -> tuple:
    if fast_mode():
        return tuple(entry for entry in MATRIX if entry[0] != "bulk_j2")
    return MATRIX


def repetitions() -> int:
    return 1 if fast_mode() else 2


def best_of(fn, reps: int) -> float:
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def baseline_values(app: str, graph) -> list:
    if app == "PR":
        return cost_pagerank(graph)[0]
    return COST_BASELINES[app](graph)


def values_diverge(app: str, values: dict, oracle: list) -> bool:
    """Compare a run's final per-node values against the baseline oracle:
    PR to a tight absolute tolerance (vectorized fold order differs),
    SSSP/CC exactly."""
    if len(values) != len(oracle):
        return True
    for node, expected in enumerate(oracle):
        got = values[node]
        if app == "PR":
            if abs(got - expected) > PR_TOLERANCE:
                return True
        elif got != expected:
            return True
    return False


def cheapest_winner(yardstick_s: float, configs: list[dict]) -> dict | None:
    """The app's COST against one yardstick: the cheapest configuration
    (fewest cores, then fastest) whose wall clock beats it."""
    winners = [c for c in configs if c["wallclock_s"] < yardstick_s]
    if not winners:
        return None
    return min(winners, key=lambda c: (c["cores"], c["wallclock_s"]))


def run_cell(app: str, graph_name: str, hosts: int) -> dict:
    reps = repetitions()
    graph = load_graph(graph_name, weighted=(app == "SSSP"))
    oracle = baseline_values(app, graph)
    baseline_s = {
        "straight": best_of(lambda: COST_STRAIGHT[app](graph), reps),
        "tuned": best_of(lambda: COST_BASELINES[app](graph), reps),
    }
    configs = []
    diverged = []
    for key, bulk, jobs, cores in matrix():
        result = run_kimbap(
            app, graph_name, hosts, graph=graph, bulk=bulk, jobs=jobs
        )
        if values_diverge(app, result.values, oracle):
            diverged.append(key)
        wallclock = best_of(
            lambda: run_kimbap(
                app, graph_name, hosts, graph=graph, bulk=bulk, jobs=jobs
            ),
            reps,
        )
        configs.append({"key": key, "cores": cores, "wallclock_s": wallclock})
    by_key = {c["key"]: c for c in configs}
    baseline_s["scalar"] = by_key["scalar_j1"]["wallclock_s"]
    # The scalar reference cannot win against itself; every other
    # configuration competes against every yardstick.
    cost = {
        yardstick: cheapest_winner(
            baseline_s[yardstick],
            [c for c in configs if c["key"] != "scalar_j1"],
        )
        for yardstick in YARDSTICKS
    }
    return {
        "app": app,
        "graph": graph_name,
        "hosts": hosts,
        "baseline_s": baseline_s,
        "configs": configs,
        "cost": {
            yardstick: (winner["key"] if winner else None)
            for yardstick, winner in cost.items()
        },
        "identical": not diverged,
        "diverged": diverged,
    }


def main() -> int:
    cells = [
        run_cell("PR", "powerlaw", 4),
        run_cell("SSSP", "powerlaw", 4),
        run_cell("CC-LP", "powerlaw", 4),
    ]

    from repro.eval.reporting import format_table

    def seconds(cell: dict, key: str) -> str:
        config = next((c for c in cell["configs"] if c["key"] == key), None)
        return f"{config['wallclock_s']:.3f}" if config else "-"

    printable = [
        (
            cell["app"],
            cell["graph"],
            f"{cell['baseline_s']['straight']:.3f}",
            f"{cell['baseline_s']['tuned']:.3f}",
            seconds(cell, "scalar_j1"),
            seconds(cell, "bulk_j1"),
            seconds(cell, "bulk_j2"),
            seconds(cell, "bulk_j4"),
            cell["cost"]["straight"] or "unbounded",
            cell["cost"]["tuned"] or "unbounded",
            cell["cost"]["scalar"] or "unbounded",
            "ok" if cell["identical"] else "DIVERGED",
        )
        for cell in cells
    ]
    text = f"\n\n===== {TITLE} =====\n" + format_table(HEADERS, printable) + "\n"
    print(text)

    reports_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reports")
    os.makedirs(reports_dir, exist_ok=True)
    with open(os.path.join(reports_dir, "bench_cost_baseline.txt"), "w") as handle:
        handle.write(text)
    report = {
        "schema": REPORT_SCHEMA,
        "module": "bench_cost_baseline",
        "title": TITLE,
        "headers": list(HEADERS),
        "results": [],
        "rows": [list(row) for row in printable],
        "cells": cells,
        "matrix": [list(entry) for entry in matrix()],
        "yardsticks": list(YARDSTICKS),
        "cpu_count": os.cpu_count(),
        "cost_gated": gate_cost(),
        "fast_mode": fast_mode(),
    }
    with open(os.path.join(reports_dir, "bench_cost_baseline.json"), "w") as handle:
        json.dump(report, handle, indent=1)

    failed = False
    for cell in cells:
        for key in cell["diverged"]:
            failed = True
            print(
                f"VALUE DIVERGENCE: {cell['app']} on {cell['graph']} @ "
                f"{cell['hosts']} hosts - {key} final values diverged from "
                "the single-threaded baseline oracle",
                file=sys.stderr,
            )
        if gate_cost() and cell["cost"]["scalar"] is None:
            failed = True
            print(
                f"COST FAILURE: {cell['app']} on {cell['graph']} @ "
                f"{cell['hosts']} hosts - no configuration beats the "
                "single-thread scalar baseline "
                f"({cell['baseline_s']['scalar']:.3f}s, "
                f"cpu_count={os.cpu_count()})",
                file=sys.stderr,
            )
    if failed:
        return 1
    for cell in cells:
        print(
            f"{cell['app']}: COST vs straight loop = "
            f"{cell['cost']['straight'] or 'unbounded'}, vs tuned loop = "
            f"{cell['cost']['tuned'] or 'unbounded'}, vs scalar config = "
            f"{cell['cost']['scalar'] or 'unbounded'} "
            f"(straight {cell['baseline_s']['straight']:.3f}s, tuned "
            f"{cell['baseline_s']['tuned']:.3f}s, scalar "
            f"{cell['baseline_s']['scalar']:.3f}s)"
        )
    print(f"cpu_count={os.cpu_count()}, gated={gate_cost()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
