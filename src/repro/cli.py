"""Command-line interface: run algorithms, print workload stats, sweep variants.

Examples::

    python -m repro stats                          # Table 1 analog stats
    python -m repro run CC-SV --graph road --hosts 4
    python -m repro run PR --graph powerlaw --bulk --jobs 4   # same bytes, more cores
    python -m repro run PR --graph road --engine async        # priority/delta engine
    python -m repro engines CC-LP --graph powerlaw --hosts 4  # async vs BSP oracle
    python -m repro run LV --graph powerlaw --hosts 8 --variant mc
    python -m repro variants CC-SV --graph powerlaw --hosts 4
    python -m repro compare-lv --graph road --hosts 4   # Kimbap vs Vite
    python -m repro trace BFS --graph road --hosts 4 --out trace.json
    python -m repro profile LV --graph powerlaw --hosts 4 --top 10
    python -m repro faults BFS --graph road --hosts 4 --plan crash
    python -m repro faults PR --graph powerlaw --plan chaos --report f.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.cluster import Cluster
from repro.core.variants import RuntimeVariant
from repro.eval.harness import APP_POLICY, KIMBAP_APPS, run_galois, run_kimbap, run_vite
from repro.eval.reporting import format_phase_breakdown, format_table
from repro.eval.workloads import GRAPHS, load_graph
from repro.exec import (
    ENGINES,
    PLAN_SCHEMA,
    Executor,
    UnsupportedPlanError,
    format_plan_summary,
    plan_summary,
)
from repro.faults import NAMED_PLANS, named_plan
from repro.graph import generators
from repro.graph.stats import compute_stats
from repro.partition import partition
from repro.trace import top_phases, write_chrome_trace
from repro.verify import VerificationError, check_equivalent_values

VARIANTS_BY_LABEL = {variant.label: variant for variant in RuntimeVariant}


def positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1 (hosts, threads,
    worker processes): anything else is a usage error, not a traceback
    or a silent fallback."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _result_rows(results) -> str:
    return format_table(
        ("system", "app", "graph", "hosts", "comp(s)", "comm(s)", "total(s)"),
        [result.row() for result in results],
    )


def cmd_stats(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(GRAPHS):
        stats = compute_stats(name, load_graph(name, scale=args.scale))
        rows.append(stats.row())
    print(
        format_table(
            ("graph", "|V|", "|E|", "|E|/|V|", "max deg", "diam>=", "MB"), rows
        )
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    variant = VARIANTS_BY_LABEL[args.variant]
    result = run_kimbap(
        args.app,
        args.graph,
        args.hosts,
        variant=variant,
        threads=args.threads,
        bulk=args.bulk,
        jobs=args.jobs,
        engine=args.engine,
    )
    print(_result_rows([result]))
    print(f"rounds: {result.rounds}")
    if getattr(result, "async_stats", None):
        stats = result.async_stats
        print(f"async chunks: {stats['chunks']}, updates: {stats['updates']}")
    for key, value in sorted(result.stats.items()):
        print(f"{key}: {value}")
    print(f"messages: {result.messages}, bytes: {result.bytes}")
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(result.to_dict(), handle, indent=1, sort_keys=True)
        print(f"wrote run result JSON to {args.report}")
    return 0


def cmd_variants(args: argparse.Namespace) -> int:
    results = [
        run_kimbap(
            args.app,
            args.graph,
            args.hosts,
            variant=variant,
            threads=args.threads,
            bulk=args.bulk,
            jobs=args.jobs,
            engine=args.engine,
        )
        for variant in (
            RuntimeVariant.MC,
            RuntimeVariant.SGR_ONLY,
            RuntimeVariant.SGR_CF,
            RuntimeVariant.KIMBAP,
        )
    ]
    print(_result_rows(results))
    return 0


def cmd_compare_lv(args: argparse.Namespace) -> int:
    kimbap = run_kimbap(
        "LV",
        args.graph,
        args.hosts,
        threads=args.threads,
        bulk=args.bulk,
        jobs=args.jobs,
        engine=args.engine,
    )
    vite = run_vite(args.graph, args.hosts, threads=args.threads)
    galois = run_galois("LV", args.graph, threads=args.threads)
    print(_result_rows([kimbap, vite, galois]))
    # Kimbap and Vite run one deterministic Louvain; Galois moves in place
    # and asynchronously, so its clustering differs and is not checked.
    identical = kimbap.values == vite.values and kimbap.rounds == vite.rounds
    print(
        f"speedup over Vite: {vite.total / kimbap.total:.2f}x "
        f"(identical clustering: {identical}; rounds {kimbap.rounds} vs {vite.rounds})"
    )
    return 0 if identical else 1


def cmd_trace(args: argparse.Namespace) -> int:
    variant = VARIANTS_BY_LABEL[args.variant]
    result = run_kimbap(
        args.app,
        args.graph,
        args.hosts,
        variant=variant,
        threads=args.threads,
        bulk=args.bulk,
        jobs=args.jobs,
        engine=args.engine,
    )
    timeline = result.timeline()
    write_chrome_trace(args.out, timeline)
    cluster = result.cluster
    print(_result_rows([result]))
    print(format_phase_breakdown(cluster.log, cluster.cost_model, result.threads))
    print(
        f"wrote {len(cluster.log.phases)} phases x {result.hosts} hosts "
        f"({timeline.total:.3f} modeled s) to {args.out}"
    )
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(result.to_dict(), handle, indent=1)
        print(f"wrote run result JSON to {args.report}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    variant = VARIANTS_BY_LABEL[args.variant]
    result = run_kimbap(
        args.app,
        args.graph,
        args.hosts,
        variant=variant,
        threads=args.threads,
        bulk=args.bulk,
        jobs=args.jobs,
        engine=args.engine,
    )
    cluster = result.cluster
    costs = top_phases(cluster.log, cluster.cost_model, result.threads, k=args.top)
    rows = []
    for cost in costs:
        share = 100.0 * cost.time.total / result.total if result.total else 0.0
        total_units = sum(cost.breakdown.values())
        attribution = "  ".join(
            f"{name}:{100.0 * units / total_units:.0f}%"
            for name, units in sorted(
                cost.breakdown.items(), key=lambda item: -item[1]
            )[:3]
        )
        rows.append(
            (
                cost.phase_index,
                cost.round,
                cost.kind.value,
                cost.operator or cost.label or "-",
                f"{cost.time.total:.4f}",
                f"{share:.1f}%",
                attribution or "-",
            )
        )
    print(_result_rows([result]))
    print(
        format_table(
            ("#", "round", "phase", "operator", "total (s)", "share", "top weighted units"),
            rows,
        )
    )
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    variant = VARIANTS_BY_LABEL[args.variant]
    if args.engine != "bsp":
        print("faults requires --engine bsp (the async engine refuses fault plans)")
        return 1
    plan = named_plan(
        args.plan,
        seed=args.seed,
        hosts=args.hosts,
        crash_round=args.crash_round,
        checkpoint_interval=args.checkpoint_interval,
    )
    baseline = run_kimbap(
        args.app,
        args.graph,
        args.hosts,
        variant=variant,
        threads=args.threads,
        bulk=args.bulk,
        jobs=args.jobs,
    )
    faulted = run_kimbap(
        args.app,
        args.graph,
        args.hosts,
        variant=variant,
        threads=args.threads,
        fault_plan=plan,
        bulk=args.bulk,
        jobs=args.jobs,
    )
    print(_result_rows([baseline, faulted]))
    if faulted.outcome != "ok":
        print(f"faulted run FAILED: {faulted.outcome} ({faulted.failure})")
        return 1
    if baseline.values is not None and faulted.values is not None:
        try:
            check_equivalent_values(baseline.values, faulted.values)
        except VerificationError as error:
            print(f"EQUIVALENCE FAILED: {error}")
            return 1
        print(f"equivalence: faulted values identical to fault-free baseline "
              f"({len(baseline.values)} nodes)")
    overhead = (
        100.0 * (faulted.total - baseline.total) / baseline.total
        if baseline.total
        else 0.0
    )
    report = faulted.faults or {}
    print(
        f"plan {plan.name!r} (seed {plan.seed}, checkpoint interval "
        f"{plan.checkpoint_interval}): overhead {overhead:+.1f}% over fault-free"
    )
    print(
        f"  drops: {report.get('messages_dropped', 0)}"
        f"  retries: {report.get('retries', 0)}"
        f"  duplicates: {report.get('messages_duplicated', 0)}"
        f"  kv timeouts: {report.get('kv_timeouts', 0)}"
    )
    print(
        f"  checkpoints: {report.get('checkpoints_taken', 0)} "
        f"({report.get('checkpoint_bytes', 0)} bytes, "
        f"{report.get('checkpoint_time', 0.0):.4f}s)"
        f"  recoveries: {report.get('recoveries', 0)} "
        f"({report.get('rounds_replayed', 0)} rounds replayed, "
        f"{report.get('recovery_time', 0.0):.4f}s)"
    )
    for event in report.get("events", []):
        if event.get("kind") != "checkpoint":  # checkpoints are summarized above
            print(f"  event: {event}")
    if args.out:
        timeline = faulted.timeline()
        write_chrome_trace(args.out, timeline)
        print(f"wrote faulted-run Chrome trace to {args.out}")
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(faulted.to_dict(), handle, indent=1)
        print(f"wrote faulted-run result JSON to {args.report}")
    return 0


# Value-equivalence tolerance for `repro engines` (absolute, per node).
# CC-LP and SSSP converge to the exact same fixed point under any schedule;
# delta-PageRank accumulates in a different order, so ranks agree only to
# the residual tolerance the plan declares.
ENGINE_APP_TOLERANCE = {"PR": 1e-6, "SSSP": 1e-9}


def cmd_engines(args: argparse.Namespace) -> int:
    """Run BSP and async on the same workload and check value equivalence.

    The BSP run is the oracle; the async run must land on the same per-node
    values (within the per-app tolerance). Prints both modeled times plus
    the async engine's chunk/update counts, and exits 1 on divergence or
    when the app has no async-eligible kernel - the CLI face of the
    conformance table's async cells.
    """
    tolerance = (
        args.tolerance
        if args.tolerance is not None
        else ENGINE_APP_TOLERANCE.get(args.app, 0.0)
    )
    bsp = run_kimbap(
        args.app, args.graph, args.hosts, threads=args.threads, engine="bsp"
    )
    try:
        asynchronous = run_kimbap(
            args.app, args.graph, args.hosts, threads=args.threads, engine="async"
        )
    except UnsupportedPlanError as error:
        print(f"async engine cannot run {args.app}: {error}")
        return 1
    print(_result_rows([bsp, asynchronous]))
    stats = getattr(asynchronous, "async_stats", None) or {}
    print(
        f"bsp rounds: {bsp.rounds}  async chunks: {stats.get('chunks', '?')}  "
        f"async updates: {stats.get('updates', '?')}"
    )
    if asynchronous.total:
        print(f"modeled speedup (async over bsp): {bsp.total / asynchronous.total:.2f}x")
    if bsp.values is None or asynchronous.values is None:
        print("ENGINE EQUIVALENCE FAILED: a run produced no values")
        return 1
    try:
        check_equivalent_values(bsp.values, asynchronous.values, tolerance)
    except VerificationError as error:
        print(f"ENGINE EQUIVALENCE FAILED: {error}")
        return 1
    print(
        f"equivalence: async values match the BSP oracle within {tolerance} "
        f"({len(bsp.values)} nodes)"
    )
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Print the operator plan one application executes.

    The application runs once on a tiny built-in graph with an observing
    executor; the plan handed to ``Executor.run`` is reported - one per
    level for Louvain / Leiden, whose level loop is host code - so the
    output is the real executed plan tree, not a static description.
    """
    graph = generators.road_like(4, 3, seed=1, weighted=True)
    hosts = 2
    pgraph = partition(graph, hosts, APP_POLICY[args.app])
    cluster = Cluster(hosts, threads_per_host=2)
    summaries: list[dict] = []
    executor = Executor(
        cluster, observer=lambda plan: summaries.append(plan_summary(plan))
    )
    KIMBAP_APPS[args.app](cluster, pgraph, executor=executor)
    if args.json:
        print(
            json.dumps(
                {"schema": PLAN_SCHEMA, "app": args.app, "plans": summaries},
                indent=1,
            )
        )
    else:
        for summary in summaries:
            print(format_plan_summary(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Kimbap reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="print the Table 1 analog statistics")
    stats.add_argument("--scale", type=int, default=None)
    stats.set_defaults(fn=cmd_stats)

    def common(sub_parser):
        sub_parser.add_argument("--graph", choices=sorted(GRAPHS), default="road")
        sub_parser.add_argument("--hosts", type=positive_int, default=4)
        sub_parser.add_argument("--threads", type=positive_int, default=48)
        sub_parser.add_argument(
            "--jobs",
            type=positive_int,
            default=1,
            help="simulator worker processes (host-shard parallel execution; "
            "results are byte-identical to --jobs 1)",
        )
        sub_parser.add_argument(
            "--bulk",
            action="store_true",
            help="use the vectorized bulk kernel backend (byte-identical)",
        )
        sub_parser.add_argument(
            "--engine",
            choices=ENGINES,
            default="bsp",
            help="execution engine: 'bsp' (round-synchronous, the default) "
            "or 'async' (priority/delta, value-equivalent, jobs=1 only)",
        )

    run = sub.add_parser("run", help="run one application on the simulated cluster")
    run.add_argument("app", choices=sorted(KIMBAP_APPS))
    common(run)
    run.add_argument(
        "--variant", choices=sorted(VARIANTS_BY_LABEL), default=RuntimeVariant.KIMBAP.label
    )
    run.add_argument(
        "--report", default=None, help="also write the RunResult JSON here"
    )
    run.set_defaults(fn=cmd_run)

    variants = sub.add_parser(
        "variants", help="run one application on all four runtime variants"
    )
    variants.add_argument("app", choices=sorted(KIMBAP_APPS))
    common(variants)
    variants.set_defaults(fn=cmd_variants)

    compare = sub.add_parser("compare-lv", help="Kimbap vs Vite vs Galois Louvain")
    common(compare)
    compare.set_defaults(fn=cmd_compare_lv)

    trace = sub.add_parser(
        "trace",
        help="run one application and export a Chrome trace_event JSON "
        "timeline (load in chrome://tracing or Perfetto)",
    )
    trace.add_argument("app", choices=sorted(KIMBAP_APPS))
    common(trace)
    trace.add_argument(
        "--variant", choices=sorted(VARIANTS_BY_LABEL), default=RuntimeVariant.KIMBAP.label
    )
    trace.add_argument("--out", default="trace.json", help="trace output path")
    trace.add_argument(
        "--report", default=None, help="also write the RunResult JSON here"
    )
    trace.set_defaults(fn=cmd_trace)

    profile = sub.add_parser(
        "profile", help="top-k costliest phases by modeled time, with attribution"
    )
    profile.add_argument("app", choices=sorted(KIMBAP_APPS))
    common(profile)
    profile.add_argument(
        "--variant", choices=sorted(VARIANTS_BY_LABEL), default=RuntimeVariant.KIMBAP.label
    )
    profile.add_argument("--top", type=int, default=10)
    profile.set_defaults(fn=cmd_profile)

    faults = sub.add_parser(
        "faults",
        help="run one application under a named fault plan and report "
        "recovery equivalence plus overhead vs the fault-free baseline",
    )
    faults.add_argument("app", choices=sorted(KIMBAP_APPS))
    common(faults)
    faults.add_argument(
        "--variant", choices=sorted(VARIANTS_BY_LABEL), default=RuntimeVariant.KIMBAP.label
    )
    faults.add_argument("--plan", choices=NAMED_PLANS, default="crash")
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument(
        "--crash-round", type=int, default=3, help="round of the injected crash"
    )
    faults.add_argument(
        "--checkpoint-interval",
        type=int,
        default=2,
        help="rounds between checkpoints (0 disables checkpointing)",
    )
    faults.add_argument("--out", default=None, help="Chrome trace output path")
    faults.add_argument(
        "--report", default=None, help="write the faulted RunResult JSON here"
    )
    faults.set_defaults(fn=cmd_faults)

    engines = sub.add_parser(
        "engines",
        help="run one application under both engines and verify the async "
        "priority/delta result is value-equivalent to the BSP oracle",
    )
    engines.add_argument("app", choices=sorted(KIMBAP_APPS))
    engines.add_argument("--graph", choices=sorted(GRAPHS), default="road")
    engines.add_argument("--hosts", type=positive_int, default=4)
    engines.add_argument("--threads", type=positive_int, default=48)
    engines.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="absolute per-node tolerance (default: per-app, exact for "
        "monotone apps, 1e-6 for PR)",
    )
    engines.set_defaults(fn=cmd_engines)

    plan = sub.add_parser(
        "plan",
        help="print the operator plan(s) an application executes "
        "(text, or --json for the repro-exec-plan/v1.3 schema)",
    )
    plan.add_argument("app", choices=sorted(KIMBAP_APPS))
    plan.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    plan.set_defaults(fn=cmd_plan)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
