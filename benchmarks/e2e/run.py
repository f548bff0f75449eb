"""The repo benchmark: one command, every metric by name, outputs checked.

Two ways in, one measurement procedure (``bench.measure``):

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` (the form the
  benchmark driver calls) measures one workload in this process and prints
  two JSON lines: the full record, then - last - the result with the
  end-to-end metrics of BENCHMARK.json from untraced runs (``--trace 0``)
  or its per-layer metrics from a separate traced run (``--trace 1``).
* ``run.py [--seed N] [--workload NAME ...]`` runs each workload both ways,
  each in a fresh subprocess (clean RSS, clean memo caches), prints every
  metric with its unit and writes ``results/latest.json`` plus one
  ``results/trace-<workload>.json`` per workload. ``--selfcheck`` runs the
  untraced set twice on the same code and fails if two medians differ by
  more than the metric's bound: the tool that tells noise from regression.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
sys.path[:0] = [SRC, HERE]


def _children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me, found = str(os.getpid()), []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as src:
                after_name = src.read().rpartition(")")[2].split()  # state, ppid, ...
        except OSError:
            continue  # ended while we looked
        if after_name[1] == me:
            found.append(int(pid))
    return found


def _stop_children() -> None:
    """Leave no process behind: stop every child and wait until it has ended.

    The ``jobs=2`` pool's shared-memory arenas start multiprocessing's
    resource tracker, which exits only once its pipe closes - normally
    *after* this process has. It is stopped the orderly way first; anything
    else still alive (a pool worker after a crash) is killed.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    try:
        tracker._resource_tracker._stop()  # closes the pipe, waits for the tracker
    except (AttributeError, OSError):
        pass
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


# Registered before anything else is imported, so it runs after every other
# exit handler (the pool's segment guard, multiprocessing's own) on every
# path out: normal return, failed checks, sys.exit, an exception.
atexit.register(_stop_children)

import spans  # noqa: E402
import workloads as wl  # noqa: E402

SPAN_SECONDS = {f"{target[2]}_s" for target in spans.SPAN_TARGETS}


# ------------------------------------------------------------- one workload


def run_one(workload: wl.Workload, seed: int, seconds: float, trace: bool) -> int:
    import bench

    record = bench.measure(workload, seed, seconds, trace)
    values = record["per_layer" if trace else "end_to_end"]
    for failure in record["check_failures"]:
        print(f"CHECK FAILED {workload.name}: {failure}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["checks_failed"] == 0,
        "attempted": record["checks_attempted"],
        "failed": record["checks_failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wl.MANIFEST["per_layer" if trace else "end_to_end"]
        },
    }))
    return 1 if record["checks_failed"] else 0


# ------------------------------------------------------------ the whole set


def _git_sha() -> str | None:
    """HEAD of the checkout; None where it is not a git repository."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "seed": seed,
        "seconds": wl.DEFAULT_SECONDS,
    }


def _child(workload: wl.Workload, seed: int, trace: bool) -> dict:
    """One workload, one mode, in a fresh process; returns its full record."""
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload.name,
         "--seed", str(seed), "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=600)
    except BaseException:  # timeout, Ctrl-C: take its pool workers down with it
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    lines = stdout.splitlines()
    if len(lines) < 2:
        sys.exit(f"run.py: {workload.name} (trace={int(trace)}) exited {child.returncode} without a result")
    return json.loads(lines[-2])


def _print_metrics(name: str, record: dict) -> None:
    print(f"\n== {name}: {record['nodes']:,} nodes, {record['edges']:,} edges, "
          f"{record['rounds']:,} rounds, n={record['timed_runs']} timed runs, "
          f"{record['elapsed_s']:.1f} s for both processes")
    walls = record["wall_samples_s"]
    for metric, value in record["end_to_end"].items():
        note = f"  (median; min {min(walls):.4g}, max {max(walls):.4g})" if metric == "wall_s" else ""
        print(f"  {metric:<40}{value:>16.6g} {wl.UNITS[metric]}{note}")
    print(f"  {'checks':<40}{record['checks_failed']:>10} failed of {record['checks_attempted']}")
    traced_wall = record["per_layer"]["trace.traced_wall_s"]
    for metric, value in sorted(record["per_layer"].items()):
        share = f"  {value / traced_wall:6.1%} of the traced run" if metric in SPAN_SECONDS else ""
        print(f"  {metric:<40}{value:>16.6g} {wl.UNITS[metric]}{share}")


def _check(record: dict, what: str, ok: bool) -> None:
    record["checks_attempted"] += 1
    if not ok:
        record["checks_failed"] += 1
        record["check_failures"].append(what)


def run_set(names: list[str], seed: int) -> int:
    begin = time.perf_counter()
    out = {"schema": "repro-e2e-bench/v1", "environment": _environment(seed), "workloads": {}}
    failed = 0
    for name in names:
        workload = wl.BY_NAME[name]
        record = _child(workload, seed, trace=False)
        traced = _child(workload, seed, trace=True)
        # The traced process simulated the same thing, exactly.
        _check(record, "traced process: report sha256 differs", traced["report_sha256"] == record["report_sha256"])
        _check(record, "traced process: sim.* differ", traced["sim"] == record["sim"])
        twin = out["workloads"].get(wl.SERIAL_TWIN.get(name))
        if twin is not None:
            _check(record, f"report differs from {twin['workload']}", twin["report_sha256"] == record["report_sha256"])
        record["per_layer"] = traced["per_layer"]
        record["elapsed_s"] += traced["elapsed_s"]
        record["checks_attempted"] += traced["checks_attempted"]
        record["checks_failed"] += traced["checks_failed"]
        record["check_failures"] += traced["check_failures"]
        record["end_to_end"]["check_fail_frac"] = record["checks_failed"] / record["checks_attempted"]
        if workload.run_args.get("jobs", 1) > (os.cpu_count() or 1):
            record["oversubscribed"] = True  # wall_s not comparable across machines
        del record["trace"]
        out["workloads"][name] = record
        _print_metrics(name, record)
        failed += record["checks_failed"]
        for failure in record["check_failures"]:
            print(f"  CHECK FAILED: {failure}")
    out["elapsed_s"] = time.perf_counter() - begin
    target = os.path.join(HERE, "results", "latest.json")
    with open(target, "w", encoding="utf-8") as dst:
        json.dump(out, dst, indent=1, sort_keys=True)
        dst.write("\n")
    verdict = f"{failed} checks failed" if failed else "all checks passed"
    print(f"\nwrote {os.path.relpath(target, ROOT)} after {out['elapsed_s']:.0f} s; {verdict}")
    return 1 if failed else 0


def selfcheck(names: list[str], seed: int) -> int:
    """A/A: the same code measured twice must agree within every bound."""
    bad = 0
    print(f"{'workload':<28}{'metric':<20}{'A':>14}{'B':>14}{'worse by':>10}{'bound':>8}")
    for name in names:
        workload = wl.BY_NAME[name]
        first = _child(workload, seed, trace=False)
        second = _child(workload, seed, trace=False)
        for metric in wl.END_TO_END:
            a, b = first["end_to_end"][metric.name], second["end_to_end"][metric.name]
            worse = (b - a if metric.better == "lower" else a - b) / a if a else float(b != a)
            ok = a == b if metric.bound == 0 else abs(worse) <= metric.bound
            bad += not ok
            print(f"{name:<28}{metric.name:<20}{a:>14.6g}{b:>14.6g}{worse:>+10.2%}"
                  f"{metric.bound:>8.0%}{'' if ok else '  OUT OF BOUND'}")
        for stat, value in first["sim"].items():
            if value != second["sim"][stat]:
                bad += 1
                print(f"{name:<28}{stat:<20} differs: {value!r} != {second['sim'][stat]!r}")
        attempted = first["checks_attempted"] + second["checks_attempted"]
        failed = first["checks_failed"] + second["checks_failed"]
        bad += failed
        print(f"{name:<28}{'checks':<20}{failed:>14} failed of {attempted}")
    print("selfcheck: " + ("FAILED" if bad else "two runs of the same code agree within every bound"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(wl.BY_NAME), metavar="NAME",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure one workload in this process, untraced (0) or traced (1), "
                             "and print the result line")
    parser.add_argument("--seconds", type=float, default=wl.DEFAULT_SECONDS,
                        help="with --trace, how long the timed runs repeat; passed by the benchmark "
                             f"driver as BENCHMARK.json's run_seconds ({wl.DEFAULT_SECONDS}), "
                             "which every other mode always uses")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    names = [w.name for w in wl.WORKLOADS if not args.workload or w.name in args.workload]
    if args.trace is not None:
        if len(names) != 1:
            parser.error("--trace measures exactly one --workload")
        return run_one(wl.BY_NAME[names[0]], args.seed, args.seconds, bool(args.trace))
    if args.seconds != wl.DEFAULT_SECONDS:
        parser.error("--seconds goes with --trace")
    if args.selfcheck:
        return selfcheck(names, args.seed)
    return run_set(names, args.seed)


if __name__ == "__main__":
    sys.exit(main())
