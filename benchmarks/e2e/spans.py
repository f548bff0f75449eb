"""Outside-in wall-clock spans for the traced run.

Nothing under ``src/`` knows about tracing: this module swaps class
attributes and module-level names for timing wrappers *before* the traced
``Executor`` is built (codegen prebinds bound methods at compile time, so
a wrapper installed later would be bypassed), and puts the originals back
afterwards. Only functions called O(hosts x phases) per round are wrapped -
never the per-element property-map API, which is too hot to time from
outside and therefore shows up inside ``exec.executor.kernel``.

A span records (name, start, end, parent) in ``perf_counter_ns`` ticks and
stays in memory until the run is over. A layer's *self time* is its spans'
duration minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable

# (module, dotted attribute, span name). Several functions may share one
# span name: the name is the layer metric the time is charged to.
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    # exec: engine drive loop, per-round walk, operator dispatch, codegen
    ("repro.exec.engine", "BSPEngine.run", "exec.engine.drive"),
    ("repro.exec.engine", "AsyncEngine.run", "exec.engine.drive"),
    ("repro.exec.executor", "Executor.run_round", "exec.executor.round_overhead"),
    ("repro.exec.executor", "Executor._run_compiled_operator", "exec.executor.kernel"),
    ("repro.exec.codegen", "FusedGroup.run", "exec.executor.kernel"),
    ("repro.exec.executor", "compile_plan", "exec.codegen.compile"),
    ("repro.exec.codegen", "SpecializedEdgePush._build", "exec.codegen.compile"),
    ("repro.exec.codegen", "PreparedFrontierPush._build", "exec.codegen.compile"),
    ("repro.exec.codegen", "SpecializedNodeUpdate._build", "exec.codegen.compile"),
    ("repro.exec.codegen", "SpecializedDegreeReduce._build", "exec.codegen.compile"),
    # exec.pool: coordinator side only (worker time is exchange wait)
    ("repro.exec.pool", "HostShardPool.fork_workers", "exec.pool.fork"),
    ("repro.exec.pool", "HostShardPool.begin_run", "exec.pool.fork"),
    ("repro.exec.pool", "HostShardPool.flush", "exec.pool.exchange"),
    ("repro.exec.pool", "HostShardPool.exchange_shards", "exec.pool.exchange"),
    ("repro.exec.pool", "HostShardPool.end_run", "exec.pool.shutdown"),
    ("repro.exec.pool", "HostShardPool.shutdown", "exec.pool.shutdown"),
    # core.propmap: kernel-side batched reduces, then the sync collectives
    ("repro.core.propmap", "NodePropMap.reduce_bulk", "core.propmap.reduce_bulk"),
    ("repro.core.propmap", "NodePropMap.reduce_bulk_prepared", "core.propmap.reduce_bulk"),
    ("repro.core.propmap", "NodePropMap.reduce_bulk_subset", "core.propmap.reduce_bulk"),
    ("repro.core.propmap", "NodePropMap.reduce_sync", "core.propmap.reduce_sync"),
    ("repro.core.propmap", "NodePropMap.broadcast_sync", "core.propmap.broadcast_sync"),
    ("repro.core.propmap", "NodePropMap.request_sync", "core.propmap.request_sync"),
    ("repro.core.propmap", "NodePropMap.__init__", "core.propmap.init_reset"),
    ("repro.core.propmap", "NodePropMap.set_initial", "core.propmap.init_reset"),
    ("repro.core.propmap", "NodePropMap.set_initial_bulk", "core.propmap.init_reset"),
    ("repro.core.propmap", "NodePropMap.reset_values", "core.propmap.init_reset"),
    ("repro.core.propmap", "NodePropMap.reset_values_bulk", "core.propmap.init_reset"),
    ("repro.core.propmap", "NodePropMap.snapshot", "core.propmap.snapshot"),
    ("repro.core.propmap", "NodePropMap.snapshot_array", "core.propmap.snapshot"),
    # core.reduction / core.backends
    ("repro.core.reduction", "PreparedFold.__init__", "core.reduction.fold_build"),
    ("repro.core.reduction", "PreparedSubsetFold.__init__", "core.reduction.fold_build"),
    ("repro.core.reduction", "PreparedFold.fold", "core.reduction.fold"),
    ("repro.core.reduction", "PreparedSubsetFold.fold", "core.reduction.fold"),
    ("repro.core.reduction", "ThreadLocalReduction.collect", "core.reduction.collect"),
    ("repro.core.reduction", "ThreadLocalReduction.collect_arrays", "core.reduction.collect"),
    ("repro.core.backends", "GarHostStore.apply_master_bulk", "core.backends.apply_master"),
    # cluster: metering and pricing
    ("repro.cluster.metrics", "MetricsLog.start_phase", "cluster.metrics.start_phase"),
    ("repro.cluster.metrics", "MetricsLog.total_counters", "cluster.metrics.total_counters"),
    ("repro.cluster.metrics", "MetricsLog.total_messages", "cluster.metrics.total_counters"),
    ("repro.cluster.metrics", "MetricsLog.total_bytes", "cluster.metrics.total_counters"),
    ("repro.cluster.costmodel", "CostModel.time_totals", "cluster.costmodel.price"),
    # eval: report assembly
    ("repro.eval.harness", "RunResult.to_dict", "eval.harness.report"),
)

ROOT_SPAN = "run"


class Recorder:
    """In-memory span store; one instance per traced workload process."""

    def __init__(self) -> None:
        # (name, start_ns, end_ns, parent index or -1, run id)
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.run_id = 0
        self.missing: list[str] = []
        # Operators of the traced run's compiled plans, by the path they took.
        self.compiled_ops = {"specialized": 0, "interpreted": 0}
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def wrap(
        self, fn: Callable, name: str, after: Callable[[Any], None] | None = None
    ) -> Callable:
        """``after`` sees the return value inside the span (used to count
        which compiled path each operator of a fresh plan took)."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]  # reserve: children follow
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)

        return traced

    def _count_compiled_ops(self, compiled: Any) -> None:
        for _tag, payload in compiled.entries:
            for op in getattr(payload, "ops", None) or (payload,):
                if hasattr(op, "specialized"):
                    self.compiled_ops["specialized" if op.specialized else "interpreted"] += 1

    # --------------------------------------------------------- installation

    def install(self, run_id: int) -> None:
        """Swap every target for its wrapper; spans recorded until
        ``uninstall`` belong to ``run_id``. A target a later refactor
        renamed is skipped and listed in ``missing`` (reported as
        ``trace.missing_spans``) so coverage drops visibly, not silently."""
        self.run_id = run_id
        self.compiled_ops = dict.fromkeys(self.compiled_ops, 0)
        self.missing.clear()
        for module_name, dotted, span_name in SPAN_TARGETS:
            try:
                owner: Any = importlib.import_module(module_name)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{dotted}")
                continue
            after = self._count_compiled_ops if attr == "compile_plan" else None
            setattr(owner, attr, self.wrap(original, span_name, after))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- aggregation

    def self_times(self, run_id: int) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time in seconds and call count."""
        child_ns: dict[int, int] = defaultdict(int)
        for _name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _parent, run) in enumerate(self.spans):
            if run != run_id:
                continue
            seconds[name] += (end - start - child_ns[index]) / 1e9
            calls[name] += 1
        return dict(seconds), dict(calls)

    def write_chrome_trace(self, path: str, run_id: int, metadata: dict) -> None:
        """Chrome trace-event JSON (chrome://tracing, Perfetto) of one
        run: one ``X`` event per span, wall-clock microseconds, ``args``
        carrying the span id, its parent and the run it belongs to."""
        origin = min((s[1] for s in self.spans if s[4] == run_id), default=0)
        events = [
            {
                "name": name,
                "cat": name.rsplit(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"id": index, "parent": parent, "run": run},
            }
            for index, (name, start, end, parent, run) in enumerate(self.spans)
            if run == run_id
        ]
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": metadata,
                },
                out,
            )
