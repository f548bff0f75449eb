"""Ablations beyond the paper's own (DESIGN.md section 6).

1. **GAR remote layout** - sorted arrays + binary search (Figure 6) vs a
   hash map for the requested-remote cache.
2. **CF combining step** - key-range dealing across threads vs a single
   combining thread.
3. **Request deduplication** - the concurrent bitset vs raw (duplicated)
   request streams; pointer jumping on a star graph makes every node
   request the hub's parent, the worst case dedup exists for.
4. **Early termination** - Vite's 75%-skip heuristic, which the paper
   deliberately did not port to Kimbap, applied to Vite here to measure
   what it buys.
"""

from __future__ import annotations

from benchmarks.conftest import record
from repro.algorithms.common import shortcut_plan
from repro.cluster import Cluster
from repro.core import NodePropMap
from repro.eval.harness import run_vite
from repro.eval.workloads import load_graph
from repro.exec import Executor
from repro.graph import generators
from repro.partition import partition

FIGURE_TITLE = "Ablations: GAR layout, CF combine, request dedup, early termination"
FIGURE_HEADERS = ("ablation", "arm", "comp(s)", "comm(s)", "total(s)", "note")


def pointer_jump_workload(cluster, pgraph, **map_kwargs):
    """A shortcut-heavy workload: flatten a long parent chain."""
    parent = NodePropMap(cluster, pgraph, "parent", **map_kwargs)
    parent.set_initial(lambda node: max(node - 1, 0))
    rounds = Executor(cluster).run(shortcut_plan(pgraph, parent))
    assert all(v == 0 for v in parent.snapshot().values())
    return rounds


class TestGarLayout:
    def test_sorted_arrays_beat_hash_cache(self, benchmark, figure_report):
        graph = generators.path(512)

        def run_both():
            times = {}
            for layout in ("sorted", "hash"):
                pgraph = partition(graph, 8, "oec")
                cluster = Cluster(8, threads_per_host=48)
                pointer_jump_workload(cluster, pgraph, remote_layout=layout)
                times[layout] = cluster.elapsed()
            return times

        times = benchmark.pedantic(run_both, rounds=1, iterations=1)
        for layout, elapsed in times.items():
            record(
                __name__,
                (
                    "gar-layout",
                    layout,
                    round(elapsed.computation, 3),
                    round(elapsed.communication, 3),
                    round(elapsed.total, 3),
                    "binary search vs hash probes",
                ),
            )
        benchmark.extra_info["sorted_s"] = times["sorted"].total
        benchmark.extra_info["hash_s"] = times["hash"].total
        # A hash probe costs ~4x a binary-search step; with caches of a few
        # hundred entries (log2 ~ 9 steps) the sorted layout should win or
        # tie - and must never lose badly.
        assert times["sorted"].total < 1.5 * times["hash"].total


class TestCfCombine:
    def test_parallel_combine_beats_serial(self, benchmark, figure_report):
        graph = generators.powerlaw_like(8, seed=5)

        def run_both():
            times = {}
            for serial in (False, True):
                pgraph = partition(graph, 4, "cvc")
                cluster = Cluster(4, threads_per_host=48)
                pointer_jump_workload(cluster, pgraph, serial_combine=serial)
                times["serial" if serial else "parallel"] = cluster.elapsed()
            return times

        times = benchmark.pedantic(run_both, rounds=1, iterations=1)
        for arm, elapsed in times.items():
            record(
                __name__,
                (
                    "cf-combine",
                    arm,
                    round(elapsed.computation, 3),
                    round(elapsed.communication, 3),
                    round(elapsed.total, 3),
                    "key-range dealing vs single thread",
                ),
            )
        assert times["parallel"].total < times["serial"].total


class TestRequestDedup:
    def test_bitset_dedup_cuts_request_traffic(self, benchmark, figure_report):
        # Star: every leaf's shortcut requests the hub's parent - thousands
        # of duplicate requests without the bitset.
        graph = generators.star(600)

        def run_both():
            out = {}
            for dedup in (True, False):
                pgraph = partition(graph, 6, "oec")
                cluster = Cluster(6, threads_per_host=48)
                parent = NodePropMap(
                    cluster, pgraph, "parent", request_dedup=dedup
                )
                parent.set_initial(lambda node: 0)
                # every leaf requests the hub's (node 0's) parent
                from repro.cluster.metrics import PhaseKind
                from repro.exec import par_for

                def request(ctx):
                    parent.request(ctx.host, 0)

                par_for(
                    cluster,
                    pgraph,
                    "masters",
                    request,
                    kind=PhaseKind.REQUEST_COMPUTE,
                )
                parent.request_sync()
                out["dedup" if dedup else "raw"] = (
                    cluster.elapsed(),
                    cluster.log.total_bytes(),
                )
            return out

        results = benchmark.pedantic(run_both, rounds=1, iterations=1)
        for arm, (elapsed, total_bytes) in results.items():
            record(
                __name__,
                (
                    "request-dedup",
                    arm,
                    round(elapsed.computation, 3),
                    round(elapsed.communication, 3),
                    round(elapsed.total, 3),
                    f"{total_bytes} bytes requested",
                ),
            )
        assert results["dedup"][1] < results["raw"][1]
        assert results["dedup"][0].total <= results["raw"][0].total


class TestAsyncExecution:
    def test_bsp_batching_beats_eager_async(self, benchmark, figure_report):
        """Section 4.1's design choice: asynchronous execution converges in
        fewer sweeps but pays per-update messages, duplicates, and
        materialization; BSP's batched, deduplicated rounds win."""
        from repro.algorithms import cc_lp
        from repro.baselines import async_cc_lp
        from repro.cluster import Cluster
        from repro.partition import partition

        graph = load_graph("powerlaw")

        def run_both():
            out = {}
            for name, algorithm in (("bsp", cc_lp), ("async", async_cc_lp)):
                pgraph = partition(graph, 8, "cvc")
                cluster = Cluster(8, threads_per_host=48)
                result = algorithm(cluster, pgraph)
                out[name] = (result, cluster)
            return out

        results = benchmark.pedantic(run_both, rounds=1, iterations=1)
        for name, (result, cluster) in results.items():
            elapsed = cluster.elapsed()
            record(
                __name__,
                (
                    "execution-model",
                    name,
                    round(elapsed.computation, 3),
                    round(elapsed.communication, 3),
                    round(elapsed.total, 3),
                    f"{cluster.log.total_messages()} msgs, "
                    f"{result.rounds} rounds",
                ),
            )
        bsp_result, bsp_cluster = results["bsp"]
        async_result, async_cluster = results["async"]
        assert bsp_result.values == async_result.values
        assert async_result.rounds <= bsp_result.rounds  # async converges faster
        assert async_cluster.log.total_messages() > 5 * bsp_cluster.log.total_messages()
        assert bsp_cluster.elapsed().total < async_cluster.elapsed().total


class TestEarlyTermination:
    def test_heuristic_trades_quality_for_time(self, benchmark, figure_report):
        def run_both():
            out = {}
            for early in (False, True):
                result = run_vite("powerlaw", 4, early_termination=early, seed=2)
                out["early-term" if early else "plain"] = result
            return out

        results = benchmark.pedantic(run_both, rounds=1, iterations=1)
        for arm, result in results.items():
            record(
                __name__,
                (
                    "vite-early-termination",
                    arm,
                    round(result.time.computation, 3),
                    round(result.time.communication, 3),
                    round(result.total, 3),
                    f"Q={result.stats['modularity']:.3f}",
                ),
            )
        # the heuristic must not wreck quality
        assert (
            results["early-term"].stats["modularity"]
            > results["plain"].stats["modularity"] - 0.1
        )
