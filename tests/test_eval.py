"""Tests for the evaluation harness: workloads, run drivers, reporting."""

from __future__ import annotations

import pytest

from repro.cluster.metrics import PhaseKind
from repro.eval import (
    GRAPHS,
    format_table,
    load_graph,
    run_galois,
    run_gluon,
    run_kimbap,
    run_vite,
)
from repro.eval.harness import APP_POLICY, APP_WEIGHTED, KIMBAP_APPS, RunResult
from repro.eval.reporting import print_series, speedup
from repro.eval.workloads import paper_name


class TestWorkloads:
    def test_registry_covers_paper_graphs(self):
        assert {paper_name(n) for n in GRAPHS} == {
            "road-europe",
            "friendster",
            "clueweb12",
            "wdc12",
        }

    def test_load_graph_memoizes(self):
        first = load_graph("road")
        second = load_graph("road")
        assert first is second

    def test_weighted_flag_changes_graph(self):
        unweighted = load_graph("powerlaw")
        weighted = load_graph("powerlaw", weighted=True)
        assert unweighted.weights is None
        assert weighted.weights is not None

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            load_graph("facebook")

    def test_scale_parameter_grows_graph(self):
        small = load_graph("powerlaw", scale=0)
        large = load_graph("powerlaw", scale=1)
        assert large.num_nodes > small.num_nodes

    def test_medium_graphs_use_paper_host_counts(self):
        assert GRAPHS["road"].host_counts == (1, 2, 4, 8, 16)
        assert GRAPHS["web_xl"].host_counts == (128, 256)

    def test_every_app_has_policy_and_runner(self):
        assert set(APP_POLICY) == set(KIMBAP_APPS)
        for app in ("LV", "LD", "MSF"):
            assert APP_WEIGHTED[app]


class TestRunDrivers:
    def test_run_kimbap_returns_populated_result(self):
        result = run_kimbap("CC-SV", "road", 2, threads=4)
        assert result.system == "Kimbap"
        assert result.app == "CC-SV"
        assert result.hosts == 2
        assert result.total > 0
        assert result.rounds > 0
        assert result.messages > 0
        assert PhaseKind.REDUCE_SYNC in result.time_by_kind

    def test_run_kimbap_variant_label(self):
        from repro.core.variants import RuntimeVariant

        result = run_kimbap(
            "CC-SV", "road", 2, variant=RuntimeVariant.SGR_ONLY, threads=4
        )
        assert "sgr-only" in result.system

    def test_run_vite_uses_edge_cut(self):
        result = run_vite("road", 2, threads=4)
        assert result.system == "Vite"
        assert result.app == "LV"

    def test_run_gluon(self):
        result = run_gluon("road", 2, threads=4)
        assert result.system == "Gluon"
        assert result.total > 0

    def test_run_galois_is_single_host(self):
        result = run_galois("CC-SV", "road", threads=4)
        assert result.hosts == 1
        assert result.system == "Galois"

    def test_row_shape(self):
        result = run_kimbap("MIS", "road", 2, threads=4)
        row = result.row()
        assert len(row) == 7
        assert row[0] == "Kimbap"


class TestRunsAreCollectable:
    """A finished run leaves nothing behind in module state: once its
    result is dropped, the maps (and through them the cluster, stores and
    phase log) are garbage. A module-level shortcut-plan cache once pinned
    one ``NodePropMap`` per CC-SV / MSF call for the life of the process."""

    @pytest.mark.parametrize("bulk", [False, True], ids=["scalar", "bulk"])
    def test_no_map_survives_its_run(self, bulk):
        import gc

        from repro.core.propmap import NodePropMap
        from repro.graph import generators

        def live_maps():
            gc.collect()
            return [obj for obj in gc.get_objects() if isinstance(obj, NodePropMap)]

        # Held, so nothing another test left alive can lend its id to a map
        # of this one.
        before = live_maps()
        graph = generators.erdos_renyi(40, 3.0, seed=7, weighted=True)
        for app in ("CC-SV", "MSF"):
            for _ in range(5):
                run_kimbap(app, "leak", 3, graph=graph, threads=4, bulk=bulk)
        leaked = [m for m in live_maps() if not any(m is old for old in before)]
        assert leaked == []


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(("a", "bb"), [(1, 22), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_print_series_includes_rows(self, capsys):
        result = run_kimbap("MIS", "road", 2, threads=4)
        text = print_series("demo", [result])
        assert "demo" in text
        assert "Kimbap" in text
        assert capsys.readouterr().out  # printed too

    def test_speedup(self):
        from repro.cluster import ModeledTime

        slow = RunResult("a", "x", "g", 1, ModeledTime(2.0, 2.0), 1)
        fast = RunResult("b", "x", "g", 1, ModeledTime(1.0, 1.0), 1)
        assert speedup(slow, fast) == pytest.approx(2.0)
