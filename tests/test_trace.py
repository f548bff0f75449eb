"""Observability layer: timeline invariants, exporters, machine-readable
results, and the ``trace`` / ``profile`` CLI commands."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.cluster.metrics import PhaseKind
from repro.eval.harness import RESULT_SCHEMA, run_kimbap
from repro.eval.reporting import format_phase_breakdown, phase_breakdown_rows
from repro.graph import generators
from repro.trace import to_chrome_trace, top_phases, write_chrome_trace


@pytest.fixture(scope="module")
def result():
    graph = generators.road_like(8, 4, seed=1)
    return run_kimbap("CC-LP", "road", 2, threads=4, graph=graph)


@pytest.fixture(scope="module")
def timeline(result):
    return result.timeline()


class TestTimeline:
    def test_every_host_track_sums_to_modeled_total(self, result, timeline):
        elapsed = result.cluster.elapsed().total
        for host, host_total in enumerate(timeline.per_host_totals()):
            assert host_total == pytest.approx(elapsed, abs=1e-9), f"host {host}"
        assert timeline.total == pytest.approx(elapsed, abs=1e-9)

    def test_phases_are_barrier_aligned(self, timeline):
        by_phase = {}
        for s in timeline.slices:
            by_phase.setdefault(s.phase_index, []).append(s)
        for slices in by_phase.values():
            starts = {s.start for s in slices}
            durations = {s.duration for s in slices}
            assert len(starts) == 1 and len(durations) == 1

    def test_busy_never_exceeds_duration(self, timeline):
        for s in timeline.slices:
            assert 0.0 <= s.busy <= s.duration + 1e-12

    def test_round_attribution_matches_run_rounds(self, result, timeline):
        # CC-LP is a single plan loop: the highest stamped round is
        # the number of BSP rounds; init phases carry round 0.
        assert max(s.round for s in timeline.slices) == result.rounds
        init = [s for s in timeline.slices if s.kind is PhaseKind.INIT]
        assert init and all(s.round == 0 for s in init)

    def test_operator_attribution_present(self, timeline):
        computes = [s for s in timeline.slices if s.kind is PhaseKind.REDUCE_COMPUTE]
        assert computes and all(s.operator for s in computes)
        assert any(s.operator == "cc_lp" for s in computes)

    def test_timeline_is_deterministic(self, result):
        first = result.timeline()
        second = result.timeline()
        assert first.slices == second.slices
        assert first.total == second.total


class TestChromeExport:
    def test_trace_round_trips_and_durations_sum(self, result, timeline, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), timeline)
        trace = json.loads(path.read_text())
        per_host = {}
        for event in trace["traceEvents"]:
            if event.get("ph") == "X":
                per_host.setdefault(event["tid"], 0.0)
                per_host[event["tid"]] += event["dur"]
        assert set(per_host) == set(range(result.hosts))
        elapsed = result.cluster.elapsed().total
        for total_us in per_host.values():
            assert total_us / 1e6 == pytest.approx(elapsed, abs=1e-9)

    def test_track_and_process_metadata(self, timeline):
        trace = to_chrome_trace(timeline)
        names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "thread_name"
        }
        assert names == {f"host {h}" for h in range(timeline.num_hosts)}
        assert trace["otherData"]["modeled_total_s"] == pytest.approx(timeline.total)

    def test_sync_phases_emit_flow_events(self, timeline):
        trace = to_chrome_trace(timeline)
        flows = [e for e in trace["traceEvents"] if e.get("cat") == "sync-flow"]
        assert flows, "a multi-host run must produce sync flows"
        by_id = {}
        for event in flows:
            by_id.setdefault(event["id"], []).append(event["ph"])
        for phases in by_id.values():
            assert phases[0] == "s" and phases[-1] == "f"

    def test_slice_args_carry_attribution(self, timeline):
        trace = to_chrome_trace(timeline)
        slices = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        for event in slices:
            assert {"round", "operator", "kind", "busy_s", "wait_s", "counters"} <= set(
                event["args"]
            )


class TestBreakdownTable:
    def test_rows_sum_to_total(self, result):
        cluster = result.cluster
        rows = phase_breakdown_rows(cluster.log, cluster.cost_model, result.threads)
        total = sum(float(row[-1]) for row in rows)
        assert total == pytest.approx(result.total, abs=1e-3 * max(1, len(rows)))

    def test_renders_rounds_and_kinds(self, result):
        cluster = result.cluster
        text = format_phase_breakdown(cluster.log, cluster.cost_model, result.threads)
        assert "round" in text
        assert "reduce-sync" in text
        assert "reduce-compute" in text


class TestRunResultJson:
    def test_schema_fields(self, result):
        data = result.to_dict()
        required = {
            "schema", "system", "app", "graph", "hosts", "comp", "comm",
            "total", "rounds", "messages", "bytes", "counters",
        }
        assert required <= set(data)
        assert data["schema"] == RESULT_SCHEMA
        assert data["comp"] + data["comm"] == pytest.approx(data["total"])
        assert data["counters"] == result.cluster.log.total_counters().as_dict()
        json.dumps(data)  # must be JSON-serializable as-is

    def test_deterministic_across_identical_runs(self):
        graph = generators.road_like(8, 4, seed=1)
        first = run_kimbap("CC-LP", "road", 2, threads=4, graph=graph).to_dict()
        second = run_kimbap("CC-LP", "road", 2, threads=4, graph=graph).to_dict()
        assert first == second


class TestProfile:
    def test_top_phases_ordered_and_attributed(self, result):
        cluster = result.cluster
        costs = top_phases(cluster.log, cluster.cost_model, result.threads, k=5)
        assert len(costs) == 5
        totals = [c.time.total for c in costs]
        assert totals == sorted(totals, reverse=True)
        assert all(c.breakdown for c in costs if c.time.total > 0)
        # weight attribution only contains priced counters
        for cost in costs:
            assert "reads_master" not in cost.breakdown
            assert "reads_remote" not in cost.breakdown


class TestCli:
    def test_trace_command_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        report = tmp_path / "result.json"
        code = main(
            [
                "trace", "CC-SV", "--graph", "road", "--hosts", "2",
                "--threads", "4", "--out", str(out), "--report", str(report),
            ]
        )
        assert code == 0
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
        assert trace["otherData"]["hosts"] == 2
        result = json.loads(report.read_text())
        assert result["schema"] == RESULT_SCHEMA
        assert "wrote" in capsys.readouterr().out

    def test_profile_command(self, capsys):
        code = main(
            ["profile", "MIS", "--graph", "road", "--hosts", "2",
             "--threads", "4", "--top", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "share" in out
        assert "operator" in out
