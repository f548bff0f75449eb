"""CLI tests: argument wiring and output of every subcommand."""

from __future__ import annotations

import pytest

import repro.cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "CC-SV"])
        assert args.graph == "road"
        assert args.hosts == 4
        assert args.variant == "sgr+cf+gar"

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "PageRank"])

    def test_rejects_unknown_graph(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "MIS", "--graph", "twitter"])

    def test_rejects_unknown_variant(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "MIS", "--variant", "turbo"])


class TestCountsBelowOne:
    """``--hosts``, ``--threads`` and ``--jobs`` below 1 are usage errors
    (exit 2) on every run-style subcommand, raised before anything runs;
    so is the deleted ``chaos`` subcommand."""

    @pytest.mark.parametrize(
        "argv,expect",
        (
            (["run", "BFS", "--hosts", "0"], "argument --hosts: must be at least 1"),
            (["run", "BFS", "--threads", "0"], "argument --threads: must be at least 1"),
            (["run", "BFS", "--jobs", "0"], "argument --jobs: must be at least 1"),
            (["run", "BFS", "--jobs", "-2"], "argument --jobs: must be at least 1"),
            (["variants", "MIS", "--hosts", "-1"], "argument --hosts"),
            (["trace", "BFS", "--jobs", "0"], "argument --jobs"),
            (["profile", "LV", "--threads", "0"], "argument --threads"),
            (["faults", "BFS", "--hosts", "0"], "argument --hosts"),
            (["compare-lv", "--jobs", "0"], "argument --jobs"),
            (["engines", "PR", "--hosts", "0"], "argument --hosts"),
            (["engines", "PR", "--threads", "0"], "argument --threads"),
            (["chaos", "PR", "--jobs", "2"], "invalid choice: 'chaos'"),
        ),
        ids=(
            "run-hosts-0",
            "run-threads-0",
            "run-jobs-0",
            "run-jobs-negative",
            "variants-hosts",
            "trace-jobs",
            "profile-threads",
            "faults-hosts",
            "compare-lv-jobs",
            "engines-hosts",
            "engines-threads",
            "no-chaos-command",
        ),
    )
    def test_rejected_before_running(self, capsys, monkeypatch, argv, expect):
        def never(*args, **kwargs):
            raise AssertionError("a workload ran before its arguments were checked")

        monkeypatch.setattr(repro.cli, "run_kimbap", never)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert expect in capsys.readouterr().err


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        for name in ("road", "powerlaw", "web", "web_xl"):
            assert name in out

    def test_run_cc_sv(self, capsys):
        assert main(["run", "CC-SV", "--hosts", "2", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "Kimbap" in out
        assert "rounds:" in out
        assert "messages:" in out

    def test_run_with_variant(self, capsys):
        code = main(
            ["run", "MIS", "--hosts", "2", "--threads", "4", "--variant", "sgr-only"]
        )
        assert code == 0
        assert "sgr-only" in capsys.readouterr().out

    def test_variants_sweep(self, capsys):
        assert main(["variants", "MIS", "--hosts", "2", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        for label in ("mc", "sgr-only", "sgr+cf", "Kimbap"):
            assert label in out  # the default variant prints as plain Kimbap

    def test_compare_lv(self, capsys):
        assert main(["compare-lv", "--hosts", "2", "--threads", "4"]) == 0
        out = capsys.readouterr().out
        assert "Vite" in out
        assert "Galois" in out
        assert "speedup over Vite" in out
        assert "identical clustering: True" in out

    def test_compare_lv_fails_when_vite_disagrees(self, capsys, monkeypatch):
        run_vite = repro.cli.run_vite

        def one_round_more(*args, **kwargs):
            result = run_vite(*args, **kwargs)
            result.rounds += 1
            return result

        monkeypatch.setattr(repro.cli, "run_vite", one_round_more)
        assert main(["compare-lv", "--hosts", "2", "--threads", "4"]) == 1
        assert "identical clustering: False" in capsys.readouterr().out
