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


class TestChaosVictim:
    """``repro chaos`` rejects a victim it could never kill as a usage
    error (exit 2) before running either workload."""

    @pytest.mark.parametrize(
        "flags,expect",
        (
            (["--worker", "0"], "workers are 1..1"),
            (["--worker", "2"], "workers are 1..1"),
            (["--jobs", "8", "--worker", "4"], "--hosts 4 (workers are 1..3)"),
            (["--at-boundary", "0"], "they count from 1"),
        ),
        ids=("coordinator", "past-the-shards", "clamped-to-hosts", "boundary-0"),
    )
    def test_rejected_before_running(self, capsys, monkeypatch, flags, expect):
        def never(*args, **kwargs):
            raise AssertionError("a workload ran before the victim was checked")

        monkeypatch.setattr(repro.cli, "run_kimbap", never)
        argv = ["chaos", "PR", "--hosts", "4", "--jobs", "2", *flags]
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
