"""What the phase log prints is byte-pinned.

``repro trace`` (its Chrome JSON and its stdout, which carries
``format_phase_breakdown``), ``repro profile`` and ``repro faults`` read
every phase of the log; ``log_output_pins.json`` holds the sha256 of each
output for three small fixed runs:

* bulk SSSP on ``road`` (4 hosts);
* CC-LP on the async engine (every phase an ``async-compute`` chunk);
* bulk SSSP under the ``chaos`` fault plan, so straggler ``slowdown``,
  flake retransmits / duplicates and a recovery are in the log - its
  phase breakdown and top phases are pinned from the library, since the
  ``profile`` command takes no fault plan.

``python tests/test_log_output_pins.py`` re-records the table: only ever
do that on a tree whose traces and profiles are known good.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from repro.cli import main
from repro.eval.harness import run_kimbap
from repro.eval.reporting import format_phase_breakdown
from repro.faults import named_plan
from repro.trace import top_phases

PINS_PATH = os.path.join(os.path.dirname(__file__), "log_output_pins.json")
BASE = ["--graph", "road", "--hosts", "4"]
RUNS = {
    "sssp-bulk": ["SSSP", *BASE, "--bulk"],
    "cclp-async": ["CC-LP", *BASE, "--engine", "async"],
}


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _cli(argv: list[str], trace: bool = False) -> tuple[str, bytes | None]:
    """One CLI command's stdout (the output path masked) and, with
    ``trace``, the Chrome trace it wrote to ``--out``."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "trace.json")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = main([*argv, *(["--out", path] if trace else [])])
        assert status == 0
        written = None
        if trace:
            with open(path, "rb") as handle:
                written = handle.read()
        return stdout.getvalue().replace(path, "<out>"), written


def _pins(name: str) -> dict[str, str]:
    if name in RUNS:
        stdout, chrome = _cli(["trace", *RUNS[name]], trace=True)
        profile, _ = _cli(["profile", *RUNS[name]])
        return {
            "trace_json": _sha(chrome),
            "trace_stdout": _sha(stdout),
            "profile_stdout": _sha(profile),
        }
    stdout, chrome = _cli(["faults", "SSSP", *BASE, "--plan", "chaos", "--bulk"], trace=True)
    faulted = run_kimbap(
        "SSSP", "road", 4, threads=48, bulk=True, fault_plan=named_plan("chaos", hosts=4)
    )
    cluster = faulted.cluster
    return {
        "trace_json": _sha(chrome),
        "faults_stdout": _sha(stdout),
        "phase_breakdown": _sha(
            format_phase_breakdown(cluster.log, cluster.cost_model, faulted.threads)
        ),
        "top_phases": _sha(repr(top_phases(cluster.log, cluster.cost_model, faulted.threads))),
    }


NAMES = (*RUNS, "sssp-chaos")


def _recorded() -> dict:
    with open(PINS_PATH, encoding="utf-8") as src:
        return json.load(src)


@pytest.mark.parametrize("name", NAMES)
def test_log_outputs_are_pinned(name):
    assert _pins(name) == _recorded()[name]


def test_chaos_run_logs_stragglers_flakes_and_recovery():
    faulted = run_kimbap(
        "SSSP", "road", 4, threads=48, bulk=True, fault_plan=named_plan("chaos", hosts=4)
    )
    phases = faulted.cluster.log.phases
    assert any(phase.slowdown is not None for phase in phases)
    assert faulted.faults["retries"] > 0 and faulted.faults["recoveries"] == 1


if __name__ == "__main__":  # re-record: python tests/test_log_output_pins.py
    with open(PINS_PATH, "w", encoding="utf-8") as out:
        json.dump({name: _pins(name) for name in NAMES}, out, indent=1, sort_keys=True)
        out.write("\n")
