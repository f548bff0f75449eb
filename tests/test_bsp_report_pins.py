"""BSP reports are byte-pinned, scalar and bulk alike.

``tests/test_conformance.py`` holds bulk = scalar, which cannot see a
change that moves both sides at once - and the stores, the broadcast and
the memory reporting are shared by the scalar oracle and the compiled
kernels. So ``bsp_report_pins.json`` holds, per cell, the sha256 of the
report (``RunResult.to_dict()``), of the final values, and the per-host
``peak_memory_slots`` that no report carries (Fig 9 reads it), for
{SSSP, BFS, CC-LP, CC-SV, PR} x {road, powerlaw} x {1, 3, 4} hosts x
{scalar, bulk}, plus one crash-and-recover cell and one memory-limit
(out-of-memory) cell. ``python tests/test_bsp_report_pins.py``
re-records the table: only ever do that on a tree whose BSP reports are
known good, and a re-record must leave every existing cell unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.eval.harness import run_kimbap
from repro.faults import FaultPlan, HostCrash
from repro.graph import generators

PINS_PATH = os.path.join(os.path.dirname(__file__), "bsp_report_pins.json")
THREADS = 4
APPS = ("SSSP", "BFS", "CC-LP", "CC-SV", "PR")
GRAPHS = {
    "road": lambda weighted: generators.road_like(16, 6, seed=5, weighted=weighted),
    "powerlaw": lambda weighted: generators.powerlaw_like(7, seed=3, weighted=weighted),
}
CELLS = [
    (app, family, hosts, backend, "clean")
    for app in APPS
    for family in sorted(GRAPHS)
    for hosts in (1, 3, 4)
    for backend in ("scalar", "bulk")
]
# Host 2 crashes in round 5 and is recovered from the round-4 checkpoint;
# the memory limit sits below host 3's peak, so the run ends out of
# memory in round 11.
CRASH = FaultPlan(
    name="crash@5", checkpoint_interval=2, crashes=(HostCrash(host=2, round=5),)
)
MEMORY_LIMIT_SLOTS = 85
EXTRA_CELLS = [
    ("SSSP", "road", 4, "bulk", "crash"),
    ("SSSP", "road", 4, "bulk", "memory-limit"),
]


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _pin(app: str, family: str, hosts: int, backend: str, case: str) -> dict:
    graph = GRAPHS[family](app == "SSSP")
    result = run_kimbap(
        app,
        family,
        hosts,
        threads=THREADS,
        graph=graph,
        bulk=backend == "bulk",
        fault_plan=CRASH if case == "crash" else None,
        memory_limit_slots=MEMORY_LIMIT_SLOTS if case == "memory-limit" else None,
    )
    return {
        "report_sha256": _digest(result.to_dict()),
        "values_sha256": _digest(sorted((result.values or {}).items())),
        "peak_memory_slots": list(result.cluster.peak_memory_slots),
    }


def _key(app: str, family: str, hosts: int, backend: str, case: str) -> str:
    return f"{app}/{family}/{hosts}h/{backend}/{case}"


def _recorded() -> dict:
    with open(PINS_PATH, encoding="utf-8") as src:
        return json.load(src)


@pytest.mark.parametrize("cell", CELLS + EXTRA_CELLS, ids=lambda cell: _key(*cell))
def test_bsp_report_is_pinned(cell):
    assert _pin(*cell) == _recorded()[_key(*cell)]


def test_extra_cells_fail_and_recover_as_pinned():
    # The two extra cells exercise what they are named for.
    crash = run_kimbap(
        "SSSP", "road", 4, threads=THREADS, graph=GRAPHS["road"](True),
        bulk=True, fault_plan=CRASH,
    )
    assert crash.outcome == "ok" and crash.faults["recoveries"] == 1
    oom = run_kimbap(
        "SSSP", "road", 4, threads=THREADS, graph=GRAPHS["road"](True),
        bulk=True, memory_limit_slots=MEMORY_LIMIT_SLOTS,
    )
    assert oom.outcome == "oom"


def test_every_cell_is_recorded():
    assert set(_recorded()) == {_key(*cell) for cell in CELLS + EXTRA_CELLS}


if __name__ == "__main__":  # re-record the table: python tests/test_bsp_report_pins.py
    with open(PINS_PATH, "w", encoding="utf-8") as out:
        json.dump(
            {_key(*cell): _pin(*cell) for cell in CELLS + EXTRA_CELLS},
            out,
            indent=1,
            sort_keys=True,
        )
        out.write("\n")
