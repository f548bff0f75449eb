"""BSP reports are byte-pinned, scalar and bulk alike.

``tests/test_conformance.py`` holds bulk = scalar, which cannot see a
change that moves both sides at once - and the stores, the broadcast and
the memory reporting are shared by the scalar oracle and the compiled
kernels. So the BSP pin table (``tests/pins.py``) holds, per cell, the
sha256 of the report (``RunResult.to_dict()``), of the final values, and
the per-host ``peak_memory_slots`` that no report carries (Fig 9 reads it), for
{SSSP, BFS, CC-LP, CC-SV, PR} x {road, powerlaw} x {1, 3, 4} hosts x
{scalar, bulk}, plus one crash-and-recover cell and one memory-limit
(out-of-memory) cell, and five many-host cells where request-sync and
reduce-sync cut batches for dozens of owners: scalar LV, MSF and CC-SV on
the Fig 10 web analog at 32 hosts, bulk CC-SV on a power-law graph at 16
hosts, and bulk CC-SV at 32 hosts under a flaky network, whose drop and
duplication draws follow the order in which messages are sent. The 62
cells were recorded before the fold froze its key ids and the broadcast
its translations, the five many-host ones before request-sync moved onto
the reduce-sync route.
"""

from __future__ import annotations

import pytest

from repro.eval.harness import run_kimbap
from repro.faults import FaultPlan, HostCrash, MessageFlake
from repro.graph import generators
from tests.pins import BSP_REPORTS, PinTable, sha256_json

THREADS = 4
APPS = ("SSSP", "BFS", "CC-LP", "CC-SV", "PR")
GRAPHS = {
    "road": lambda weighted: generators.road_like(16, 6, seed=5, weighted=weighted),
    "powerlaw": lambda weighted: generators.powerlaw_like(7, seed=3, weighted=weighted),
    "powerlaw10": lambda weighted: generators.powerlaw_like(10, seed=3, weighted=weighted),
    "web": lambda weighted: generators.web_like(10, seed=11, weighted=weighted),
}
CELLS = [
    (app, family, hosts, backend, "clean")
    for app in APPS
    for family in ("powerlaw", "road")
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
FLAKY = FaultPlan(
    name="flaky", seed=3, flake=MessageFlake(drop_rate=0.1, duplicate_rate=0.05)
)
EXTRA_CELLS = [
    ("SSSP", "road", 4, "bulk", "crash"),
    ("SSSP", "road", 4, "bulk", "memory-limit"),
    ("LV", "web", 32, "scalar", "clean"),
    ("MSF", "web", 32, "scalar", "clean"),
    ("CC-SV", "web", 32, "scalar", "clean"),
    ("CC-SV", "powerlaw10", 16, "bulk", "clean"),
    ("CC-SV", "web", 32, "bulk", "flaky"),
]
FAULT_PLANS = {"crash": CRASH, "flaky": FLAKY}


def _run(app: str, family: str, hosts: int, backend: str, case: str):
    return run_kimbap(
        app,
        family,
        hosts,
        threads=THREADS,
        graph=GRAPHS[family](app == "SSSP"),
        bulk=backend == "bulk",
        fault_plan=FAULT_PLANS.get(case),
        memory_limit_slots=MEMORY_LIMIT_SLOTS if case == "memory-limit" else None,
    )


def _pin(*cell) -> dict:
    result = _run(*cell)
    return {
        "report_sha256": sha256_json(result.to_dict()),
        "values_sha256": sha256_json(sorted((result.values or {}).items())),
        "peak_memory_slots": list(result.cluster.peak_memory_slots),
    }


def _key(app: str, family: str, hosts: int, backend: str, case: str) -> str:
    return f"{app}/{family}/{hosts}h/{backend}/{case}"


PINS = PinTable(BSP_REPORTS, {_key(*cell): cell for cell in CELLS + EXTRA_CELLS}, _pin)


@pytest.mark.parametrize("key", PINS.cells)
def test_bsp_report_is_pinned(key):
    PINS.check(key)


def test_extra_cells_fail_and_recover_as_pinned():
    # The fault cells exercise what they are named for.
    crash = _run("SSSP", "road", 4, "bulk", "crash")
    assert crash.outcome == "ok" and crash.faults["recoveries"] == 1
    assert _run("SSSP", "road", 4, "bulk", "memory-limit").outcome == "oom"
    flaky = _run("CC-SV", "web", 32, "bulk", "flaky")
    assert flaky.faults["messages_dropped"] and flaky.faults["messages_duplicated"]


def test_every_cell_is_recorded():
    PINS.check_coverage()
