"""The runs that share one copy of a rule are byte-pinned.

Kimbap's LV and LD, Vite and Galois take their move choice from one
function, Kimbap's LD and Galois' LD their level loop, CC-SV, CC-SCLP
and LD's connected split their pointer-jumping steps from one builder,
Gluon its pushes from Kimbap's plans, and the shared-map strategy
(variant ``sgr-only``) its bulk path from its scalar rule. The rule pin
table (``tests/pins.py``) holds, per run that reaches one of those
copies, the sha256 of the report (``RunResult.to_dict()``), of the final
values, and the per-host ``peak_memory_slots``:

* Kimbap LV, LD and CC-SCLP (scalar; CC-SCLP bulk too) on road and
  powerlaw at 1 and 4 hosts;
* CC-SV, CC-LP and PR at variant ``sgr-only`` on the bulk backend;
* Vite's LV, plain and with early termination, at 4 hosts;
* Galois LV, LD, CC-SV, CC-LP, MIS and MSF;
* Gluon's LP (``run_gluon``), SSSP and BFS at 1 and 4 hosts.

The cells were recorded before those copies were merged.
"""

from __future__ import annotations

import pytest

from repro.baselines import gluon_bfs, gluon_sssp
from repro.cluster import Cluster
from repro.core.variants import RuntimeVariant
from repro.eval.harness import (
    APP_WEIGHTED, _finish, run_galois, run_gluon, run_kimbap, run_vite,
)
from repro.partition import partition
from tests.pins import RULES, PinTable, sha256_json
from tests.test_bsp_report_pins import GRAPHS, THREADS

FAMILIES = ("powerlaw", "road")
HOSTS = (1, 4)


def _graph(app: str, family: str):
    return GRAPHS[family](APP_WEIGHTED.get(app, False))


def _kimbap(app: str, family: str, hosts: int, backend: str, variant: str):
    return run_kimbap(
        app,
        family,
        hosts,
        variant=RuntimeVariant(variant),
        threads=THREADS,
        graph=_graph(app, family),
        bulk=backend == "bulk",
    )


def _vite(family: str, hosts: int, early_termination: bool):
    return run_vite(
        family, hosts, threads=THREADS, graph=_graph("LV", family),
        early_termination=early_termination,
    )


def _galois(app: str, family: str):
    return run_galois(app, family, threads=THREADS, graph=_graph(app, family))


def _gluon(app: str, family: str, hosts: int):
    graph = GRAPHS[family](app == "SSSP")
    if app == "CC-LP":
        return run_gluon(family, hosts, threads=THREADS, graph=graph)
    cluster = Cluster(hosts, threads_per_host=THREADS)
    result = {"SSSP": gluon_sssp, "BFS": gluon_bfs}[app](cluster, partition(graph, hosts, "cvc"))
    return _finish("Gluon", app, family, hosts, cluster, result)


CELLS = {
    **{
        f"Kimbap/{app}/{family}/{hosts}h/{backend}/{variant}": (
            _kimbap, app, family, hosts, backend, variant
        )
        for family in FAMILIES
        for hosts in HOSTS
        for app, backend, variant in (
            ("LV", "scalar", "sgr+cf+gar"),
            ("LD", "scalar", "sgr+cf+gar"),
            ("CC-SCLP", "scalar", "sgr+cf+gar"),
            ("CC-SCLP", "bulk", "sgr+cf+gar"),
            ("CC-SV", "bulk", "sgr-only"),
            ("CC-LP", "bulk", "sgr-only"),
            ("PR", "bulk", "sgr-only"),
        )
    },
    **{
        f"Vite/LV/{family}/4h/{'early' if early else 'plain'}": (_vite, family, 4, early)
        for family in FAMILIES
        for early in (False, True)
    },
    **{
        f"Galois/{app}/{family}/1h": (_galois, app, family)
        for app in ("LV", "LD", "CC-SV", "CC-LP", "MIS", "MSF")
        for family in FAMILIES
    },
    **{
        f"Gluon/{app}/{family}/{hosts}h": (_gluon, app, family, hosts)
        for app in ("CC-LP", "SSSP", "BFS")
        for family in FAMILIES
        for hosts in HOSTS
    },
}


def _pin(run, *cell) -> dict:
    result = run(*cell)
    return {
        "report_sha256": sha256_json(result.to_dict()),
        "values_sha256": sha256_json(sorted((result.values or {}).items())),
        "peak_memory_slots": list(result.cluster.peak_memory_slots),
    }


PINS = PinTable(RULES, CELLS, _pin)


@pytest.mark.parametrize("key", PINS.cells)
def test_rule_run_is_pinned(key):
    PINS.check(key)


def test_every_cell_is_recorded():
    PINS.check_coverage()
