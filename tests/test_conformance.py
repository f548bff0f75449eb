"""One conformance table: every whole-run contract of the simulator.

A run is a cell of the cross of nine axes: the app (the twelve registered
applications and the compiled DSL programs of ``repro.compiler.apps``),
the graph family, hosts x threads, the runtime variant, the partitioning
policy, the kernel backend, the engine, ``jobs``, and the fault axis
(fault-free, a crash ``FaultPlan``, a memory limit). Each row of
:data:`TABLE` states its contract in its last column:

* ``=`` identical: ``RunResult.to_dict()`` bytes and the final values
  equal the reference cell's - the same cell at scalar, ``jobs=1``, BSP;
* ``~`` equivalent: async values within the app's tolerance of the BSP
  reference;
* ``!rule`` refused: the run raises the exception of that rule of
  :data:`RULES`, whose message names the rule.

Every reference runs once and is checked against an external oracle
(``repro.verify``, ``repro.baselines.cost`` or networkx); under a crash
plan or a memory limit it must also reach the fault-free reference's
values. The meta-tests keep the table honest: its legal cells cover every
legal pair of axis values (and the few combinations of :data:`CONDITIONED`),
every illegal combination the rules know is a refused row, and every row
states the contract the rules give it. A hypothesis test draws further
legal cells on random graphs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import verify
from repro.baselines.cost import cost_pagerank, cost_sssp
from repro.cluster.metrics import CELL_FIELDS, STATISTIC_FIELDS, MetricsLog
from repro.compiler.apps import COMPILED_APPS
from repro.core.variants import RuntimeVariant
from repro.eval.harness import APP_WEIGHTED, KIMBAP_APPS, run_kimbap
from repro.exec import UnsupportedPlanError
from repro.faults import FaultPlan, HostCrash
from repro.graph import generators
from repro.partition import POLICIES, partition
from tests.conftest import canonical

# ------------------------------------------------------------------ axes

GRAPHS = {
    "er": lambda seed, weighted: generators.erdos_renyi(32, 3.0, seed=seed, weighted=weighted),
    "road": lambda seed, weighted: generators.road_like(6, 5, seed=seed, weighted=weighted),
    # The narrow frontier: one or two active sources a round, for dozens
    # of rounds, on a path (cols=1) and a ladder (cols=2).
    "path": lambda seed, weighted: generators.road_like(64, 1, seed=seed, weighted=weighted),
    "ladder": lambda seed, weighted: generators.road_like(32, 2, seed=seed, weighted=weighted),
    "rmat": lambda seed, weighted: generators.rmat(5, 4, seed=seed, weighted=weighted),
    "powerlaw": lambda seed, weighted: generators.powerlaw_like(5, seed=seed, weighted=weighted),
}
AXES = {
    "app": tuple(sorted(KIMBAP_APPS)) + tuple(f"compiled:{app}" for app in sorted(COMPILED_APPS)),
    "graph": tuple(GRAPHS),
    "shape": ("1x1", "2x48", "3x4", "4x2"),  # hosts x threads per host
    "variant": tuple(variant.value for variant in RuntimeVariant),
    "policy": tuple(sorted(POLICIES)),
    "backend": ("scalar", "bulk"),
    "engine": ("bsp", "async"),
    "jobs": (1, 2, 3),
    "fault": ("-", "crash", "mem"),
}
# No rule reads these: any value goes with any legal cell.
FREE_AXES = ("graph", "backend")
GAR = RuntimeVariant.KIMBAP.value
SEED = 7  # graph seed of every table row
MEMORY_LIMIT_SLOTS = 100_000
TOLERANCE = {"PR": 1e-6, "SSSP": 1e-9}  # async vs BSP; exact otherwise


class Cell(NamedTuple):
    app: str
    graph: str
    shape: str
    variant: str
    policy: str
    backend: str
    engine: str
    jobs: int
    fault: str

    @classmethod
    def parse(cls, row: str) -> tuple[Cell, str]:
        *fields, contract = row.split()
        fields[7] = int(fields[7])
        return cls(*fields), contract

    @property
    def hosts(self) -> int:
        return int(self.shape.split("x")[0])

    @property
    def threads(self) -> int:
        return int(self.shape.split("x")[1])

    @property
    def reference(self) -> Cell:
        return self._replace(backend="scalar", engine="bsp", jobs=1)

    def __str__(self) -> str:
        return "-".join(map(str, self))


# ----------------------------------------------------------------- rules


class Rule(NamedTuple):
    name: str  # a fragment of the refusal's message
    error: type[Exception]
    on: tuple[str, ...]  # the axes an illegal combination of it is made of
    fires: Callable[[Cell], bool]


RESIDUAL_APPS = ("BFS", "CC-LP", "PR", "SSSP")

# In the order the code checks them: the first that fires refuses the run.
RULES = (
    Rule("jobs", UnsupportedPlanError, ("engine", "jobs"),
         lambda c: c.engine == "async" and c.jobs > 1),
    Rule("oec", ValueError, ("app", "policy"),
         lambda c: c.app in ("K-CORE", "VERTEX-COVER") and c.policy != "oec" and c.hosts > 1),
    Rule("fault", UnsupportedPlanError, ("engine", "fault"),
         lambda c: c.engine == "async" and c.fault == "crash"),
    Rule("residual", UnsupportedPlanError, ("engine", "app"),
         lambda c: c.engine == "async" and c.app not in RESIDUAL_APPS),
    Rule("GAR", UnsupportedPlanError, ("engine", "variant"),
         lambda c: c.engine == "async" and c.app in RESIDUAL_APPS and c.variant != GAR),
)


def refusal(cell: Cell) -> Rule | None:
    return next((rule for rule in RULES if rule.fires(cell)), None)


def contract(cell: Cell) -> str:
    rule = refusal(cell)
    if rule is not None:
        return f"!{rule.name}"
    return "~" if cell.engine == "async" else "="


# Beyond every pair of values, the combinations the suites this table
# replaced pinned one by one: each app's bulk kernels on every storage
# layout, each app sharded on either backend, each async app on every
# policy. (axes, condition): the axes' values must meet under the condition.
CONDITIONED = (
    (("app", "variant"), lambda cell: cell.backend == "bulk"),
    (("app", "backend"), lambda cell: cell.jobs > 1),
    (("app", "policy"), lambda cell: cell.engine == "async"),
)


# ----------------------------------------------------------------- table


def narrow(result) -> None:
    # Four host visits a round, and on average under one and a half of
    # them (the wave's band, its neighbour at a seam) relaxes an edge.
    pushes = [record for record in result.cluster.log.phases if record.operator]
    busy = sum(c.edge_iters > 0 for record in pushes for c in record.counters)
    assert result.rounds > 20 and busy < 1.5 * len(pushes)


def counted(label: str, counter: str):
    def check(result) -> None:
        phases = [r for r in result.cluster.log.phases if r.label == label]
        assert sum(getattr(c, counter) for r in phases for c in r.counters) > 0

    return check


def recovered(result) -> None:
    assert result.faults["recoveries"] == 1


def relayed(result) -> None:
    assert result.parallel["forks"] >= 1 and result.parallel["bytes_exchanged"] > 0


# Regression cells carried over from the suites the table replaced, each
# with a check of its own run that it still exercises what it is kept for.
NAMED = {
    # The narrow frontier, on a path and on a ladder.
    "BFS              path     4x2   sgr+cf+gar cvc    bulk    bsp    2    -     =": narrow,
    "SSSP             path     4x2   sgr+cf+gar oec    bulk    bsp    1    -     =": narrow,
    "BFS              ladder   4x2   sgr+cf+gar oec    scalar  bsp    2    -     =": narrow,
    "SSSP             ladder   4x2   sgr+cf+gar cvc    bulk    bsp    2    -     =": narrow,
    # NodeGather's two remote legs of read_bulk on three-host hvc: pinned
    # mirrors (a hash probe a read) and the requested-remote cache.
    "CC-SCLP          powerlaw 3x4   sgr+cf+gar hvc    bulk    bsp    1    -     =":
        counted("sclp:short", "hash_probes"),
    "CC-SV            powerlaw 3x4   sgr+cf+gar hvc    bulk    bsp    1    -     =":
        counted("shortcut", "binsearch_steps"),
    # The kvstore variant keeps its phases replicated under jobs=2.
    "CC-LP            powerlaw 3x4   mc         cvc    bulk    bsp    2    -     =": None,
    # The trans-vertex apps under a crash plan and a memory limit.
    "CC-SV            road     3x4   sgr+cf+gar cvc    bulk    bsp    1    crash =": recovered,
    "CC-SCLP          road     4x2   sgr+cf+gar cvc    bulk    bsp    2    crash =": recovered,
    "MSF              road     3x4   sgr+cf+gar cvc    bulk    bsp    2    crash =": recovered,
    "CC-SV            road     3x4   sgr+cf+gar cvc    bulk    bsp    1    mem   =": None,
    "CC-SCLP          road     3x4   sgr+cf+gar cvc    bulk    bsp    1    mem   =": None,
    "MSF              road     4x2   sgr+cf+gar cvc    bulk    bsp    2    mem   =": None,
    # jobs=3 on four hosts: two workers, each of which sees the other's
    # effects only as the bytes the coordinator relays.
    "PR               road     4x2   sgr+cf+gar cvc    bulk    bsp    3    -     =": relayed,
    "PR               road     4x2   sgr+cf+gar cvc    bulk    bsp    3    crash =": recovered,
    "CC-SV            road     4x2   sgr+cf+gar cvc    scalar  bsp    3    -     =": relayed,
    "CC-SV            road     4x2   sgr+cf+gar cvc    scalar  bsp    3    crash =": recovered,
    # The compiled programs that compose several loops into one plan.
    "compiled:CC-SCLP er       3x4   sgr-only   iec    bulk    bsp    1    crash =": recovered,
    "compiled:MIS     er       3x4   mc         cvc    bulk    bsp    1    crash =": recovered,
    "compiled:PR      road     1x1   mc         cvc    bulk    bsp    1    crash =": recovered,
}
# Columns: app, graph, shape, variant, policy, backend, engine, jobs, fault,
# contract. With the named rows, the sweep's legal cells pair every legal
# value of an axis with every legal value of every other - so every app
# also runs on one host with one thread (1x1) and with 48 threads on tiny
# hosts (2x48) - and meet the CONDITIONED combinations; a refused row
# breaks exactly one rule.
SWEEP = [
    "BFS              er       1x1   sgr+cf+gar iec    bulk    async  1    mem   ~",
    "BFS              er       1x1   sgr+cf     cvc    bulk    bsp    1    -     =",
    "BFS              er       3x4   sgr-only   iec    scalar  bsp    3    -     =",
    "BFS              er       4x2   sgr+cf+gar hvc    bulk    async  1    -     ~",
    "BFS              road     2x48  mc         iec    scalar  bsp    1    -     =",
    "BFS              road     2x48  sgr+cf+gar oec    bulk    async  1    -     ~",
    "BFS              rmat     2x48  sgr-only   oec    bulk    bsp    3    crash =",
    "BFS              rmat     4x2   sgr+cf+gar cvc    scalar  async  1    -     ~",
    "BFS              powerlaw 1x1   sgr+cf     hvc    scalar  bsp    3    mem   =",
    "BFS              powerlaw 4x2   mc         cvc    bulk    bsp    1    -     =",
    "CC-LP            er       2x48  sgr+cf     iec    scalar  bsp    2    crash =",
    "CC-LP            road     1x1   sgr+cf     oec    bulk    bsp    3    -     =",
    "CC-LP            path     1x1   sgr-only   hvc    scalar  bsp    2    mem   =",
    "CC-LP            ladder   2x48  sgr+cf+gar oec    bulk    async  1    mem   ~",
    "CC-LP            rmat     4x2   sgr+cf+gar hvc    scalar  async  1    -     ~",
    "CC-LP            powerlaw 1x1   sgr-only   cvc    bulk    bsp    1    -     =",
    "CC-LP            powerlaw 2x48  sgr+cf+gar iec    scalar  async  1    -     ~",
    "CC-LP            powerlaw 3x4   sgr+cf+gar cvc    scalar  async  1    -     ~",
    "CC-SCLP          er       2x48  mc         hvc    bulk    bsp    1    crash =",
    "CC-SCLP          path     4x2   sgr+cf     iec    bulk    bsp    1    crash =",
    "CC-SCLP          ladder   1x1   mc         oec    scalar  bsp    3    mem   =",
    "CC-SCLP          rmat     1x1   sgr-only   cvc    bulk    bsp    1    crash =",
    "CC-SV            er       4x2   mc         oec    bulk    bsp    2    -     =",
    "CC-SV            path     2x48  sgr-only   cvc    bulk    bsp    1    -     =",
    "CC-SV            ladder   3x4   sgr+cf     iec    bulk    bsp    1    crash =",
    "CC-SV            rmat     3x4   mc         iec    bulk    bsp    2    mem   =",
    "CC-SV            powerlaw 1x1   sgr-only   iec    scalar  bsp    2    crash =",
    "K-CORE           er       1x1   sgr+cf     cvc    scalar  bsp    2    -     =",
    "K-CORE           road     4x2   sgr-only   oec    scalar  bsp    2    -     =",
    "K-CORE           path     3x4   mc         oec    bulk    bsp    3    crash =",
    "K-CORE           ladder   1x1   sgr-only   hvc    bulk    bsp    1    crash =",
    "K-CORE           rmat     1x1   sgr+cf     iec    bulk    bsp    3    -     =",
    "K-CORE           powerlaw 2x48  sgr+cf+gar oec    bulk    bsp    1    mem   =",
    "LD               er       1x1   sgr+cf     iec    bulk    bsp    1    crash =",
    "LD               road     2x48  sgr+cf+gar hvc    scalar  bsp    3    mem   =",
    "LD               path     2x48  sgr+cf+gar cvc    scalar  bsp    1    -     =",
    "LD               ladder   4x2   sgr+cf+gar iec    bulk    bsp    1    -     =",
    "LD               rmat     3x4   mc         oec    bulk    bsp    1    crash =",
    "LD               powerlaw 4x2   sgr-only   cvc    bulk    bsp    2    -     =",
    "LV               er       1x1   sgr-only   hvc    scalar  bsp    2    mem   =",
    "LV               road     3x4   sgr+cf     iec    bulk    bsp    1    crash =",
    "LV               path     2x48  sgr-only   cvc    bulk    bsp    1    -     =",
    "LV               ladder   4x2   sgr+cf+gar oec    bulk    bsp    1    -     =",
    "LV               rmat     1x1   sgr+cf+gar cvc    scalar  bsp    1    -     =",
    "LV               powerlaw 2x48  mc         cvc    bulk    bsp    3    -     =",
    "MIS              er       3x4   mc         cvc    bulk    bsp    2    -     =",
    "MIS              road     2x48  sgr-only   iec    scalar  bsp    3    mem   =",
    "MIS              path     4x2   sgr-only   cvc    bulk    bsp    1    -     =",
    "MIS              ladder   1x1   sgr+cf     hvc    bulk    bsp    3    crash =",
    "MIS              rmat     4x2   mc         oec    scalar  bsp    1    -     =",
    "MIS              powerlaw 4x2   sgr+cf+gar oec    bulk    bsp    1    crash =",
    "MSF              er       1x1   mc         iec    bulk    bsp    1    -     =",
    "MSF              path     2x48  sgr-only   cvc    bulk    bsp    1    -     =",
    "MSF              ladder   1x1   sgr+cf     hvc    bulk    bsp    1    -     =",
    "MSF              rmat     3x4   sgr+cf+gar cvc    scalar  bsp    1    -     =",
    "MSF              powerlaw 2x48  sgr-only   oec    scalar  bsp    3    -     =",
    "PR               er       2x48  sgr+cf+gar iec    scalar  async  1    -     ~",
    "PR               er       2x48  sgr-only   hvc    bulk    bsp    2    -     =",
    "PR               er       3x4   sgr+cf+gar hvc    scalar  async  1    -     ~",
    "PR               path     1x1   sgr+cf+gar cvc    bulk    async  1    -     ~",
    "PR               ladder   1x1   mc         iec    bulk    bsp    1    -     =",
    "PR               rmat     3x4   sgr+cf+gar oec    scalar  async  1    mem   ~",
    "PR               rmat     4x2   sgr-only   oec    scalar  bsp    3    -     =",
    "PR               powerlaw 4x2   sgr+cf     iec    bulk    bsp    1    -     =",
    "SSSP             er       1x1   sgr+cf+gar oec    bulk    async  1    -     ~",
    "SSSP             er       3x4   mc         cvc    bulk    bsp    1    -     =",
    "SSSP             road     2x48  sgr+cf+gar hvc    scalar  async  1    mem   ~",
    "SSSP             road     4x2   sgr+cf+gar cvc    scalar  bsp    2    -     =",
    "SSSP             road     4x2   sgr+cf+gar iec    bulk    async  1    -     ~",
    "SSSP             rmat     1x1   sgr-only   oec    bulk    bsp    1    -     =",
    "SSSP             powerlaw 1x1   sgr+cf+gar cvc    bulk    async  1    -     ~",
    "SSSP             powerlaw 1x1   sgr+cf     iec    bulk    bsp    3    crash =",
    "VERTEX-COVER     er       1x1   sgr+cf     cvc    bulk    bsp    1    mem   =",
    "VERTEX-COVER     road     4x2   mc         oec    scalar  bsp    3    mem   =",
    "VERTEX-COVER     path     2x48  mc         oec    scalar  bsp    1    -     =",
    "VERTEX-COVER     ladder   3x4   mc         oec    bulk    bsp    1    -     =",
    "VERTEX-COVER     rmat     1x1   sgr+cf+gar iec    bulk    bsp    2    -     =",
    "VERTEX-COVER     powerlaw 1x1   sgr-only   hvc    bulk    bsp    1    crash =",
    "compiled:CC-LP   er       4x2   sgr+cf     hvc    bulk    bsp    1    mem   =",
    "compiled:CC-LP   road     3x4   sgr-only   cvc    bulk    bsp    2    -     =",
    "compiled:CC-LP   path     4x2   sgr+cf+gar iec    bulk    bsp    1    -     =",
    "compiled:CC-LP   ladder   1x1   mc         oec    bulk    bsp    1    -     =",
    "compiled:CC-LP   rmat     1x1   sgr-only   cvc    scalar  bsp    1    -     =",
    "compiled:CC-LP   powerlaw 2x48  sgr+cf+gar iec    scalar  bsp    3    crash =",
    "compiled:CC-SCLP road     1x1   mc         hvc    bulk    bsp    3    -     =",
    "compiled:CC-SCLP rmat     4x2   sgr+cf+gar cvc    scalar  bsp    2    mem   =",
    "compiled:CC-SCLP path     2x48  sgr+cf     oec    bulk    bsp    1    -     =",
    "compiled:CC-SCLP ladder   1x1   sgr+cf+gar cvc    bulk    bsp    1    -     =",
    "compiled:CC-SCLP powerlaw 1x1   mc         cvc    scalar  bsp    1    -     =",
    "compiled:CC-SV   er       4x2   sgr-only   iec    scalar  bsp    3    crash =",
    "compiled:CC-SV   road     2x48  sgr+cf+gar oec    scalar  bsp    1    -     =",
    "compiled:CC-SV   path     3x4   sgr-only   oec    bulk    bsp    1    -     =",
    "compiled:CC-SV   ladder   1x1   mc         hvc    bulk    bsp    1    crash =",
    "compiled:CC-SV   rmat     2x48  sgr+cf+gar cvc    bulk    bsp    2    -     =",
    "compiled:CC-SV   powerlaw 3x4   sgr+cf     oec    bulk    bsp    1    mem   =",
    "compiled:MIS     road     1x1   sgr-only   iec    bulk    bsp    3    -     =",
    "compiled:MIS     powerlaw 2x48  sgr+cf     oec    scalar  bsp    2    mem   =",
    "compiled:MIS     path     4x2   sgr+cf+gar hvc    bulk    bsp    1    -     =",
    "compiled:MIS     ladder   1x1   sgr+cf     cvc    bulk    bsp    1    -     =",
    "compiled:MIS     rmat     1x1   mc         cvc    scalar  bsp    1    -     =",
    "compiled:PR      er       3x4   sgr-only   hvc    bulk    bsp    3    -     =",
    "compiled:PR      rmat     4x2   sgr+cf     oec    scalar  bsp    2    mem   =",
    "compiled:PR      path     2x48  sgr+cf+gar iec    bulk    bsp    1    -     =",
    "compiled:PR      ladder   1x1   sgr+cf     cvc    bulk    bsp    1    -     =",
    "compiled:PR      powerlaw 1x1   mc         cvc    scalar  bsp    1    -     =",
]
REFUSED = [
    "BFS              er       2x48  mc         oec    scalar  async  1    -     !GAR",
    "BFS              road     3x4   sgr+cf     oec    bulk    async  1    -     !GAR",
    "BFS              path     4x2   sgr-only   oec    scalar  async  1    -     !GAR",
    "BFS              ladder   2x48  sgr+cf+gar oec    bulk    async  1    crash !fault",
    "BFS              rmat     3x4   sgr+cf+gar oec    scalar  async  2    -     !jobs",
    "BFS              powerlaw 4x2   sgr+cf+gar oec    bulk    async  3    -     !jobs",
    "K-CORE           er       2x48  sgr+cf+gar cvc    scalar  bsp    1    -     !oec",
    "K-CORE           road     3x4   sgr+cf+gar hvc    bulk    bsp    1    -     !oec",
    "K-CORE           path     4x2   sgr+cf+gar iec    scalar  bsp    1    -     !oec",
    "VERTEX-COVER     ladder   2x48  sgr+cf+gar cvc    bulk    bsp    1    -     !oec",
    "VERTEX-COVER     rmat     3x4   sgr+cf+gar hvc    scalar  bsp    1    -     !oec",
    "VERTEX-COVER     powerlaw 4x2   sgr+cf+gar iec    bulk    bsp    1    -     !oec",
    "CC-SCLP          er       2x48  sgr+cf+gar oec    scalar  async  1    -     !residual",
    "CC-SV            road     3x4   sgr+cf+gar oec    bulk    async  1    -     !residual",
    "K-CORE           path     4x2   sgr+cf+gar oec    scalar  async  1    -     !residual",
    "LD               ladder   2x48  sgr+cf+gar oec    bulk    async  1    -     !residual",
    "LV               rmat     3x4   sgr+cf+gar oec    scalar  async  1    -     !residual",
    "MIS              powerlaw 4x2   sgr+cf+gar oec    bulk    async  1    -     !residual",
    "MSF              er       2x48  sgr+cf+gar oec    scalar  async  1    -     !residual",
    "VERTEX-COVER     road     3x4   sgr+cf+gar oec    bulk    async  1    -     !residual",
    "compiled:CC-LP   path     4x2   sgr+cf+gar oec    scalar  async  1    -     !residual",
    "compiled:CC-SV   ladder   2x48  sgr+cf+gar oec    bulk    async  1    -     !residual",
    "compiled:CC-SCLP er       4x2   sgr+cf     iec    bulk    async  1    -     !residual",
    "compiled:CC-SCLP path     4x2   mc         hvc    bulk    async  1    -     !residual",
    "compiled:CC-SCLP ladder   2x48  sgr+cf+gar cvc    bulk    async  1    -     !residual",
    "compiled:CC-SCLP powerlaw 3x4   sgr-only   oec    bulk    async  1    crash !fault",
    "compiled:MIS     er       4x2   sgr+cf     cvc    bulk    async  1    -     !residual",
    "compiled:MIS     path     3x4   sgr+cf+gar oec    bulk    async  1    -     !residual",
    "compiled:MIS     ladder   3x4   mc         hvc    bulk    async  1    crash !fault",
    "compiled:MIS     rmat     3x4   mc         iec    scalar  async  1    -     !residual",
    "compiled:PR      road     3x4   sgr+cf     oec    bulk    async  1    -     !residual",
    "compiled:PR      path     2x48  mc         hvc    bulk    async  1    -     !residual",
    "compiled:PR      ladder   4x2   mc         cvc    bulk    async  1    -     !residual",
    "compiled:PR      powerlaw 1x1   sgr+cf+gar iec    bulk    async  1    crash !fault",
]
TABLE = [*NAMED, *SWEEP, *REFUSED]

# ---------------------------------------------------------------- runner


PROGRAMS = {f"compiled:{app}": program for app, program in COMPILED_APPS.items()}


@functools.cache
def graph_of(family: str, weighted: bool, seed: int):
    return GRAPHS[family](seed, weighted)


def run_cell(cell: Cell, seed: int):
    graph = graph_of(cell.graph, APP_WEIGHTED.get(cell.app, False), seed)
    crash = HostCrash(host=min(1, cell.hosts - 1), round=2)  # one host: its only one
    with mock.patch.dict(KIMBAP_APPS, PROGRAMS):
        return run_kimbap(
            cell.app, cell.graph, cell.hosts,
            variant=RuntimeVariant(cell.variant),
            threads=cell.threads,
            graph=graph,
            pgraph=partition(graph, cell.hosts, cell.policy),
            fault_plan=(
                FaultPlan(name="crash@2", checkpoint_interval=2, crashes=(crash,))
                if cell.fault == "crash" else None
            ),
            memory_limit_slots=MEMORY_LIMIT_SLOTS if cell.fault == "mem" else None,
            bulk=cell.backend == "bulk",
            jobs=cell.jobs,
            engine=cell.engine,
        )


def check_oracle(cell: Cell, seed: int, values, stats, tolerance: float = 0.0) -> None:
    """The values against an oracle outside the simulator."""
    app = cell.app.removeprefix("compiled:")
    graph = graph_of(cell.graph, APP_WEIGHTED.get(cell.app, False), seed)
    if app in ("CC-LP", "CC-SCLP", "CC-SV", "MSF"):
        verify.check_components(graph, values)
    if app == "MSF":
        undirected = graph.to_networkx().to_undirected()
        weight = sum(d["weight"] for *_, d in nx.minimum_spanning_edges(undirected, data=True))
        assert stats["forest_weight"] == pytest.approx(weight, rel=1e-9)
    elif app == "MIS":
        verify.check_independent_set(graph, values)
    elif app in ("BFS", "SSSP"):
        verify.check_equivalent_values(dict(enumerate(cost_sssp(graph))), values, tolerance)
    elif app == "PR":
        ranks, _ = cost_pagerank(graph)
        verify.check_equivalent_values(dict(enumerate(ranks)), values, tolerance + 1e-9)
    elif app == "K-CORE":
        verify.check_core_numbers(graph, values)
    elif app == "VERTEX-COVER":
        verify.check_vertex_cover(graph, values)
    elif app in ("LV", "LD"):
        verify.check_community_partition(graph, values, require_connected=app == "LD")
        modularity = verify.partition_modularity(graph, values)
        assert stats["modularity"] == pytest.approx(modularity, abs=1e-12)
        # Starting from singletons, a level only ever raises modularity.
        singletons = verify.partition_modularity(graph, {n: n for n in range(graph.num_nodes)})
        assert modularity >= singletons - 1e-9


def check_cost_model(result) -> None:
    """Modeled time is non-negative and additive: the total is computation
    plus communication, and each is the sum of its per-phase-kind parts.
    Zero-weight statistics (``STATISTIC_FIELDS``, the master/remote read
    mirrors) are never priced: a log rebuilt from a copy of the block with
    those columns zeroed costs the same seconds, bit for bit."""
    report = result.to_dict()
    kinds = report["time_by_kind"].values()
    assert all(time["comp"] >= 0 and time["comm"] >= 0 for time in kinds)
    assert report["total"] == report["comp"] + report["comm"]
    for part in ("comp", "comm"):
        assert math.fsum(time[part] for time in kinds) == pytest.approx(report[part], rel=1e-9)
    cluster = result.cluster
    cells = cluster.log.cells()
    cells[:, :, [CELL_FIELDS.index(name) for name in STATISTIC_FIELDS]] = 0
    zeroed = MetricsLog(cluster.log.num_hosts)
    for phase, rows in zip(cluster.log.phases, cells):
        zeroed.start_phase(phase.kind, phase.parallel, phase.label, phase.round, phase.operator)
        if phase.slowdown is not None:
            zeroed.open.slowdown = phase.slowdown
        for host, row in enumerate(rows):
            zeroed.add(host, row)
    assert (zeroed.cells() == cells).all()

    def priced(log: MetricsLog) -> list[str]:
        total, by_kind = cluster.cost_model.time_totals(log, cluster.threads_per_host)
        times = [total, *by_kind.values()]
        return [float(x).hex() for t in times for x in (t.computation, t.communication)]

    assert priced(zeroed) == priced(cluster.log)


class Reference(NamedTuple):
    report: str
    values: dict


@functools.cache
def reference(cell: Cell, seed: int) -> Reference:
    """A reference cell's run, once, checked against the oracle."""
    result = run_cell(cell, seed)
    assert result.outcome == "ok", result.failure
    assert "engine" not in result.to_dict()
    check_cost_model(result)
    check_oracle(cell, seed, result.values, result.stats)
    if cell.fault != "-":
        # Crash recovery and a memory limit reach the fault-free values.
        assert result.values == reference(cell._replace(fault="-"), seed).values
    return Reference(canonical(result), result.values)


def check_cell(cell: Cell, seed: int):
    """Enforce a cell's contract; returns its result unless it is refused
    or its own reference."""
    rule = refusal(cell)
    if rule is not None:
        with pytest.raises(rule.error, match=rule.name) as refused:
            run_cell(cell, seed)
        assert type(refused.value) is rule.error
        return None
    expected = reference(cell.reference, seed)
    if cell == cell.reference:
        return None
    result = run_cell(cell, seed)
    assert result.outcome == "ok", result.failure
    check_cost_model(result)
    if cell.engine == "async":
        tolerance = TOLERANCE.get(cell.app, 0.0)
        verify.check_equivalent_values(expected.values, result.values, tolerance)
        check_oracle(cell, seed, result.values, result.stats, tolerance)
        assert result.to_dict()["engine"] == "async"  # a BSP report has no key
    else:
        assert canonical(result) == expected.report, f"{cell} diverged from {cell.reference}"
        assert result.values == expected.values
    return result


# ----------------------------------------------------------------- tests

ROWS = [Cell.parse(row) for row in TABLE]
CHECKS = {Cell.parse(row)[0]: check for row, check in NAMED.items() if check}


@pytest.mark.parametrize("cell", [cell for cell, _ in ROWS], ids=str)
def test_cell(cell):
    result = check_cell(cell, SEED)
    if cell in CHECKS:
        CHECKS[cell](result)


def _covers(cell: Cell) -> set:
    """What one legal cell covers: its value pairs and conditioned pairs."""
    covered = set(itertools.combinations(cell._asdict().items(), 2))
    for axes, condition in CONDITIONED:
        if condition(cell):
            covered.add((axes, tuple(getattr(cell, axis) for axis in axes)))
    return covered


def _rule_key(rule: Rule, cell: Cell) -> tuple:
    return rule.name, tuple(getattr(cell, axis) for axis in rule.on)


@functools.cache
def _legal_and_illegal() -> tuple[frozenset, frozenset]:
    """Everything the legal cells of the whole cross cover, and every
    illegal combination the rules find in it. No rule or condition reads
    the graph, so one family stands for all of them."""
    axes = [axis for axis in AXES if axis != "graph"]
    first = AXES["graph"][0]
    legal, illegal = set(), set()
    for values in itertools.product(*(AXES[axis] for axis in axes)):
        cell = Cell(graph=first, **dict(zip(axes, values)))
        rule = refusal(cell)
        if rule is None:
            legal |= _covers(cell)
        else:
            illegal.add(_rule_key(rule, cell))
    with_first = [pair for pair in legal if ("graph", first) in pair]
    for graph in AXES["graph"][1:]:
        legal |= {
            tuple(("graph", graph) if item == ("graph", first) else item for item in pair)
            for pair in with_first
        }
    return frozenset(legal), frozenset(illegal)


def test_every_row_states_the_contract_of_the_rules():
    assert len({cell for cell, _ in ROWS}) == len(ROWS)
    for cell, stated in ROWS:
        assert stated == contract(cell), cell
        for axis, value in cell._asdict().items():
            assert value in AXES[axis], (cell, axis)


def test_legal_cells_cover_every_legal_pair_and_refusals_every_illegal_combination():
    legal, illegal = _legal_and_illegal()
    covered = set().union(*(_covers(cell) for cell, stated in ROWS if stated[0] != "!"))
    assert sorted(legal - covered, key=repr) == []
    refused = {_rule_key(refusal(cell), cell) for cell, stated in ROWS if stated[0] == "!"}
    assert sorted(illegal - refused, key=repr) == []


def legal_cells():
    return st.builds(Cell, *(st.sampled_from(values) for values in AXES.values())).filter(
        lambda cell: refusal(cell) is None
    )


@given(cell=legal_cells(), seed=st.integers(0, 1000))
@settings(max_examples=12, deadline=None)
def test_a_random_legal_cell_keeps_its_contract(cell, seed):
    check_cell(cell, seed)


# Process-level determinism: the report is a pure function of the command
# line, not of the interpreter's hash seed. A bulk BSP run, an async run,
# and a crash plan (whose trace is compared too).
PROCESS_RUNS = {
    "bulk": ["run", "PR", "--graph", "powerlaw", "--hosts", "4", "--bulk"],
    "async": ["run", "CC-LP", "--graph", "road", "--hosts", "4", "--engine", "async"],
    "crash": ["faults", "BFS", "--graph", "powerlaw", "--hosts", "4", "--plan", "crash"],
}


def test_reports_are_identical_across_processes_and_hash_seeds(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for name, argv in PROCESS_RUNS.items():
        for seed in ("1", "2"):
            out = tmp_path / f"{name}-{seed}"
            command = [sys.executable, "-m", "repro", *argv, "--report", f"{out}.json"]
            if argv[0] == "faults":
                command += ["--out", f"{out}.trace"]
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            runs.append(subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL))
    assert [run.wait(timeout=300) for run in runs] == [0] * len(runs)
    assert len(list(tmp_path.iterdir())) == 2 * (len(PROCESS_RUNS) + 1)  # + the trace
    for first in tmp_path.glob("*-1.*"):
        assert first.read_bytes() == (tmp_path / first.name.replace("-1.", "-2.")).read_bytes()
    faults = json.loads((tmp_path / "crash-1.json").read_text())["faults"]
    assert faults["schema"] == "repro-faults/v1" and faults["recoveries"] == 1
