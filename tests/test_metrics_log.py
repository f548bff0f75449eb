"""The phase log is one array: its rows against a plain reference model,
and its size against the phase count.

A random program of phase starts, counter writes, sends, writes after a
phase closes (the pool's merge, the async engine's flush) and reads in
the middle of a phase must leave every row, every total and the priced
time equal to a dict-of-lists model kept here. The log of a whole run
must hold O(hosts) objects however many phases it has.
"""

from __future__ import annotations

import enum
import gc
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, CostModel, ModeledTime
from repro.cluster.metrics import (
    CELL_FIELDS,
    COUNTER_FIELDS,
    TRAFFIC_FIELDS,
    Counters,
    HostCells,
    PhaseKind,
    PhaseRecord,
)
from repro.eval.harness import run_kimbap
from repro.graph import generators

HOSTS = 3
LABELS = ("", "push", "sync", "push")
COUNTS = st.integers(min_value=0, max_value=2**40)

OPS = st.one_of(
    st.tuples(
        st.just("start"),
        st.sampled_from(list(PhaseKind)),
        st.booleans(),
        st.sampled_from(LABELS),
        st.sampled_from(LABELS),
    ),
    st.tuples(st.just("close")),
    st.tuples(st.just("advance")),
    st.tuples(
        st.just("count"),
        st.integers(0, HOSTS - 1),
        st.sampled_from(COUNTER_FIELDS),
        COUNTS,
    ),
    st.tuples(
        st.just("send"),
        st.integers(0, HOSTS - 1),
        st.integers(0, HOSTS - 1),
        st.integers(0, 4096),
    ),
    st.tuples(
        st.just("send_many"),
        st.integers(0, HOSTS - 1),
        st.integers(0, HOSTS - 1),
        st.integers(0, 4096),
        st.integers(0, 50),
    ),
    st.tuples(
        st.just("slowdown"),
        st.lists(st.sampled_from([1.0, 1.5, 3.0]), min_size=HOSTS, max_size=HOSTS),
    ),
    st.tuples(st.just("chunk"), st.integers(0, 10**6)),
    st.tuples(st.just("read")),
)


class Model:
    """The reference: one dict per phase, a list of ints per host."""

    def __init__(self) -> None:
        self.phases: list[dict] = []

    def start(self, kind, parallel, label, round, operator) -> None:
        self.phases.append(
            {
                "kind": kind,
                "parallel": parallel,
                "label": label,
                "round": round,
                "operator": operator,
                "cells": [[0] * len(CELL_FIELDS) for _ in range(HOSTS)],
                "slowdown": None,
                "chunk": None,
            }
        )

    def add(self, host: int, name: str, value: int) -> None:
        self.phases[-1]["cells"][host][CELL_FIELDS.index(name)] += value

    def send(self, src: int, dst: int, nbytes: int, count: int) -> None:
        if src == dst or count <= 0:
            return
        self.add(src, "msgs_sent", count)
        self.add(src, "bytes_sent", nbytes * count)
        self.add(dst, "msgs_recv", count)
        self.add(dst, "bytes_recv", nbytes * count)

    def records(self) -> list[PhaseRecord]:
        width = len(COUNTER_FIELDS)
        return [
            PhaseRecord(
                phase["kind"],
                phase["parallel"],
                [Counters(*row[:width]) for row in phase["cells"]],
                *([row[width + column] for row in phase["cells"]] for column in range(4)),
                label=phase["label"],
                round=phase["round"],
                operator=phase["operator"] or phase["label"],
                slowdown=phase["slowdown"],
                chunk=phase["chunk"],
            )
            for phase in self.phases
        ]


def assert_log_is_the_model(cluster: Cluster, model: Model) -> None:
    log = cluster.log
    records = model.records()
    assert log.num_phases == len(records)
    assert log.phases == records
    assert log.cells().tolist() == [phase["cells"] for phase in model.phases]
    totals = Counters()
    for record in records:
        for counters in record.counters:
            totals.add(counters)
    assert log.total_counters() == totals
    assert log.total_messages() == sum(sum(record.msgs_sent) for record in records)
    assert log.total_bytes() == sum(sum(record.bytes_sent) for record in records)
    model_cost = CostModel()
    total, by_kind = ModeledTime(0.0, 0.0), {}
    for record in records:
        priced = model_cost.phase_time(record, 4)
        total = total + priced
        by_kind[record.kind] = by_kind.get(record.kind, ModeledTime(0.0, 0.0)) + priced
    got_total, got_by_kind = model_cost.time_totals(log, 4)
    assert got_total == total
    assert got_by_kind == by_kind and list(got_by_kind) == list(by_kind)


class TestTheLogIsTheModel:
    @settings(max_examples=200, deadline=None)
    @given(program=st.lists(OPS, max_size=40))
    def test_random_programs(self, program):
        cluster, model = Cluster(HOSTS, threads_per_host=4), Model()
        scope = None
        for op in program:
            name, args = op[0], op[1:]
            if name == "start":
                if scope is not None:
                    scope.__exit__(None, None, None)
                kind, parallel, label, operator = args
                scope = cluster.phase(kind, parallel, label, operator)
                scope.__enter__()
                model.start(kind, parallel, label, cluster.current_round, operator)
            elif name == "close" and scope is not None:
                scope.__exit__(None, None, None)
                scope = None
            elif name == "advance":
                cluster.advance_round()
            elif not model.phases:
                continue  # nothing to write into yet
            elif name == "count":
                host, field, value = args
                if scope is not None:
                    cells = cluster.counters(host)
                    setattr(cells, field, getattr(cells, field) + value)
                else:  # the last phase, after it closed
                    cluster.log.add(host, (value,), (field,))
                model.add(host, field, value)
            elif name in ("send", "send_many"):
                src, dst, nbytes, *count = args
                if scope is not None:
                    if name == "send":
                        cluster.network.send(src, dst, nbytes)
                    else:
                        cluster.network.send_many(src, dst, nbytes, count[0])
                else:
                    traffic = (count[0] if count else 1) if src != dst else 0
                    cluster.log.add(src, (traffic, nbytes * traffic), TRAFFIC_FIELDS[:2])
                    cluster.log.add(dst, (traffic, nbytes * traffic), TRAFFIC_FIELDS[2:])
                model.send(src, dst, nbytes, count[0] if count else 1)
            elif name == "slowdown":
                cluster.log.open.slowdown = args[0]
                model.phases[-1]["slowdown"] = list(args[0])
            elif name == "chunk":
                cluster.log.open.chunk = args[0]
                model.phases[-1]["chunk"] = args[0]
            elif name == "read":
                assert_log_is_the_model(cluster, model)
                assert cluster.log.open_row().tolist() == model.phases[-1]["cells"]
        assert_log_is_the_model(cluster, model)
        if scope is not None:
            scope.__exit__(None, None, None)


def test_a_seal_moves_every_cell_in_order_and_zeroes_it():
    cluster = Cluster(2)
    with cluster.phase(PhaseKind.REDUCE_COMPUTE):
        for host, cells in enumerate(cluster.log.hosts):
            for index, name in enumerate(CELL_FIELDS):
                setattr(cells, name, 100 * host + index + 1)
    with cluster.phase(PhaseKind.REDUCE_SYNC):
        assert cluster.log.open_row().tolist() == [[0] * len(CELL_FIELDS)] * 2
    assert cluster.log.cells()[0].tolist() == [
        [100 * host + index + 1 for index in range(len(CELL_FIELDS))] for host in range(2)
    ]
    assert HostCells.__slots__ == CELL_FIELDS


def _reachable(root) -> int:
    """Objects reachable from ``root``, not counting shared definitions
    (types, modules, functions, enum members)."""
    shared = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, enum.Enum)
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, shared):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def test_a_run_log_holds_o_hosts_objects_whatever_its_phase_count():
    hosts, bound = 4, 64
    logs = []
    for rows in (4, 40):
        graph = generators.road_like(rows, 6, seed=3, weighted=True)
        result = run_kimbap("SSSP", "road", hosts, threads=4, graph=graph, bulk=True)
        logs.append(result.cluster.log)
    small, large = logs
    assert large.num_phases > 4 * small.num_phases and large.num_phases > bound
    for log in logs:
        assert _reachable(log) <= bound
