"""The plan-to-kernel codegen stage, piece by piece.

``repro.exec.codegen`` lowers a plan into prebound compiled kernels, one
per compute phase, held byte-identical to the scalar oracle; the
whole-run form of that contract is the conformance table
(``tests/test_conformance.py``). These tests pin down abutting compute
phases and the single EdgePush kernel (frontier extremes, opaque callable
filters, the one prepared reduce call) on synthetic plans, check the
prepared-fold fast path against the generic reduction and the shape rule
for plan callables, count what a compiled round may not do (sort, call
the per-element map API), and take the census of plan shapes the apps
actually run.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.metrics import PhaseKind
from repro.core import BoolReducer
from repro.core.propmap import NodePropMap
from repro.core.reducers import MIN, SUM
from repro.core.reduction import ThreadLocalReduction
from repro.core.variants import RuntimeVariant
from repro.eval.harness import APP_POLICY, APP_WEIGHTED, KIMBAP_APPS, run_kimbap
from repro.exec import Executor, Operator, OperatorStep, Plan, SyncStep, Until, walk_plans
from repro.exec.codegen import (
    _SPECIALIZED_FORMS,
    ENTRY_OPERATOR,
    PreparedFrontierPush,
)
from repro.exec.plan import CmpFilter, EdgePush, NodeUpdate, apply_value_filter
from repro.graph import Graph, generators
from repro.partition import partition
from tests.conftest import canonical, random_graph

APPS = tuple(sorted(KIMBAP_APPS))


def app_weighted(app: str) -> bool:
    return APP_WEIGHTED.get(app, False)


def assert_codegen_identical(app, graph, hosts, threads=4, **kwargs):
    scalar = run_kimbap(
        app, "equiv", hosts, graph=graph, threads=threads, bulk=False,
        **kwargs,
    )
    generated = run_kimbap(
        app, "equiv", hosts, graph=graph, threads=threads, bulk=True,
        **kwargs,
    )
    assert canonical(scalar) == canonical(generated), (
        f"{app} hosts={hosts} {kwargs}: generated kernels diverged from "
        "the scalar oracle"
    )
    assert scalar.values == generated.values


# ------------------------------------------------- abutting compute phases
#
# No registered app runs two compute phases back to back (the census at
# the bottom of this file), so these synthetic plans are the only place
# two abutting phases - and, under jobs=2, two back-to-back sharded
# exchanges with no sync collective between them - are exercised.


def _two_updates(executor, pgraph):
    cluster = executor.cluster
    a = NodePropMap(cluster, pgraph, "a")
    b = NodePropMap(cluster, pgraph, "b")
    executor.init_map(a, lambda nodes: np.zeros(nodes.size))
    executor.init_map(b, lambda nodes: np.zeros(nodes.size))
    steps = [
        OperatorStep(
            Operator(
                "fill_a", "masters",
                NodeUpdate(a, SUM, value=lambda nodes: nodes * 0.5),
            )
        ),
        OperatorStep(
            Operator(
                "fill_b", "masters",
                NodeUpdate(b, MIN, value=lambda nodes: nodes + 1.0),
            )
        ),
        SyncStep(a, "reduce"),
        SyncStep(b, "reduce"),
    ]
    plan = Plan(
        name="two-updates", pgraph=pgraph, steps=steps,
        max_rounds=1, raise_on_max_rounds=False,
    )
    return plan, (a, b)


def _push_then_fill(executor, pgraph, **push_kwargs):
    """A frontier push and a node update reducing into the same map, so
    the second phase's effects stack on the first's pending ones."""
    cluster = executor.cluster
    label = NodePropMap(cluster, pgraph, "label")
    out = NodePropMap(cluster, pgraph, "out")
    executor.init_map(label, lambda nodes: nodes + 0.0)
    executor.init_map(out, lambda nodes: np.full(nodes.size, np.inf))
    steps = [
        OperatorStep(
            Operator(
                "push", "masters",
                EdgePush(
                    target=out, op=MIN, source=label, require_active=label,
                    **push_kwargs,
                ),
            )
        ),
        OperatorStep(
            Operator(
                "fill", "masters",
                NodeUpdate(out, MIN, value=lambda nodes: nodes + 7.0),
            )
        ),
        SyncStep(out, "reduce"),
    ]
    plan = Plan(
        name="push-then-fill", pgraph=pgraph, steps=steps,
        max_rounds=1, raise_on_max_rounds=False,
    )
    return plan, (out,)


def _phase_log(cluster):
    return [
        (
            record.kind.value,
            record.label,
            record.operator,
            record.round,
            [counters.as_dict() for counters in record.counters],
        )
        for record in cluster.log.phases
    ]


def _run_abutting(build, bulk, jobs=1):
    graph = generators.powerlaw_like(scale=5, seed=3)
    cluster = Cluster(4, threads_per_host=2)
    pgraph = partition(graph, 4, "cvc")
    executor = Executor(cluster, bulk=bulk, jobs=jobs)
    try:
        plan, maps = build(executor, pgraph)
        executor.run(plan)
    finally:
        executor.close()
    operators = [
        payload
        for tag, payload in executor.compiled(plan).entries
        if tag == ENTRY_OPERATOR
    ]
    return operators, ([m.snapshot() for m in maps], _phase_log(cluster))


class TestFusionBoundaries:
    """Adjacent operator steps are legal and run as consecutive phases:
    one phase per step in step order, values and phase logs
    identical across scalar / bulk / ``jobs=2``. (The class and test
    names date from kernel fusion, which these plans were the boundary
    cases of; the plans outlived it.)"""

    @pytest.fixture
    def backends_agree(self, monkeypatch):
        from repro.exec.pool import HostShardPool

        flushed = []
        flush = HostShardPool.flush

        def counted_flush(self, carriers, log):
            flushed.append(log.open.label)
            flush(self, carriers, log)

        monkeypatch.setattr(HostShardPool, "flush", counted_flush)

        def check(build):
            _, (values, log) = _run_abutting(build, bulk=False)
            steps = [row[1] for row in log if row[0].endswith("compute")]
            assert len(steps) == 2
            assert any(value != 0 for value in values[0].values())
            operators, bulk = _run_abutting(build, bulk=True)
            assert [c.operator.label for c in operators] == steps
            assert bulk == (values, log)
            assert flushed == []
            assert _run_abutting(build, bulk=True, jobs=2)[1] == (values, log)
            # Both phases sharded: two effect exchanges, nothing between.
            assert flushed == steps
            return operators

        return check

    def test_fused_run_matches_interpreted_and_stamps_records(self, backends_agree):
        backends_agree(_two_updates)

    def test_frontier_push_specializes_and_fuses(self, backends_agree):
        push, fill = backends_agree(
            lambda executor, pgraph: _push_then_fill(
                executor, pgraph, value_filter=CmpFilter("lt", 20.0)
            )
        )
        assert push.specialized and fill.specialized

    def test_opaque_filter_push_breaks_the_group(self, backends_agree):
        # An EdgePush with an opaque callable filter compiles to the same
        # kernel as every other push.
        push, _ = backends_agree(
            lambda executor, pgraph: _push_then_fill(
                executor, pgraph, value_filter=lambda values: values > 3
            )
        )
        assert push.specialized
        assert isinstance(push.body, PreparedFrontierPush)


# ------------------------------------------------------ frontier extremes


class _ReduceSpy:
    """Records every ``reduce_bulk_prepared`` call - what a compiled
    EdgePush hands the map: ``(host, prepared, values, idx)``."""

    def __enter__(self):
        self.calls = calls = []
        original = self._original = NodePropMap.reduce_bulk_prepared

        def spy(prop, host, prepared, values, op, idx=None):
            calls.append((host, prepared, np.array(values), idx))
            return original(prop, host, prepared, values, op, idx)

        NodePropMap.reduce_bulk_prepared = spy
        return self

    def __exit__(self, *exc_info):
        NodePropMap.reduce_bulk_prepared = self._original

    def shares(self):
        """Per call, the share of the prepared batch's edges it pushed."""
        return [
            1.0 if idx is None else idx.size / prepared.keys.size
            for _, prepared, _, idx in self.calls
        ]


def _expansion_source(nodes):
    return (nodes % 7) + 0.5


def _expansion_reference(kernel, part, host, act):
    """``(idx, pushes)`` of one host visit, the way the scalar oracle
    walks it: candidate sources in local-id order, each one's edge range
    appended in turn. ``idx`` are positions among the candidates' edges."""
    idx, pushes, offset = [], [], 0
    for local in range(part.num_local):
        lo, hi = int(part.indptr[local]), int(part.indptr[local + 1])
        if kernel.skip_zero_degree and hi == lo:
            continue
        first, offset = offset, offset + hi - lo
        node = int(part.local_to_global[local])
        if not act.is_active(host, node):
            continue
        value = _expansion_source(node)
        if kernel.value_filter is not None and not bool(
            apply_value_filter(kernel.value_filter, value, node)
        ):
            continue
        if kernel.transform is not None:
            value = kernel.transform(value, node)
        if kernel.const_value is not None:
            value = kernel.const_value
        for edge in range(lo, hi):
            dst = int(part.local_to_global[part.indices[edge]])
            if kernel.edge_filter is not None and not kernel.edge_filter(node, dst):
                continue
            idx.append(first + edge - lo)
            weight = part.weights[edge] if kernel.with_weight == "add" else 0.0
            pushes.append(value + weight)
    return idx, pushes


class TestFrozenExpansionIsTheCsrSlice:
    """A compiled EdgePush's frozen expansion - its prepared batch's keys
    and threads - is the CSR's first ``indptr[total]`` edges in edge
    order: the candidate sources ascend and a 0-degree one adds no edge,
    so expansion position and edge id coincide whether 0-degree sources
    are skipped or not."""

    # CC-SCLP pushes from 0-degree sources too (skip_zero_degree=False).
    @pytest.mark.parametrize("app", ["CC-LP", "CC-SCLP", "SSSP", "BFS", "PR"])
    @pytest.mark.parametrize("hosts", [1, 3])
    def test_prepared_batch_is_the_edge_prefix(self, monkeypatch, app, hosts):
        builds = []
        original_build = PreparedFrontierPush._build

        def build(kernel, cluster, part, host):
            target = kernel.kernel.target
            original_prepare = target.prepare_reduce_bulk

            def prepare(prop_host, threads, keys):
                builds.append((kernel, cluster, part, np.array(threads), np.array(keys)))
                return original_prepare(prop_host, threads, keys)

            target.prepare_reduce_bulk = prepare  # shadows the method, this build only
            try:
                return original_build(kernel, cluster, part, host)
            finally:
                del target.prepare_reduce_bulk

        monkeypatch.setattr(PreparedFrontierPush, "_build", build)
        graph = generators.powerlaw_like(scale=6, seed=3, weighted=app_weighted(app))
        run_kimbap(app, "powerlaw", hosts, threads=4, graph=graph, bulk=True)
        assert {part.host_id for _, _, part, _, _ in builds} == set(range(hosts))
        for kernel, cluster, part, threads, keys in builds:
            total = part.num_masters if kernel.space == "masters" else part.num_local
            edges = int(part.indptr[total])
            assert keys.tolist() == part.local_to_global[part.indices[:edges]].tolist()
            sources = np.repeat(np.arange(total), np.diff(part.indptr[: total + 1]))
            assert threads.tolist() == cluster.threads_of(total)[sources].tolist()


class TestFrontierExtremes:
    """Frontier-aware kernels at the extremes - empty, full, one source,
    and everything between - stay byte-identical to the scalar oracle,
    and the run expansion itself equals the oracle's source-by-source
    walk of the CSR."""

    @given(
        seed=st.integers(min_value=0, max_value=40),
        hosts=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=15, deadline=None)
    def test_sweep_byte_identity(self, seed, hosts):
        graph = random_graph(seed, weighted=True)
        assert_codegen_identical("SSSP", graph, hosts=hosts, threads=2)

    def test_full_frontier_folds_the_whole_prepared_batch(self):
        # Activity buffers start full, so CC-LP's first round pushes from
        # every candidate source: the frozen full arrays (idx=None), on
        # every host.
        from repro.algorithms.cc_lp import cc_lp

        graph = generators.powerlaw_like(scale=6, seed=3)
        cluster = Cluster(2, threads_per_host=2)
        pgraph = partition(graph, 2, "cvc")
        executor = Executor(cluster, bulk=True)
        with _ReduceSpy() as spy:
            cc_lp(cluster, pgraph, executor=executor)
        assert [(host, idx) for host, _, _, idx in spy.calls[:2]] == [
            (0, None), (1, None),
        ]

    def test_empty_frontier_charges_sources_and_reduces_nothing(self):
        # A value filter nothing passes: the compiled kernel must charge
        # the static per-source work, read the sources, and stop there.
        graph = generators.powerlaw_like(scale=5, seed=7)
        outcomes = []
        for bulk in (False, True):
            cluster = Cluster(2, threads_per_host=2)
            pgraph = partition(graph, 2, "cvc")
            executor = Executor(cluster, bulk=bulk)
            src = NodePropMap(cluster, pgraph, "src")
            out = NodePropMap(cluster, pgraph, "out")
            executor.init_map(src, lambda nodes: nodes + 0.0)
            executor.init_map(out, lambda nodes: nodes + 0.0)
            plan = Plan(
                name="nobody",
                pgraph=pgraph,
                max_rounds=1,
                raise_on_max_rounds=False,
                steps=[
                    OperatorStep(
                        Operator(
                            "push", "masters",
                            EdgePush(
                                target=out, op=MIN, source=src,
                                charge_per_source=3,
                                value_filter=CmpFilter("lt", -1.0),
                            ),
                        )
                    ),
                    SyncStep(out, "reduce"),
                ],
            )
            with _ReduceSpy() as spy:
                executor.run(plan)
            assert spy.calls == []
            outcomes.append((out.snapshot(), _phase_log(cluster)))
        assert outcomes[0] == outcomes[1]
        push = next(r for r in cluster.log.phases if r.operator == "push")
        assert all(c.local_ops > 0 and c.edge_iters == 0 for c in push.counters)

    def test_frontier_narrow_to_wide_mid_run(self):
        # Single-source expansion on a power-law graph: round 1's
        # frontier is the lone source; within a few rounds the wave covers
        # most candidates. One run crosses every density, still
        # byte-identical.
        graph = generators.powerlaw_like(scale=7, seed=5, weighted=True)
        assert_codegen_identical("SSSP", graph, hosts=2)
        cluster = Cluster(2, threads_per_host=2)
        with _ReduceSpy() as spy:
            from repro.algorithms.sssp import sssp

            sssp(
                cluster, partition(graph, 2, "cvc"), source=0,
                executor=Executor(cluster, bulk=True),
            )
        shares = spy.shares()
        assert min(shares) < 0.05 and max(shares) > 0.5

    @given(
        degrees=st.lists(
            st.one_of(st.integers(0, 4), st.integers(0, 4), st.integers(30, 120)),
            min_size=1, max_size=24,
        ),
        active=st.sampled_from(("0", "1", "n/4-1", "n/4", "n-1", "n")),
        hosts=st.sampled_from([1, 2]),
        skip_zero_degree=st.booleans(),
        edge_filter=st.booleans(),
        const_value=st.booleans(),
        needs_nodes=st.booleans(),
        transform=st.booleans(),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=120, deadline=None)
    def test_run_expansion_matches_the_per_source_walk(
        self, degrees, active, hosts, skip_zero_degree, edge_filter,
        const_value, needs_nodes, transform, seed,
    ):
        rng = np.random.default_rng(seed)
        n = len(degrees)
        edges = [
            (node, int(dst))
            for node, degree in enumerate(degrees)
            for dst in rng.integers(0, n, size=degree)
        ]
        graph = Graph.from_edge_list(n, edges, rng.integers(1, 9, size=len(edges)))
        cluster = Cluster(hosts, threads_per_host=2)
        pgraph = partition(graph, hosts, "oec")
        executor = Executor(cluster, bulk=True)
        src = NodePropMap(cluster, pgraph, "src")
        act = NodePropMap(cluster, pgraph, "act")
        out = NodePropMap(cluster, pgraph, "out")
        executor.init_map(src, _expansion_source)
        executor.init_map(act, lambda nodes: np.zeros(nodes.size))
        executor.init_map(out, lambda nodes: np.full(nodes.size, np.inf))
        # The active set, through a real round: the initially full
        # activity buffers lapse, the chosen nodes' masters change.
        size = {"0": 0, "1": 1, "n/4-1": n // 4 - 1, "n/4": n // 4,
                "n-1": n - 1, "n": n}[active]
        chosen = np.sort(rng.permutation(n)[: min(max(size, 0), n)])
        act.reset_updated()
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            act.reduce_bulk(0, np.zeros(chosen.size, dtype=np.int64), chosen,
                            np.ones(chosen.size), SUM)
        act.reduce_sync()
        act.reset_updated()
        threshold = rng.integers(0, 8, size=n) + 0.0
        kernel = EdgePush(
            target=out, op=MIN, source=src, require_active=act,
            skip_zero_degree=skip_zero_degree, with_weight="add",
            value_filter=(
                CmpFilter("lt", other=threshold) if needs_nodes
                else CmpFilter("lt", 5.0)
            ),
            transform=(lambda values, nodes: values * 2 + nodes) if transform else None,
            const_value=3.0 if const_value else None,
            edge_filter=(lambda s, d: (s + d) % 3 != 0) if edge_filter else None,
        )
        plan = Plan(
            name="expansion", pgraph=pgraph,
            max_rounds=1, raise_on_max_rounds=False,
            steps=[OperatorStep(Operator("push", "all", kernel)), SyncStep(out, "reduce")],
        )
        with _ReduceSpy() as spy:
            executor.run(plan)
        got = {host: (prepared, values, idx) for host, prepared, values, idx in spy.calls}
        assert len(got) == len(spy.calls)
        for host, part in enumerate(pgraph.parts):
            idx, pushes = _expansion_reference(kernel, part, host, act)
            if not idx:
                assert host not in got
                continue
            prepared, values, got_idx = got[host]
            if got_idx is None:
                got_idx = np.arange(prepared.keys.size)
            assert got_idx.tolist() == idx
            assert values.tolist() == pushes


# ------------------------------------------------- the one EdgePush kernel


def _opaque_filter_relax(graph, hosts, policy, bulk, weighted):
    """SSSP-shaped quiescence loop whose value and edge filters are plain
    lambdas; returns everything the byte-identity contract covers."""
    cluster = Cluster(hosts, threads_per_host=2)
    pgraph = partition(graph, hosts, policy)
    executor = Executor(cluster, bulk=bulk)
    dist = NodePropMap(cluster, pgraph, "dist")
    executor.init_map(dist, lambda nodes: np.where(nodes % 5 == 0, 0.0, np.inf))
    dist.pin_mirrors(invariant="none")
    plan = Plan(
        name="opaque-relax",
        pgraph=pgraph,
        steps=[
            OperatorStep(
                Operator(
                    "relax", "all",
                    EdgePush(
                        target=dist, op=MIN, source=dist,
                        require_active=dist,
                        charge_per_source=1,
                        value_filter=lambda values: values != np.inf,
                        edge_filter=lambda src, dst: (src + dst) % 3 != 0,
                        with_weight="add" if weighted else None,
                    ),
                )
            ),
            SyncStep(dist, "reduce"),
            SyncStep(dist, "broadcast"),
        ],
        quiesce=(dist,),
    )
    (entry,) = [e for e in executor.compiled(plan).entries if e[0] == ENTRY_OPERATOR]
    rounds = executor.run(plan)
    return {
        "rounds": rounds,
        "log": _phase_log(cluster),
        "values": dist.snapshot(),
        "messages": cluster.log.total_messages(),
        "bytes": cluster.log.total_bytes(),
    }, entry[1]


class TestOneEdgePushKernel:
    @given(
        seed=st.integers(min_value=0, max_value=60),
        hosts=st.integers(min_value=1, max_value=4),
        policy=st.sampled_from(["oec", "cvc", "hvc"]),
        weighted=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_opaque_callable_filters_run_compiled(
        self, seed, hosts, policy, weighted
    ):
        graph = random_graph(seed, weighted=weighted)
        scalar, _ = _opaque_filter_relax(graph, hosts, policy, False, weighted)
        bulk, compiled = _opaque_filter_relax(graph, hosts, policy, True, weighted)
        assert compiled.specialized
        assert isinstance(compiled.body, PreparedFrontierPush)
        assert bulk == scalar

    def test_filter_free_push_folds_prepared_from_round_one(self, monkeypatch):
        # Every round of a filter-free push is a full frontier: it folds
        # through its prepared batch, whole, from the first round on, never
        # the generic fold.
        calls = []
        for name in ("reduce_bulk", "reduce_bulk_prepared"):
            original = getattr(NodePropMap, name)

            def spy(self, *args, _name=name, _original=original):
                calls.append(_name if len(args) < 5 or args[4] is None else "subset")
                return _original(self, *args)

            monkeypatch.setattr(NodePropMap, name, spy)
        graph = generators.powerlaw_like(scale=5, seed=3)
        cluster = Cluster(2, threads_per_host=2)
        pgraph = partition(graph, 2, "cvc")
        executor = Executor(cluster, bulk=True)
        src = NodePropMap(cluster, pgraph, "src")
        out = NodePropMap(cluster, pgraph, "out")
        executor.init_map(src, lambda nodes: nodes + 0.0)
        executor.init_map(out, lambda nodes: np.zeros(nodes.size))
        plan = Plan(
            name="static-push",
            pgraph=pgraph,
            max_rounds=1,
            raise_on_max_rounds=False,
            steps=[
                OperatorStep(
                    Operator(
                        "push", "masters", EdgePush(target=out, op=SUM, source=src)
                    )
                ),
                SyncStep(out, "reduce"),
            ],
        )
        executor.run(plan)
        assert calls == ["reduce_bulk_prepared"] * 2
        executor.run(plan)
        assert calls == ["reduce_bulk_prepared"] * 4


class TestOneStaticBatchReducePath:
    """One ``PreparedFold`` per ``(host, static batch)`` serves full and
    partial rounds alike, and every static-batch kernel reaches the map
    through ``reduce_bulk_prepared`` alone - whatever reduction strategy
    sits behind it."""

    def test_cc_lp_builds_one_fold_per_host_and_push(self, monkeypatch):
        # CC-LP's first round is a full frontier and its later ones are
        # partial: both kinds fold through the one plan, one sort pair.
        from repro.core.reduction import PreparedFold

        builds, kinds = [], set()
        init, fold = PreparedFold.__init__, PreparedFold.fold

        def counted_init(self, threads, keys):
            builds.append(keys.size)
            init(self, threads, keys)

        def counted_fold(self, values, op, idx=None):
            kinds.add("full" if idx is None else "partial")
            return fold(self, values, op, idx)

        monkeypatch.setattr(PreparedFold, "__init__", counted_init)
        monkeypatch.setattr(PreparedFold, "fold", counted_fold)
        graph = generators.powerlaw_like(scale=6, seed=3)
        bulk = run_kimbap("CC-LP", "equiv", 4, graph=graph, threads=4, bulk=True)
        assert len(builds) == 4 and all(builds)
        assert kinds == {"full", "partial"}
        scalar = run_kimbap("CC-LP", "equiv", 4, graph=graph, threads=4, bulk=False)
        assert len(builds) == 4  # the oracle prepares nothing
        assert canonical(bulk) == canonical(scalar)
        assert bulk.values == scalar.values

    @pytest.mark.parametrize(
        "variant",
        (RuntimeVariant.KIMBAP, RuntimeVariant.SGR_ONLY, RuntimeVariant.MC),
        ids=lambda variant: variant.name,
    )
    def test_static_kernels_only_call_reduce_bulk_prepared(self, monkeypatch, variant):
        # PR runs all three static-batch forms (DegreeReduce, EdgePush,
        # NodeUpdate) and no dynamic-key one, so the map's generic
        # reduce_bulk must never be entered - also where the strategy has
        # no fold tables and the handle is just the validated batch.
        calls = {"reduce_bulk": 0, "reduce_bulk_prepared": 0}
        for name in calls:
            original = getattr(NodePropMap, name)

            def spy(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(NodePropMap, name, spy)
        graph = generators.powerlaw_like(scale=5, seed=3)
        bulk = run_kimbap(
            "PR", "equiv", 3, graph=graph, threads=4, bulk=True, variant=variant
        )
        forms = {
            record.operator for record in bulk.cluster.log.phases if record.operator
        }
        assert {"pr:deg", "pr:push", "pr:rebuild"} <= forms
        assert calls["reduce_bulk"] == 0
        assert calls["reduce_bulk_prepared"] >= 3 * 3
        scalar = run_kimbap(
            "PR", "equiv", 3, graph=graph, threads=4, bulk=False, variant=variant
        )
        assert canonical(bulk) == canonical(scalar)
        assert bulk.values == scalar.values

    def test_push_over_zero_degree_nodes_only_prepares_an_empty_batch(self):
        # skip_zero_degree=False keeps edgeless candidates: the frozen
        # expansion is empty on every host, the prepared batch with it -
        # there is no largest key to take - and no round reduces anything.
        graph = Graph.from_edge_list(6, [])
        outcomes = []
        for bulk in (False, True):
            cluster = Cluster(2, threads_per_host=2)
            pgraph = partition(graph, 2, "oec")
            executor = Executor(cluster, bulk=bulk)
            src = NodePropMap(cluster, pgraph, "src")
            out = NodePropMap(cluster, pgraph, "out")
            executor.init_map(src, lambda nodes: nodes + 0.0)
            executor.init_map(out, lambda nodes: nodes + 0.0)
            plan = Plan(
                name="edgeless",
                pgraph=pgraph,
                max_rounds=1,
                raise_on_max_rounds=False,
                steps=[
                    OperatorStep(
                        Operator(
                            "push", "masters",
                            EdgePush(
                                target=out, op=MIN, source=src,
                                skip_zero_degree=False, charge_per_source=2,
                            ),
                        )
                    ),
                    SyncStep(out, "reduce"),
                ],
            )
            with _ReduceSpy() as spy:
                executor.run(plan)
                executor.run(plan)
            assert spy.calls == []
            outcomes.append((out.snapshot(), _phase_log(cluster)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == {node: float(node) for node in range(6)}


class TestCallableResultShapes:
    """A plan callable returns one value per node it was handed. The
    compiled kernels check that where the result enters them - a long
    array would otherwise push wrong values of the right length - and the
    map checks the values of every batched reduce once more."""

    WRONG = {
        "whole-array": lambda nodes: np.zeros(10_000),
        "short": lambda nodes: np.zeros(nodes.size)[: nodes.size - 1],
        "scalar": lambda nodes: 1.0,
    }

    def _setup(self):
        graph = generators.powerlaw_like(scale=5, seed=3)
        cluster = Cluster(2, threads_per_host=2)
        pgraph = partition(graph, 2, "cvc")
        executor = Executor(cluster, bulk=True)
        src = NodePropMap(cluster, pgraph, "src")
        out = NodePropMap(cluster, pgraph, "out")
        executor.init_map(src, lambda nodes: nodes + 0.0)
        executor.init_map(out, lambda nodes: np.zeros(nodes.size))
        return executor, pgraph, src, out

    def _run_once(self, executor, pgraph, out, kernel):
        plan = Plan(
            name="shapes",
            pgraph=pgraph,
            max_rounds=1,
            raise_on_max_rounds=False,
            steps=[
                OperatorStep(Operator("op", "masters", kernel)),
                SyncStep(out, "reduce"),
            ],
        )
        executor.run(plan)

    @pytest.mark.parametrize("shape", sorted(WRONG))
    def test_edge_push_transform(self, shape):
        executor, pgraph, src, out = self._setup()
        wrong = self.WRONG[shape]
        kernel = EdgePush(
            target=out, op=SUM, source=src,
            transform=lambda values, nodes: wrong(nodes),
        )
        with pytest.raises(ValueError, match=r"EdgePush\.transform into map 'out'"):
            self._run_once(executor, pgraph, out, kernel)

    @pytest.mark.parametrize("shape", sorted(WRONG))
    def test_node_update_value(self, shape):
        executor, pgraph, src, out = self._setup()
        kernel = NodeUpdate(out, SUM, value=self.WRONG[shape])
        with pytest.raises(ValueError, match=r"NodeUpdate\.value into map 'out'"):
            self._run_once(executor, pgraph, out, kernel)

    @pytest.mark.parametrize(
        "values", (np.arange(7.0), np.arange(3.0), np.float64(1.0)),
        ids=("long", "short", "scalar"),
    )
    @pytest.mark.parametrize(
        "variant", (RuntimeVariant.KIMBAP, RuntimeVariant.SGR_ONLY),
        ids=lambda variant: variant.name,
    )
    def test_every_batched_reduce_entry_point(self, values, variant):
        graph = generators.path(8)
        cluster = Cluster(2, threads_per_host=2)
        prop = NodePropMap(cluster, partition(graph, 2, "oec"), "m", variant=variant)
        threads = np.array([0, 0, 0, 1, 1])
        keys = np.array([1, 2, 2, 5, 7], dtype=np.int64)
        plan = prop.prepare_reduce_bulk(0, threads, keys)
        message = re.escape(
            f"map 'm' reduced (sum) with values of shape {values.shape}"
        )
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            with pytest.raises(ValueError, match=message):
                prop.reduce_bulk(0, threads, keys, values, SUM)
            with pytest.raises(ValueError, match=message):
                prop.reduce_bulk_prepared(0, plan, values, SUM)
            with pytest.raises(ValueError, match=message):
                prop.reduce_bulk_prepared(0, plan, values, SUM, np.array([0, 1, 3, 4]))
            # A refused call charged and bound nothing: any operator and
            # correctly shaped values are still welcome.
            assert cluster.counters(0).reduce_calls == 0
            prop.reduce_bulk_prepared(0, plan, np.arange(4.0), MIN, np.array([0, 1, 3, 4]))
        assert prop.reductions[0].pending() > 0


# -------------------------------------------------------- prepared folds


class TestPreparedFold:
    def _batch(self, seed):
        rng = np.random.default_rng(seed)
        count = 64
        threads = np.sort(rng.integers(0, 4, size=count))
        keys = rng.integers(0, 10, size=count)
        values = rng.standard_normal(count)
        return threads, keys, values

    @pytest.mark.parametrize("op", (SUM, MIN), ids=lambda o: o.name)
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_prepared_matches_generic_fold(self, op, seed):
        threads, keys, values = self._batch(seed)
        cluster = Cluster(1, threads_per_host=4)
        generic = ThreadLocalReduction(cluster, 0)
        prepared_red = ThreadLocalReduction(cluster, 0)
        plan = prepared_red.prepare_bulk(threads, keys)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            generic.reduce_bulk(threads, keys, values, op)
            prepared_red.reduce_bulk_prepared(plan, values, op)
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            assert generic.collect(op) == prepared_red.collect(op)

    def test_prepared_falls_back_on_pending_scalar_state(self):
        threads, keys, values = self._batch(7)
        cluster = Cluster(1, threads_per_host=4)
        generic = ThreadLocalReduction(cluster, 0)
        prepared_red = ThreadLocalReduction(cluster, 0)
        plan = prepared_red.prepare_bulk(threads, keys)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            # A scalar reduce before the batch: the prepared path must
            # take the generic fallback to fold in the right order.
            generic.reduce(0, int(keys[0]), 100.0, SUM)
            generic.reduce_bulk(threads, keys, values, SUM)
            prepared_red.reduce(0, int(keys[0]), 100.0, SUM)
            prepared_red.reduce_bulk_prepared(plan, values, SUM)
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            assert generic.collect(SUM) == prepared_red.collect(SUM)

    def test_empty_batch_prepares_and_reduces_nothing(self):
        cluster = Cluster(1, threads_per_host=2)
        reduction = ThreadLocalReduction(cluster, 0)
        empty = np.array([], dtype=np.int64)
        plan = reduction.prepare_bulk(empty, empty)
        assert plan.keys.size == 0 and plan.uniq.size == 0 and plan.ukeys.size == 0
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            reduction.reduce_bulk_prepared(plan, np.empty(0), SUM)
            reduction.reduce_bulk_prepared(plan, np.empty(0), SUM, empty)
        assert reduction.pending() == 0
        assert cluster.log.total_counters().reduce_calls == 0

    def test_prepared_arrays_are_frozen(self):
        threads, keys, _ = self._batch(3)
        cluster = Cluster(1, threads_per_host=4)
        plan = ThreadLocalReduction(cluster, 0).prepare_bulk(threads, keys)
        tables = (plan.uniq, plan.slot, plan.ukeys, plan.kslot, plan.klast)
        for array in tables:
            with pytest.raises(ValueError):
                array[...] = 0


class TestWarmPartialRoundNeverSorts:
    """No round sorts anywhere between the compiled kernel and the owner
    apply - partial, full or dynamic-key: the thread-level fold, the
    reduce-sync merge and the route all go by dense ids ranked off a
    presence mask, and so does the one-time build of a fold plan. Call
    counts repeat exactly, so this cannot flake; it is what keeps a later
    edit from quietly putting a sort back."""

    def test_sssp_road_rounds_after_warmup(self, monkeypatch):
        from repro.algorithms.sssp import sssp
        from repro.core.reduction import PreparedFold

        hosts = 2
        graph = generators.road_like(64, 4, seed=3, weighted=True)
        cluster = Cluster(hosts, threads_per_host=2)
        pgraph = partition(graph, hosts, "cvc")
        executor = Executor(cluster, bulk=True)
        counts = {"sorts": 0, "builds": 0, "folds": 0}
        rounds: list[dict[str, int]] = []

        def counting(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        for name in ("argsort", "sort", "unique"):
            monkeypatch.setattr(np, name, counting("sorts", getattr(np, name)))
        monkeypatch.setattr(
            PreparedFold, "__init__", counting("builds", PreparedFold.__init__)
        )
        monkeypatch.setattr(
            PreparedFold, "fold", counting("folds", PreparedFold.fold)
        )
        run_round = Executor.run_round

        def counted_round(self, plan):
            before = dict(counts)
            run_round(self, plan)
            rounds.append({key: counts[key] - before[key] for key in counts})

        monkeypatch.setattr(Executor, "run_round", counted_round)
        sssp(cluster, pgraph, source=0, executor=executor)

        # Each host builds its one plan no later than the first round it
        # folds at all, and never again.
        assert sum(r["builds"] for r in rounds) == hosts
        first_fold = next(i for i, r in enumerate(rounds) if r["folds"])
        assert rounds[first_fold]["builds"] >= 1
        last_build = max(i for i, r in enumerate(rounds) if r["builds"])
        warm = rounds[last_build + 1 :]
        assert len(warm) >= 20
        assert all(r["folds"] >= 1 for r in warm)
        # Neither the warm rounds nor the builds before them sort.
        assert [r["sorts"] for r in rounds] == [0] * len(rounds)
        # The counter has teeth: it sees a sort when there is one.
        seen = counts["sorts"]
        np.unique(np.array([2, 1, 2]))
        assert counts["sorts"] > seen

    @pytest.mark.parametrize("app", ("CC-SV", "PR"))
    def test_dynamic_key_and_full_rounds_never_sort(self, monkeypatch, app):
        # CC-SV's hook (NeighborReduceToKey) and pointer jumping
        # (NodeGather) reduce onto keys computed that round, so there is
        # no static batch to prepare; PageRank folds its whole prepared
        # batch every round. Neither the reduces nor the reduce-sync
        # behind them may sort, from the first round on.
        hosts = 2
        graph = generators.powerlaw_like(scale=7, seed=3)
        oracle = run_kimbap(app, "equiv", hosts, graph=graph, threads=4, bulk=False)
        counts = dict.fromkeys(("reduce_bulk", "reduce_bulk_prepared", "reduce_sync"), 0)
        watching = [0]
        sorted_in: list[str] = []

        def watched(name):
            original = getattr(NodePropMap, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                watching[0] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    watching[0] -= 1

            monkeypatch.setattr(NodePropMap, name, wrapper)

        def sort_spy(name):
            original = getattr(np, name)

            def wrapper(*args, **kwargs):
                if watching[0]:
                    sorted_in.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(np, name, wrapper)

        for name in counts:
            watched(name)
        for name in ("argsort", "sort", "unique"):
            sort_spy(name)
        result = run_kimbap(app, "equiv", hosts, graph=graph, threads=4, bulk=True)
        assert canonical(result) == canonical(oracle)
        assert result.values == oracle.values
        reduces = "reduce_bulk" if app == "CC-SV" else "reduce_bulk_prepared"
        assert counts[reduces] >= 3 * hosts and counts["reduce_sync"] >= 3
        assert sorted_in == []
        # The spy has teeth: it is installed and sees a sort inside a
        # watched call (partitioning and kernel builds, outside, may sort).
        watching[0] += 1
        np.unique(np.array([2, 1, 2]))
        assert "unique" in sorted_in


class TestCompiledTransVertexRoundHasNoPerNodePython:
    """CC-SV's hook and pointer jumping, and CC-SCLP's shortcut pair, run
    as compiled kernels end to end: between ``init_map`` and ``snapshot``
    the per-element property-map API is never entered. Call counts repeat
    exactly, so this cannot flake; it is what keeps a later edit from
    quietly routing a trans-vertex operator back through ``par_for``."""

    PER_ELEMENT = (
        (NodePropMap, "read"),
        (NodePropMap, "read_local"),
        (NodePropMap, "reduce"),
        (NodePropMap, "request"),
        (BoolReducer, "reduce"),
    )

    def _run(self, monkeypatch, app, bulk):
        calls = dict.fromkeys((f"{cls.__name__}.{name}" for cls, name in self.PER_ELEMENT), 0)
        for cls, name in self.PER_ELEMENT:
            original = getattr(cls, name)

            def counted(*args, _key=f"{cls.__name__}.{name}", _original=original):
                calls[_key] += 1
                return _original(*args)

            monkeypatch.setattr(cls, name, counted)
        graph = generators.powerlaw_like(scale=6, seed=3)
        cluster = Cluster(3, threads_per_host=4)
        plans = []
        executor = Executor(cluster, bulk=bulk, observer=plans.append)
        result = app(cluster, partition(graph, 3, "cvc"), executor=executor)
        operators = [
            compiled
            for plan in {
                id(plan): plan for top in plans for plan in walk_plans(top)
            }.values()
            for tag, compiled in executor.compiled(plan).entries
            if tag == ENTRY_OPERATOR
        ]
        return result, calls, operators

    @pytest.mark.parametrize("name", ("CC-SV", "CC-SCLP"))
    def test_zero_per_element_calls_and_every_operator_specialized(
        self, monkeypatch, name
    ):
        app = KIMBAP_APPS[name]
        result, calls, operators = self._run(monkeypatch, app, bulk=True)
        assert calls == dict.fromkeys(calls, 0)
        assert len(operators) >= 3
        assert all(compiled.specialized for compiled in operators)
        forms = {compiled.operator.kernel.form for compiled in operators}
        assert {"key-request", "node-gather"} <= forms
        assert ("neighbor-reduce-to-key" in forms) == (name == "CC-SV")
        # The counters have teeth: the scalar oracle makes every one of
        # these calls (the vote only where the app has one).
        oracle, scalar_calls, scalar_ops = self._run(monkeypatch, app, bulk=False)
        assert oracle.values == result.values
        assert not any(compiled.specialized for compiled in scalar_ops)
        voted = scalar_calls.pop("BoolReducer.reduce")
        assert all(scalar_calls.values())
        assert bool(voted) == (name == "CC-SV")


# ------------------------------------------------------- the traffic census


class TestTrafficCensus:
    """The plan shapes the registered apps actually run - the verified
    traffic DESIGN.md's "Why there is no fusion or deferral" rests on. A
    failure here is not a bug in the app: it is the day that note stops
    being true and fusing abutting phases (or batching their pool
    exchanges) is worth re-asking."""

    @pytest.fixture(scope="class")
    def plans_by_app(self):
        census = {}
        for app in APPS:
            graph = generators.powerlaw_like(scale=5, seed=3, weighted=app_weighted(app))
            cluster = Cluster(2, threads_per_host=2)
            plans: dict[int, Plan] = {}

            def observe(top, seen=plans):
                for plan in walk_plans(top):
                    seen.setdefault(id(plan), plan)

            executor = Executor(cluster, bulk=True, observer=observe)
            pgraph = partition(graph, 2, APP_POLICY[app])
            KIMBAP_APPS[app](cluster, pgraph, executor=executor)
            census[app] = list(plans.values())
        return census

    @pytest.mark.parametrize("app", APPS)
    def test_no_abutting_compute_phases(self, plans_by_app, app):
        assert plans_by_app[app]
        for plan in plans_by_app[app]:
            # A sub-plan step counts as no phase here: it is checked itself.
            compute = [isinstance(step, OperatorStep) for step in plan.steps]
            if not plan.is_outer or any(isinstance(step, Until) for step in plan.steps):
                compute.append(compute[0])  # the loop wraps around
            assert not any(a and b for a, b in zip(compute, compute[1:])), (
                f"{app} plan {plan.name!r} runs abutting compute phases"
            )

    def test_every_compiled_form_is_reached(self, plans_by_app):
        reached = {
            type(step.operator.kernel)
            for plans in plans_by_app.values()
            for plan in plans
            for step in plan.steps
            if isinstance(step, OperatorStep)
        }
        assert set(_SPECIALIZED_FORMS) <= reached
