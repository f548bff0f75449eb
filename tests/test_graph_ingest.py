"""Graph ingest: CSR construction, symmetrization and partition assembly.

Two guards hold the ingest bytes still:

* The ingest pin file (``tests/pins.py``) holds two tables: sha256
  digests of ``(indptr, indices, weights)`` for every generator at its
  defaults (plus the four inputs of the end-to-end benchmark at seeds 7
  and 11), and of every policy's partition at 1, 3 and 4 hosts, as
  recorded before ingest stopped argsorting.
* A hypothesis property compares ``Graph.from_arrays``,
  ``Graph.symmetrized``, ``Graph.is_symmetric`` and ``build_partitioned``
  against the straight stable-argsort implementations kept below, on
  empty graphs, self-loops, duplicate pairs, unsorted input, isolated
  nodes, more hosts than nodes and weighted duplicates carrying signed
  zeros and NaN.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, generators
from repro.partition import POLICIES, partition
from repro.partition.base import build_partitioned
from tests.pins import INGEST, PinTable

# name -> zero-argument builder; defaults where the generator has them
GENERATORS = {
    "road_like": lambda: generators.road_like(),
    "road_like/weighted": lambda: generators.road_like(weighted=True),
    "rmat(8,8)": lambda: generators.rmat(8, 8),
    "rmat(8,8)/weighted": lambda: generators.rmat(8, 8, weighted=True),
    "powerlaw_like": lambda: generators.powerlaw_like(),
    "powerlaw_like/weighted": lambda: generators.powerlaw_like(weighted=True),
    "web_like": lambda: generators.web_like(),
    "web_like_xl": lambda: generators.web_like_xl(),
    "path(9)": lambda: generators.path(9),
    "path(9)/weighted": lambda: generators.path(9, weighted=True),
    "path(1)": lambda: generators.path(1),
    "cycle(9)": lambda: generators.cycle(9),
    "cycle(1)": lambda: generators.cycle(1),
    "star(7)": lambda: generators.star(7),
    "star(7)/weighted": lambda: generators.star(7, weighted=True),
    "complete(6)": lambda: generators.complete(6),
    "complete(6)/weighted": lambda: generators.complete(6, weighted=True),
    "disjoint_union": lambda: generators.disjoint_union(
        generators.path(4), generators.cycle(5)
    ),
    "erdos_renyi(300,6)": lambda: generators.erdos_renyi(300, 6.0),
    "erdos_renyi(300,6)/weighted": lambda: generators.erdos_renyi(300, 6.0, weighted=True),
}
# the inputs of the end-to-end benchmark's workloads
for _seed in (7, 11):
    GENERATORS.update({
        f"powerlaw_like(15)@{_seed}": lambda s=_seed: generators.powerlaw_like(15, seed=s),
        f"powerlaw_like(13)@{_seed}": lambda s=_seed: generators.powerlaw_like(13, seed=s),
        f"road_like(1536,16,weighted)@{_seed}": lambda s=_seed: generators.road_like(
            1536, 16, seed=s, weighted=True
        ),
        f"road_like(3072,16)@{_seed}": lambda s=_seed: generators.road_like(3072, 16, seed=s),
    })

PARTITION_GRAPHS = {
    "powerlaw_like": lambda: generators.powerlaw_like(),
    "road_like/weighted": lambda: generators.road_like(weighted=True),
}
PARTITION_HOSTS = (1, 3, 4)


def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        if array is None:
            sha.update(b"none;")
            continue
        array = np.asarray(array)
        sha.update(f"{array.dtype.str}{array.shape};".encode())
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def _graph_pin(name: str) -> str:
    graph = GENERATORS[name]()
    return _digest(graph.indptr, graph.indices, graph.weights)


def _partition_pin(graph: str, policy: str, hosts: int) -> str:
    pgraph = partition(PARTITION_GRAPHS[graph](), hosts, policy)
    parts = [
        (part.local_to_global, part.indptr, part.indices, np.int64(part.num_masters), part.weights)
        for part in pgraph.parts
    ]
    return _digest(pgraph.owner, *(array for arrays in parts for array in arrays))


GRAPH_PINS = PinTable(INGEST, {n: (n,) for n in sorted(GENERATORS)}, _graph_pin, section="graphs")
PARTITION_PINS = PinTable(
    INGEST,
    {
        f"{graph}/{policy}/{hosts}": (graph, policy, hosts)
        for graph in sorted(PARTITION_GRAPHS)
        for policy in sorted(POLICIES)
        for hosts in PARTITION_HOSTS
    },
    _partition_pin,
    section="partitions",
)


@pytest.mark.parametrize("name", GRAPH_PINS.cells)
def test_generator_bytes_are_pinned(name):
    GRAPH_PINS.check(name)


@pytest.mark.parametrize("key", PARTITION_PINS.cells)
def test_partition_bytes_are_pinned(key):
    PARTITION_PINS.check(key)


def test_every_ingest_cell_is_recorded():
    GRAPH_PINS.check_coverage()
    PARTITION_PINS.check_coverage()


# -- straight stable-argsort references --------------------------------------


def _ref_from_arrays(num_nodes, srcs, dsts, weights=None):
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    order = np.argsort(srcs, kind="stable")
    srcs, dsts = srcs[order], dsts[order]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)[order]
    counts = np.bincount(srcs, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dsts, weights


def _ref_symmetrized(num_nodes, indptr, indices, weights):
    srcs = np.repeat(np.arange(num_nodes, dtype=np.int64), np.diff(indptr))
    all_srcs = np.concatenate([srcs, indices])
    all_dsts = np.concatenate([indices, srcs])
    keys = all_srcs * num_nodes + all_dsts
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    uniq = order[keep]
    weights_u = None
    if weights is not None:
        all_weights = np.concatenate([weights, weights])
        group_ids = np.cumsum(keep) - 1
        weights_u = np.full(int(group_ids[-1]) + 1 if keys.size else 0, -np.inf)
        np.maximum.at(weights_u, group_ids, all_weights[order])
    return _ref_from_arrays(num_nodes, all_srcs[uniq], all_dsts[uniq], weights_u)


def _ref_partition(graph, owner, edge_host, num_hosts):
    srcs = graph.edge_sources()
    dsts = graph.indices
    parts = []
    for host in range(num_hosts):
        mask = edge_host == host
        host_srcs, host_dsts = srcs[mask], dsts[mask]
        host_weights = graph.weights[mask] if graph.weights is not None else None
        endpoints = np.unique(np.concatenate([host_srcs, host_dsts]))
        masters = np.flatnonzero(owner == host)
        mirrors = np.setdiff1d(endpoints, masters)
        local_to_global = np.concatenate([masters, mirrors])
        lookup = np.empty(graph.num_nodes, dtype=np.int64)
        lookup[local_to_global] = np.arange(local_to_global.size, dtype=np.int64)
        local_srcs = lookup[host_srcs]
        order = np.argsort(local_srcs, kind="stable")
        local_srcs = local_srcs[order]
        if host_weights is not None:
            host_weights = host_weights[order]
        counts = np.bincount(local_srcs, minlength=local_to_global.size)
        indptr = np.zeros(local_to_global.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        parts.append(
            (local_to_global, masters.size, indptr, lookup[host_dsts][order], host_weights)
        )
    return parts


def _same(left, right) -> bool:
    """Equal dtype, shape and bytes (so -0.0 != 0.0 and NaN == NaN)."""
    if left is None or right is None:
        return left is None and right is None
    return (
        left.dtype == right.dtype
        and left.shape == right.shape
        and left.tobytes() == right.tobytes()
    )


# -- property: the new ingest equals the references ---------------------------

_WEIGHTS = st.sampled_from([0.0, -0.0, 1.5, -2.0, float("nan"), float("inf")])


@st.composite
def edge_lists(draw):
    num_nodes = draw(st.integers(0, 10))
    if num_nodes == 0:
        return 0, [], None
    node = st.integers(0, num_nodes - 1)
    kind = draw(st.sampled_from(["any", "self-loops", "duplicates"]))
    if kind == "self-loops":
        edges = [(n, n) for n in draw(st.lists(node, max_size=12))]
    else:
        edges = draw(st.lists(st.tuples(node, node), max_size=30))
        if kind == "duplicates" and edges:
            edges = edges + draw(st.lists(st.sampled_from(edges), max_size=10))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(_WEIGHTS, min_size=len(edges), max_size=len(edges)))
    return num_nodes, edges, weights


def _arrays(num_nodes, edges, weights):
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weight_array = None if weights is None else np.asarray(weights, dtype=np.float64)
    return pairs[:, 0], pairs[:, 1], weight_array


@pytest.mark.filterwarnings("ignore:invalid value encountered in maximum")
@given(edge_lists())
@settings(max_examples=200, deadline=None)
def test_from_arrays_and_symmetrized_match_stable_argsort(spec):
    num_nodes, edges, weights = spec
    srcs, dsts, weight_array = _arrays(num_nodes, edges, weights)
    for src_order in (srcs, np.sort(srcs)):  # unsorted and already-sorted input
        graph = Graph.from_arrays(num_nodes, src_order, dsts, weight_array)
        indptr, indices, ref_weights = _ref_from_arrays(num_nodes, src_order, dsts, weight_array)
        assert _same(graph.indptr, indptr)
        assert _same(graph.indices, indices)
        assert _same(graph.weights, ref_weights)
        sym = graph.symmetrized()
        expected = _ref_symmetrized(num_nodes, graph.indptr, graph.indices, graph.weights)
        assert _same(sym.indptr, expected[0])
        assert _same(sym.indices, expected[1])
        assert _same(sym.weights, expected[2])
        forward = set(zip(graph.edge_sources().tolist(), graph.indices.tolist()))
        assert graph.is_symmetric() == all((d, s) in forward for s, d in forward)
        assert sym.is_symmetric()


@given(edge_lists(), st.integers(1, 14), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_build_partitioned_matches_stable_argsort(spec, num_hosts, rnd):
    num_nodes, edges, weights = spec
    srcs, dsts, weight_array = _arrays(num_nodes, edges, weights)
    graph = Graph.from_arrays(num_nodes, srcs, dsts, weight_array)
    owner = np.sort([rnd.randrange(num_hosts) for _ in range(num_nodes)]).astype(np.int64)
    edge_host = np.asarray(
        [rnd.randrange(num_hosts) for _ in range(graph.num_edges)], dtype=np.int64
    )
    pgraph = build_partitioned(graph, "prop", owner, edge_host, num_hosts=num_hosts)
    expected = _ref_partition(graph, owner, edge_host, num_hosts)
    assert len(pgraph.parts) == num_hosts
    for part, (local_to_global, num_masters, indptr, indices, part_weights) in zip(
        pgraph.parts, expected
    ):
        assert _same(part.local_to_global, local_to_global)
        assert part.num_masters == num_masters
        assert _same(part.indptr, indptr)
        assert _same(part.indices, indices)
        assert _same(part.weights, part_weights)
    fan_out = [[] for _ in range(num_hosts)]
    for part in pgraph.parts:
        mirrors = part.mirrors_global
        for owner_host in np.unique(owner[mirrors]):
            fan_out[int(owner_host)].append((part.host_id, mirrors[owner[mirrors] == owner_host]))
    assert [[(h, ids.tolist()) for h, ids in pairs] for pairs in fan_out] == [
        [(h, ids.tolist()) for h, ids in pairs] for pairs in pgraph.mirror_hosts_by_owner
    ]
    assert pgraph.any_mirror_has_outgoing == any(
        part.degree(local) > 0
        for part in pgraph.parts
        for local in range(part.num_masters, part.num_local)
    )
