"""Synthetic graph generators.

The paper evaluates on four real graphs (Table 1). Those inputs are hundreds
of gigabytes and unavailable here, so each gets a scaled-down synthetic analog
that preserves the structural property the evaluation leans on:

* ``road_like``      -> road-europe: high diameter, near-uniform tiny degrees.
* ``powerlaw_like``  -> friendster: power-law degree distribution (RMAT).
* ``web_like``       -> clueweb12: denser power-law web crawl (RMAT).
* ``web_like_xl``    -> wdc12: densest, most skewed analog (RMAT).

All generators are deterministic given ``seed`` and return symmetrized graphs
(the paper symmetrizes all inputs), optionally with uniform-random weights
for the weighted algorithms.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import Graph


def _attach_weights(graph: Graph, seed: int) -> Graph:
    """Give every undirected edge a weight, consistent in both directions."""
    srcs = graph.edge_sources()
    dsts = graph.indices
    low = np.minimum(srcs, dsts)
    high = np.maximum(srcs, dsts)
    # Hash the canonical (low, high) pair so both directions agree.
    mix = (low * 2654435761 + high * 40503 + seed) % (2**31)
    weights = 1.0 + (mix % 1000) / 1000.0 * 9.0  # in [1, 10)
    return Graph(graph.indptr, graph.indices, weights.astype(np.float64))


def _simple_undirected(num_nodes: int, srcs: np.ndarray, dsts: np.ndarray) -> Graph:
    """The symmetric graph of the drawn pairs, self-loops and duplicates dropped."""
    distinct_ends = srcs != dsts
    return Graph.symmetric_from_arrays(num_nodes, srcs[distinct_ends], dsts[distinct_ends])


def road_like(
    rows: int = 64,
    cols: int = 16,
    chord_fraction: float = 0.02,
    seed: int = 0,
    weighted: bool = False,
) -> Graph:
    """A high-diameter, low-degree road-network analog (elongated grid).

    The grid is ``rows x cols`` with 4-neighbor connectivity plus a small
    fraction of short chords, giving diameter ~ ``rows + cols`` and average
    degree ~ 4 after symmetrization, like road-europe's uniform small degrees.
    """
    if rows < 2 or cols < 1:
        raise ValueError("rows must be >= 2 and cols >= 1")
    num_nodes = rows * cols
    srcs, dsts = [], []
    node_ids = np.arange(num_nodes).reshape(rows, cols)
    right = node_ids[:, :-1].ravel(), node_ids[:, 1:].ravel()
    down = node_ids[:-1, :].ravel(), node_ids[1:, :].ravel()
    srcs.extend([right[0], down[0]])
    dsts.extend([right[1], down[1]])
    rng = np.random.default_rng(seed)
    num_chords = int(chord_fraction * num_nodes)
    if num_chords:
        chord_src = rng.integers(0, num_nodes, num_chords)
        # Chords stay short (within ~2 rows) to keep the diameter high.
        offset = rng.integers(2, 2 * cols + 1, num_chords)
        chord_dst = np.minimum(chord_src + offset, num_nodes - 1)
        srcs.append(chord_src)
        dsts.append(chord_dst)
    # Shuffle node ids within small windows: real road-network ids are
    # spatially local (so blocked partitions stay geometric) but not so
    # perfectly ordered that an id-ordered sweep gets a free monotone
    # propagation chain down the whole map.
    window = 32
    perm = np.arange(num_nodes)
    for start in range(0, num_nodes, window):
        stop = min(start + window, num_nodes)
        perm[start:stop] = start + rng.permutation(stop - start)
    graph = _simple_undirected(num_nodes, perm[np.concatenate(srcs)], perm[np.concatenate(dsts)])
    if weighted:
        graph = _attach_weights(graph, seed)
    return graph


def rmat(
    scale: int,
    edge_factor: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    weighted: bool = False,
) -> Graph:
    """Recursive-matrix (RMAT) power-law generator.

    Generates ``edge_factor * 2**scale`` directed edges over ``2**scale``
    nodes by recursively descending a 2x2 probability matrix, then removes
    self-loops, deduplicates, and symmetrizes. With Graph500-style
    parameters this yields a small number of very high-degree hubs.
    """
    if not 0 < a + b + c < 1:
        raise ValueError("a + b + c must be in (0, 1)")
    num_nodes = 1 << scale
    num_edges = edge_factor * num_nodes
    rng = np.random.default_rng(seed)
    srcs = np.zeros(num_edges, dtype=np.int64)
    dsts = np.zeros(num_edges, dtype=np.int64)
    for bit in range(scale):
        draws = rng.random(num_edges)
        src_bit = draws >= a + b  # quadrants c and d set the source bit
        dst_bit = (draws >= a) & (draws < a + b) | (draws >= a + b + c)
        srcs |= src_bit.astype(np.int64) << bit
        dsts |= dst_bit.astype(np.int64) << bit
    # Permute node ids so hubs are not clustered at id 0.
    perm = rng.permutation(num_nodes)
    graph = _simple_undirected(num_nodes, perm[srcs], perm[dsts])
    if weighted:
        graph = _attach_weights(graph, seed)
    return graph


def powerlaw_like(scale: int = 10, seed: int = 0, weighted: bool = False) -> Graph:
    """Friendster analog: social-network-like power-law graph."""
    return rmat(scale, edge_factor=16, a=0.57, b=0.19, c=0.19, seed=seed, weighted=weighted)


def web_like(scale: int = 11, seed: int = 1, weighted: bool = False) -> Graph:
    """clueweb12 analog: denser web-crawl-like power-law graph."""
    return rmat(scale, edge_factor=24, a=0.60, b=0.17, c=0.17, seed=seed, weighted=weighted)


def web_like_xl(scale: int = 12, seed: int = 2, weighted: bool = False) -> Graph:
    """wdc12 analog: the largest, most skewed analog."""
    return rmat(scale, edge_factor=20, a=0.63, b=0.16, c=0.16, seed=seed, weighted=weighted)


# -- small deterministic graphs for tests and examples ----------------------


def path(num_nodes: int, weighted: bool = False) -> Graph:
    """A symmetrized path 0 - 1 - ... - (n-1)."""
    srcs = np.arange(num_nodes - 1)
    graph = Graph.symmetric_from_arrays(num_nodes, srcs, srcs + 1)
    return _attach_weights(graph, 0) if weighted else graph


def cycle(num_nodes: int, weighted: bool = False) -> Graph:
    srcs = np.arange(num_nodes)
    dsts = (srcs + 1) % num_nodes
    graph = Graph.symmetric_from_arrays(num_nodes, srcs, dsts)
    return _attach_weights(graph, 0) if weighted else graph


def star(num_leaves: int, weighted: bool = False) -> Graph:
    """Node 0 connected to ``num_leaves`` leaves; a one-hub stress test."""
    srcs = np.zeros(num_leaves, dtype=np.int64)
    dsts = np.arange(1, num_leaves + 1)
    graph = Graph.symmetric_from_arrays(num_leaves + 1, srcs, dsts)
    return _attach_weights(graph, 0) if weighted else graph


def complete(num_nodes: int, weighted: bool = False) -> Graph:
    src_grid, dst_grid = np.meshgrid(np.arange(num_nodes), np.arange(num_nodes))
    mask = src_grid != dst_grid
    graph = Graph.from_arrays(num_nodes, src_grid[mask], dst_grid[mask])
    return _attach_weights(graph, 0) if weighted else graph


def disjoint_union(first: Graph, second: Graph) -> Graph:
    """The two graphs side by side (useful for multi-component tests)."""
    offset = first.num_nodes
    srcs = np.concatenate([first.edge_sources(), second.edge_sources() + offset])
    dsts = np.concatenate([first.indices, second.indices + offset])
    weights = None
    if first.weights is not None and second.weights is not None:
        weights = np.concatenate([first.weights, second.weights])
    return Graph.from_arrays(first.num_nodes + second.num_nodes, srcs, dsts, weights)


def erdos_renyi(num_nodes: int, avg_degree: float, seed: int = 0, weighted: bool = False) -> Graph:
    """Uniform random graph; degree distribution has no heavy tail."""
    rng = np.random.default_rng(seed)
    num_edges = int(num_nodes * avg_degree / 2)
    srcs = rng.integers(0, num_nodes, num_edges)
    dsts = rng.integers(0, num_nodes, num_edges)
    graph = _simple_undirected(num_nodes, srcs, dsts)
    return _attach_weights(graph, seed) if weighted else graph
