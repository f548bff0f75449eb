"""Output validators for every algorithm family.

Shared by the test suite, the examples, and downstream users who want to
check a run's output against ground truth (networkx where applicable).
Each function raises :class:`VerificationError` with a specific message on
the first violation, and returns quietly on success.

networkx loads on the first oracle call that needs it, not with this
module: a process that imports the checks but runs none of them (the CLI,
a timed benchmark run) never loads it.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

import numpy as np

from repro.graph.csr import Graph


class VerificationError(AssertionError):
    """An algorithm output failed validation."""


def _undirected(graph: Graph):
    return graph.to_networkx().to_undirected()


# --------------------------------------------------- run equivalence


def _is_nan(value: Any) -> bool:
    return isinstance(value, float) and value != value


def _values_match(want: Any, got: Any, tolerance: float) -> bool:
    # NaN is a legitimate fixed-point value (e.g. an uninitialized rank):
    # two NaNs agree with each other even though NaN != NaN.
    if _is_nan(want) or _is_nan(got):
        return _is_nan(want) and _is_nan(got)
    if want == got:
        # Exact match first: also covers inf == inf, whose difference is
        # NaN and would fail a naive tolerance comparison.
        return True
    if (
        tolerance > 0
        and isinstance(want, (int, float))
        and isinstance(got, (int, float))
    ):
        return abs(float(want) - float(got)) <= tolerance
    return False


def check_equivalent_values(
    expected: Mapping[int, Any],
    actual: Mapping[int, Any],
    tolerance: float = 0.0,
    map_name: str | None = None,
) -> None:
    """Two runs' per-node values must agree (run equivalence).

    Used by the fault-injection harness to certify that a crashed-and-
    recovered run converged to the same fixed point as the fault-free
    baseline, and by the async engine's verification against the BSP
    oracle (value-equivalence, not byte-identity). Numeric values may
    differ by up to ``tolerance`` (absolute); NaN compares equal to NaN;
    everything else must compare equal.

    The error reports *all* diverging nodes (count plus the first few),
    not just the first, so async-vs-BSP investigations see the shape of a
    divergence in one shot. ``map_name`` prefixes the report when the
    values belong to a named property map.
    """
    prefix = f"map {map_name!r}: " if map_name else ""
    if set(expected) != set(actual):
        only_expected = sorted(set(expected) - set(actual))[:5]
        only_actual = sorted(set(actual) - set(expected))[:5]
        raise VerificationError(
            f"{prefix}value key sets differ: only-expected {only_expected}, "
            f"only-actual {only_actual}"
        )
    mismatched = [
        node
        for node in expected
        if not _values_match(expected[node], actual[node], tolerance)
    ]
    if mismatched:
        shown = sorted(mismatched)[:5]
        detail = ", ".join(
            f"node {node}: {actual[node]!r} != expected {expected[node]!r}"
            for node in shown
        )
        suffix = f" (tolerance {tolerance})" if tolerance > 0 else ""
        raise VerificationError(
            f"{prefix}{len(mismatched)} of {len(expected)} nodes diverge"
            f"{suffix}: {detail}"
        )


def check_equivalent_value_maps(
    expected: Mapping[str, Mapping[int, Any]],
    actual: Mapping[str, Mapping[int, Any]],
    tolerance: float = 0.0,
    tolerances: Mapping[str, float] | None = None,
) -> None:
    """Multi-map run equivalence with per-map tolerance overrides.

    ``expected``/``actual`` map property-map names to per-node value
    dicts; ``tolerances`` overrides the default ``tolerance`` for named
    maps (e.g. ranks to 1e-6, labels exactly). The error names every
    diverging map, each with its own node-level report.
    """
    if set(expected) != set(actual):
        only_expected = sorted(set(expected) - set(actual))
        only_actual = sorted(set(actual) - set(expected))
        raise VerificationError(
            f"map sets differ: only-expected {only_expected}, "
            f"only-actual {only_actual}"
        )
    failures: list[str] = []
    for name in sorted(expected):
        map_tolerance = (
            tolerances[name]
            if tolerances is not None and name in tolerances
            else tolerance
        )
        try:
            check_equivalent_values(
                expected[name], actual[name], map_tolerance, map_name=name
            )
        except VerificationError as error:
            failures.append(str(error))
    if failures:
        raise VerificationError(
            f"{len(failures)} map(s) diverge: " + "; ".join(failures)
        )


# ---------------------------------------------------------- components


def expected_components(graph: Graph) -> dict[int, int]:
    """Ground truth: every node mapped to its component's minimum id."""
    import networkx as nx

    expected: dict[int, int] = {}
    for component in nx.connected_components(_undirected(graph)):
        smallest = min(component)
        for node in component:
            expected[node] = smallest
    return expected


def check_components(graph: Graph, values: Mapping[int, Any]) -> None:
    """Values must equal the min-id component labeling exactly."""
    expected = expected_components(graph)
    for node in range(graph.num_nodes):
        if values.get(node) != expected[node]:
            raise VerificationError(
                f"node {node}: component {values.get(node)!r}, "
                f"expected {expected[node]}"
            )


# ---------------------------------------------------------------- MIS


def check_independent_set(graph: Graph, values: Mapping[int, int]) -> None:
    """Values (1=IN, 2=OUT) must form a maximal independent set."""
    nx_graph = _undirected(graph)
    for node in range(graph.num_nodes):
        if values.get(node) not in (1, 2):
            raise VerificationError(f"node {node} undecided: {values.get(node)!r}")
    for u, v in nx_graph.edges():
        if values[u] == 1 and values[v] == 1:
            raise VerificationError(f"adjacent nodes {u} and {v} both selected")
    for node in nx_graph.nodes():
        if values[node] != 1 and not any(
            values[m] == 1 for m in nx_graph.neighbors(node)
        ):
            raise VerificationError(f"node {node} excluded without a selected neighbor")


# ---------------------------------------------------------------- MSF


def check_spanning_forest(
    graph: Graph, forest: Iterable[tuple[int, int, float]]
) -> None:
    """The edges must form a minimum spanning forest (exact weight match)."""
    import networkx as nx

    forest = list(forest)
    nx_graph = _undirected(graph)
    candidate = nx.Graph()
    candidate.add_nodes_from(range(graph.num_nodes))
    candidate.add_weighted_edges_from(forest)
    if not nx.is_forest(candidate):
        raise VerificationError("forest contains a cycle")
    if nx.number_connected_components(candidate) != nx.number_connected_components(
        nx_graph
    ):
        raise VerificationError("forest does not span every component")
    expected_weight = sum(
        data["weight"]
        for _, _, data in nx.minimum_spanning_edges(nx_graph, data=True)
    )
    actual_weight = sum(weight for _, _, weight in forest)
    if abs(actual_weight - expected_weight) > 1e-6 * max(expected_weight, 1.0):
        raise VerificationError(
            f"forest weight {actual_weight} != minimum {expected_weight}"
        )
    edge_set = {(min(u, v), max(u, v)) for u, v, _ in forest}
    for u, v, _ in forest:
        if not nx_graph.has_edge(u, v):
            raise VerificationError(f"forest edge ({u}, {v}) not in the graph")
    if len(edge_set) != len(forest):
        raise VerificationError("forest lists a duplicate edge")


# --------------------------------------------------------- communities


def check_community_partition(
    graph: Graph, values: Mapping[int, Any], require_connected: bool = False
) -> None:
    """Values must label every node; optionally every community connected
    (Leiden's guarantee)."""
    missing = [n for n in range(graph.num_nodes) if n not in values]
    if missing:
        raise VerificationError(f"nodes without a community: {missing[:5]}...")
    if require_connected:
        import networkx as nx

        nx_graph = _undirected(graph)
        for community in set(values.values()):
            members = [n for n, c in values.items() if c == community]
            if members and not nx.is_connected(nx_graph.subgraph(members)):
                raise VerificationError(f"community {community!r} is disconnected")


def partition_modularity(graph: Graph, values: Mapping[int, Any]) -> float:
    from repro.algorithms.common import modularity

    labels = np.asarray([values[n] for n in range(graph.num_nodes)])
    # np.unique-compact non-integer labels
    _, compact = np.unique(labels, return_inverse=True)
    return modularity(graph, compact)


# -------------------------------------------------------- vertex cover


def check_vertex_cover(graph: Graph, in_cover: Mapping[int, bool]) -> None:
    """Every edge must have at least one covered endpoint."""
    for src, dst in graph.iter_edges():
        if not (in_cover.get(src) or in_cover.get(dst)):
            raise VerificationError(f"edge ({src}, {dst}) uncovered")


# -------------------------------------------------------------- k-core


def check_core_numbers(graph: Graph, values: Mapping[int, int]) -> None:
    """Core numbers must match networkx exactly."""
    import networkx as nx

    simple = _undirected(graph)
    simple.remove_edges_from(nx.selfloop_edges(simple))
    expected = nx.core_number(simple)
    for node in range(graph.num_nodes):
        if values.get(node) != expected.get(node, 0):
            raise VerificationError(
                f"node {node}: core {values.get(node)!r}, expected {expected.get(node)}"
            )
