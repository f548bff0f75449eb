"""Community detection on a social-network analog: Louvain vs Leiden vs Vite.

The scenario the paper's introduction motivates: community detection needs
*trans-vertex* operators (a node must read the totals of its neighbors'
clusters, which live on arbitrary nodes), so it cannot run on
adjacent-vertex frameworks at all. This example runs

* Kimbap's distributed Louvain (LV),
* Kimbap's distributed Leiden (LD) - the first distributed Leiden,
  guaranteeing internally connected communities,
* the hand-optimized Vite baseline,

on the same graph and compares quality and modeled cost.

Run:  python examples/community_detection.py
"""

import networkx as nx

from repro.algorithms import leiden, louvain
from repro.baselines import vite_louvain
from repro.cluster import Cluster
from repro.graph import generators
from repro.partition import partition

HOSTS = 4


def run(name, fn, graph):
    pgraph = partition(graph, HOSTS, "oec")  # Vite supports edge-cuts only
    cluster = Cluster(HOSTS, threads_per_host=48)
    result = fn(cluster, pgraph)
    elapsed = cluster.elapsed()
    print(
        f"{name:10s} Q={result.stats['modularity']:.4f} "
        f"communities={result.stats['num_communities']:4d} "
        f"rounds={result.rounds:4d} modeled={elapsed.total:8.3f}s"
    )
    return result


def main() -> None:
    graph = generators.powerlaw_like(9, seed=12, weighted=True)
    print(f"social-network analog: {graph.num_nodes} nodes, {graph.num_edges} edges\n")

    lv = run("Kimbap-LV", louvain, graph)
    ld = run("Kimbap-LD", leiden, graph)
    vite = run("Vite", vite_louvain, graph)

    # Leiden's guarantee: every community is internally connected.
    nx_graph = graph.to_networkx().to_undirected()
    disconnected = 0
    for community in set(ld.values.values()):
        members = [n for n, c in ld.values.items() if c == community]
        if not nx.is_connected(nx_graph.subgraph(members)):
            disconnected += 1
    print(f"\nLeiden disconnected communities: {disconnected} (guaranteed 0)")
    assert disconnected == 0

    same = lv.values == vite.values and lv.rounds == vite.rounds
    print(f"Kimbap-LV and Vite agree exactly (same algorithm): {same}")


if __name__ == "__main__":
    main()
