"""The tutorial's custom algorithm, end to end (docs/TUTORIAL.md).

Degree-weighted label spreading written as one operator plan (a warm-up
phase group, then a KimbapWhile loop whose operator body is plain Python
over the node-property-map API), then label propagation written as
Figure 4-style *source text* and pushed through the compiler. Shows the
full surface a downstream user touches when writing a new algorithm.

Run:  python examples/custom_algorithm.py
"""

from repro import verify
from repro.cluster import Cluster
from repro.compiler import compile_program, parse_program
from repro.compiler.interp import build_plan
from repro.core import MIN, NodePropMap
from repro.exec import (
    DegreeReduce,
    Executor,
    Operator,
    OperatorStep,
    Plan,
    ScalarKernel,
    SyncStep,
)
from repro.graph import generators
from repro.partition import partition


def main() -> None:
    graph = generators.powerlaw_like(8, seed=1)
    pgraph = partition(graph, num_hosts=4, policy="cvc")
    cluster = Cluster(num_hosts=4, threads_per_host=48)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges, 4 hosts\n")

    executor = Executor(cluster)

    # -- global degrees via SUM reduction (vertex cut: no host knows them) --
    degree = NodePropMap(cluster, pgraph, "degree")
    label = NodePropMap(cluster, pgraph, "label")
    degree.set_initial(lambda node: 0)
    label.set_initial(lambda node: node)

    # -- custom operator: adopt the min label among higher-degree neighbors --
    def spread(ctx):
        my_label = label.read_local(ctx.host, ctx.local)
        my_degree = degree.read_local(ctx.host, ctx.local)
        for edge in ctx.edges():
            dst_local = ctx.edge_dst_local(edge)
            if degree.read_local(ctx.host, dst_local) > my_degree:
                neighbor_label = label.read_local(ctx.host, dst_local)
                if neighbor_label < my_label:
                    label.reduce(ctx.host, ctx.thread, ctx.node, neighbor_label, MIN)

    # One round is the operator plus its reduce/broadcast syncs; the loop
    # repeats it until no reduce-sync changed a label (KimbapWhile), with
    # both maps' mirrors pinned while it runs.
    spread_loop = Plan(
        name="spread",
        pgraph=pgraph,
        steps=[
            OperatorStep(Operator("spread", "all", ScalarKernel(spread))),
            SyncStep(label, "reduce"),
            SyncStep(label, "broadcast"),
        ],
        quiesce=(label,),
        pins={label: "none", degree: "none"},
    )
    # The whole algorithm is one plan: the warm-up steps run once, then the
    # nested loop runs to quiescence.
    rounds = executor.run(
        Plan(
            name="degree-spread",
            pgraph=pgraph,
            steps=[
                OperatorStep(Operator("deg", "all", DegreeReduce(degree))),
                SyncStep(degree, "reduce"),
                spread_loop,
            ],
        )
    )
    remaining = len(set(label.snapshot().values()))
    print(f"degree-weighted spreading: {rounds} rounds, {remaining} labels remain")

    # -- finish the job with compiled label propagation from source text --
    program = parse_program(
        """
        while_updated label {
          parfor src in nodes {
            l = label.read(src);
            for e in edges(src) {
              label.reduce(e.dst, l, min);
            }
          }
        }
        """,
        name="spread_lp",
    )
    loop = compile_program(program)
    print("\ncompiled continuation:")
    print(loop.describe())
    executor.run(build_plan(loop, pgraph, {"label": label}))
    verify.check_components(graph, label.snapshot())
    print("\nfinal labels are exactly the connected components (verified)")
    elapsed = cluster.elapsed()
    print(
        f"modeled: {elapsed.total:.3f}s "
        f"({elapsed.computation:.3f} comp / {elapsed.communication:.3f} comm)"
    )


if __name__ == "__main__":
    main()
