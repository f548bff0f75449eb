"""The Kimbap compiler (Section 5).

Vertex-centric operators are written in a small statement IR
(:mod:`repro.compiler.ir`). The compiler builds a statement-level
control-flow graph, whose node order lists the map reads in dominance
order, and then:

* validates that the operator is *cautious* (all reads before all writes),
* splits the operator: every map read of a non-local key gets a preceding
  request ParFor (copies of its dominating statements - the prefix of
  its enclosing block chain - with the read replaced by ``Request``)
  followed by a ``RequestSync``,
* appends one ``ReduceSync`` per reduced map (and, with pinned mirrors,
  ``BroadcastSync``) after the main ParFor,
* applies the two Section 5.2 elisions: master-nodes RequestSync elision
  (operators that never touch edges iterate masters only and drop requests
  for provably-local keys) and adjacent-neighbors RequestSync elision
  (operators whose reads are all active-node/neighbor keys pin mirrors and
  broadcast instead of requesting).

The output :class:`~repro.compiler.compile.CompiledLoop` is lowered onto
an operator plan by :func:`~repro.compiler.interp.build_plan` and run by
the plan executor, its bodies by the IR interpreter.
Compiling with ``optimize=False`` gives the NO-OPT arm of Figure 12.

No dominator or post-dominator tree is computed when compiling:
:mod:`repro.compiler.dominators` is the tests' oracle for the read order
and the request slice.
"""

from repro.compiler.ir import (
    ActiveNode,
    Assign,
    BinOp,
    Const,
    EdgeDst,
    EdgeWeight,
    ForEdges,
    If,
    KimbapWhile,
    MapRead,
    MapReduce,
    MapRequest,
    MapSet,
    ParFor,
    ReducerReduce,
    Var,
)
from repro.compiler.analysis import OperatorAnalysis, analyze_operator
from repro.compiler.compile import CompiledLoop, compile_program
from repro.compiler.interp import build_plan
from repro.compiler.parser import ParseError, parse_program, to_source

__all__ = [
    "ActiveNode",
    "Assign",
    "BinOp",
    "Const",
    "EdgeDst",
    "EdgeWeight",
    "ForEdges",
    "If",
    "KimbapWhile",
    "MapRead",
    "MapReduce",
    "MapRequest",
    "MapSet",
    "ParFor",
    "ReducerReduce",
    "Var",
    "OperatorAnalysis",
    "analyze_operator",
    "CompiledLoop",
    "compile_program",
    "build_plan",
    "ParseError",
    "parse_program",
    "to_source",
]
