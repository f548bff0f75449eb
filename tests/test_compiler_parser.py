"""Parser tests: Figure 4 source round-trips to the hand-built IR."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.compiler.compile import compile_program
from repro.compiler.interp import build_plan
from repro.compiler.parser import ParseError, parse_program, tokenize
from repro.compiler.programs import cc_lp_program, cc_sv_hook, cc_sv_shortcut
from repro.core import BoolReducer, NodePropMap
from repro.exec import Executor, HostStep, Plan, Until
from repro.graph import generators
from repro.partition import partition

HOOK_SOURCE = """
// Figure 4's Hook, as source text
while_updated parent {
  parfor src in nodes {
    src_parent = parent.read(src);
    for edge in edges(src) {
      dst_parent = parent.read(edge.dst);
      if (src_parent > dst_parent) {
        work_done.reduce_or(true);
        parent.reduce(src_parent, dst_parent, min);
      }
    }
  }
}
"""

SHORTCUT_SOURCE = """
while_updated parent {
  parfor node in nodes {
    parent_value = parent.read(node);
    grand_parent = parent.read(parent_value);
    if (parent_value != grand_parent) {
      parent.reduce(node, grand_parent, min);
    }
  }
}
"""

LP_SOURCE = """
while_updated label {
  parfor src in nodes {
    label_value = label.read(src);
    for edge in edges(src) {
      label.reduce(edge.dst, label_value, min);
    }
  }
}
"""


class TestTokenizer:
    def test_tokens(self):
        tokens = tokenize("a = b.read(c); // comment\n}")
        texts = [t.text for t in tokens]
        assert texts == ["a", "=", "b", ".", "read", "(", "c", ")", ";", "}", ""]

    def test_numbers(self):
        tokens = tokenize("1 2.5")
        assert tokens[0].text == "1"
        assert tokens[1].text == "2.5"

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            tokenize("a @ b")

    def test_multi_char_operators(self):
        texts = [t.text for t in tokenize("a >= b != c")]
        assert ">=" in texts and "!=" in texts


class TestRoundTrip:
    """Parsed source must equal the hand-constructed IR exactly (frozen
    dataclass equality), so the whole downstream pipeline is shared."""

    def test_hook(self):
        parsed = parse_program(HOOK_SOURCE, name="hook")
        assert parsed == cc_sv_hook()

    def test_shortcut(self):
        parsed = parse_program(SHORTCUT_SOURCE, name="shortcut")
        assert parsed == cc_sv_shortcut()

    def test_cc_lp(self):
        parsed = parse_program(LP_SOURCE, name="cc_lp")
        assert parsed == cc_lp_program()

    def test_parsed_program_compiles_identically(self):
        parsed_loop = compile_program(parse_program(HOOK_SOURCE, name="hook"))
        built_loop = compile_program(cc_sv_hook())
        assert parsed_loop.describe() == built_loop.describe()


class TestEndToEnd:
    def test_parsed_cc_sv_runs_correctly(self):
        graph = generators.road_like(6, 4, seed=1)
        pgraph = partition(graph, 3, "cvc")
        cluster = Cluster(3, threads_per_host=4)
        parent = NodePropMap(cluster, pgraph, "parent")
        parent.set_initial(lambda node: node)
        work_done = BoolReducer(cluster, "work_done")
        hook = compile_program(parse_program(HOOK_SOURCE, name="hook"))
        shortcut = compile_program(parse_program(SHORTCUT_SOURCE, name="shortcut"))
        maps = {"parent": parent}
        reducers = {"work_done": work_done}
        plan = Plan(
            name="parsed-cc-sv",
            pgraph=pgraph,
            steps=[
                HostStep("reset", lambda: work_done.set_all(False)),
                build_plan(hook, pgraph, maps, reducers),
                HostStep("sync", work_done.sync),
                build_plan(shortcut, pgraph, maps, reducers),
                Until(lambda: not work_done.read()),
            ],
        )
        Executor(cluster).run(plan)
        from repro.verify import check_components

        check_components(graph, parent.snapshot())


class TestSyntaxErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_program("while_updated m { parfor n in nodes { a = n } }")

    def test_unknown_reduce_op(self):
        with pytest.raises(ParseError):
            parse_program(
                "while_updated m { parfor n in nodes { m.reduce(n, n, xor); } }"
            )

    def test_foreign_edges_rejected(self):
        """Section 3.2: only the active node's edges are accessible."""
        with pytest.raises(ParseError):
            parse_program(
                "while_updated m { parfor n in nodes {"
                " other = m.read(n);"
                " for e in edges(other) { } } }"
            )

    def test_dst_on_non_edge_rejected(self):
        with pytest.raises(ParseError):
            parse_program(
                "while_updated m { parfor n in nodes { a = n.dst; } }"
            )

    def test_nested_read_rejected(self):
        with pytest.raises(ParseError):
            parse_program(
                "while_updated m { parfor n in nodes {"
                " m.reduce(n, m.read(n) + 1, min); } }"
            )

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_program(HOOK_SOURCE + " extra")

    def test_keyword_as_identifier_rejected(self):
        with pytest.raises(ParseError):
            parse_program("while_updated nodes { parfor n in nodes { } }")

    def test_unknown_attribute(self):
        with pytest.raises(ParseError):
            parse_program(
                "while_updated m { parfor n in nodes {"
                " for e in edges(n) { a = e.src; } } }"
            )


class TestExpressions:
    def test_arithmetic_precedence(self):
        program = parse_program(
            "while_updated m { parfor n in nodes { a = 1 + 2 * 3; } }"
        )
        from repro.compiler.ir import Assign, BinOp, Const

        assign = program.par_for.body[0]
        assert assign == Assign("a", BinOp("+", Const(1), BinOp("*", Const(2), Const(3))))

    def test_parentheses_override(self):
        program = parse_program(
            "while_updated m { parfor n in nodes { a = (1 + 2) * 3; } }"
        )
        from repro.compiler.ir import BinOp

        assert program.par_for.body[0].expr.op == "*"

    def test_min_max_functions(self):
        program = parse_program(
            "while_updated m { parfor n in nodes { a = min(n, 5); } }"
        )
        assert program.par_for.body[0].expr.op == "min"

    def test_boolean_chain(self):
        program = parse_program(
            "while_updated m { parfor n in nodes {"
            " a = not (n > 1) and true or false; } }"
        )
        assert program.par_for.body[0].expr.op == "or"

    def test_edge_weight(self):
        program = parse_program(
            "while_updated m { parfor n in nodes {"
            " for e in edges(n) { m.reduce(e.dst, e.weight, sum); } } }"
        )
        from repro.compiler.ir import EdgeWeight, ForEdges

        loop = program.par_for.body[0]
        assert isinstance(loop, ForEdges)
        assert loop.body[0].value == EdgeWeight("e")


class TestUnparser:
    """print -> parse must be the identity on user-level IR."""

    def test_round_trips_the_figure4_programs(self):
        from repro.compiler.parser import to_source

        for factory in (cc_sv_hook, cc_sv_shortcut, cc_lp_program):
            program = factory()
            source = to_source(program, active_var="src")
            assert parse_program(source, name=program.name) == program

    def test_rejects_compiler_internal_statements(self):
        from repro.compiler.ir import ActiveNode, KimbapWhile, MapRequest, ParFor, stmts
        from repro.compiler.parser import to_source

        program = KimbapWhile(
            ("m",), ParFor(stmts(MapRequest("m", ActiveNode())))
        )
        with pytest.raises(TypeError):
            to_source(program)

    def test_property_random_programs_round_trip(self):
        from hypothesis import given, settings

        from repro.compiler.parser import to_source
        from tests.test_compiler_properties import bodies

        from repro.compiler.ir import KimbapWhile, ParFor

        @given(bodies())
        @settings(max_examples=60, deadline=None)
        def check(body):
            program = KimbapWhile(("m",), ParFor(body), name="p")
            source = to_source(program)
            assert parse_program(source, name="p") == program

        check()
