"""The compiler's digraph walks (``repro.ir.graph``) and the two orders
built on them: §6's bottom-up call order and §5's distributed loop order.

Ties are broken by node order, then successor order, and those ties decide
inlining order and so names and sids; the expected orders below are the
ones the compiler has always produced.
"""

from types import SimpleNamespace

import pytest

from repro.cp import distribute_loop
from repro.diag import E_RECURSION, CompileError
from repro.frontend import parse_source
from repro.ir import Assign, DoLoop, Num, Var
from repro.ir.graph import (
    add_edge,
    find_cycle,
    strongly_connected_components,
    topological_order,
)


def _unit(name, *callees, main=False):
    head = f"      program {name}" if main else f"      subroutine {name}(x)"
    body = "".join(f"      call {c}(x)\n" for c in callees) or "      x = 1.0\n"
    return f"{head}\n      double precision x\n{body}      end\n"


def _graph(nodes, edges):
    g = {v: [] for v in nodes}
    for a, b in edges:
        add_edge(g, a, b)
    return g


class TestWalks:
    def test_add_edge_keeps_first_insertion_order(self):
        g = _graph("abc", [("a", "c"), ("a", "b"), ("a", "c")])
        assert g == {"a": ["c", "b"], "b": [], "c": []}

    def test_kahn_takes_sources_in_node_order_then_generations(self):
        g = _graph("pxywz", [("p", "x"), ("p", "y"), ("x", "z"),
                             ("y", "z"), ("w", "z")])
        assert topological_order(g) == ["p", "w", "x", "y", "z"]

    def test_cycle_has_no_order_and_is_named_from_its_entry(self):
        g = _graph("tabc", [("t", "a"), ("a", "b"), ("b", "c"), ("c", "a")])
        assert topological_order(g) is None
        assert find_cycle(g) == ["a", "b", "c", "a"]
        assert find_cycle(_graph("ab", [("a", "b")])) is None
        assert find_cycle(_graph("a", [("a", "a")])) == ["a", "a"]

    def test_sccs_complete_sinks_first(self):
        g = _graph(range(5), [(0, 1), (1, 0), (1, 2), (3, 4), (4, 3), (4, 2)])
        assert strongly_connected_components(g) == [{2}, {0, 1}, {3, 4}]


class TestBottomUpOrder:
    def test_ties_follow_unit_and_call_order(self):
        prog = parse_source("\n".join([
            _unit("p", "x", "y", main=True), _unit("x", "z"),
            _unit("y", "z"), _unit("w", "z"), _unit("z"),
        ]))
        assert [u.name for u in prog.bottom_up_order()] == \
            ["z", "y", "x", "w", "p"]

    def test_call_graph_lists_each_callee_once(self):
        prog = parse_source("\n".join([
            _unit("a", "c", "b", "c", "missing"), _unit("b"), _unit("c"),
        ]))
        assert prog.call_graph() == {"a": ["c", "b"], "b": [], "c": []}

    def test_recursion_error_names_the_cycle(self):
        prog = parse_source("\n".join([
            _unit("top", "leaf", "a"), _unit("a", "leaf", "b"),
            _unit("b", "c"), _unit("c", "a"), _unit("leaf"),
        ]))
        with pytest.raises(CompileError) as info:
            prog.bottom_up_order()
        assert info.value.code == E_RECURSION
        assert str(info.value) == \
            "recursive call graph is not supported: a -> b -> c -> a"


class TestDistributionOrder:
    @staticmethod
    def _loop(n):
        return DoLoop("i", Num(1), Var("n"),
                      [Assign(Var(f"s{k}"), Num(k)) for k in range(n)])

    @staticmethod
    def _deps(loop, edges):
        return [SimpleNamespace(src=loop.body[a], dst=loop.body[b])
                for a, b in edges]

    def test_condensation_order_decides_the_loops(self):
        loop = self._loop(4)
        s = loop.body
        deps = self._deps(loop, [(3, 1), (1, 3), (2, 0)])
        out = distribute_loop(loop, [(s[0], s[2])], deps)
        assert [l.body for l in out] == [[s[1], s[2], s[3]], [s[0]]]

    def test_no_edges_keeps_statement_order(self):
        loop = self._loop(4)
        s = loop.body
        out = distribute_loop(loop, [(s[3], s[0])], [])
        assert [l.body for l in out] == [[s[0], s[1], s[2]], [s[3]]]
