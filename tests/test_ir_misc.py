"""Small IR pieces: programs, directives, expression helpers."""

import pytest

from repro.frontend import parse_source
from repro.ir import ArrayRef, BinOp, Num, UnOp, Var, to_affine
from repro.ir.directives import LoopDirective
from repro.ir.expr import from_affine, substitute_expr
from repro.ir.stmt import Assign, DoLoop
from repro.isets.terms import E


class TestExprHelpers:
    def test_to_affine_basic(self):
        e = BinOp("+", BinOp("*", Num(2), Var("i")), Num(3))
        a = to_affine(e)
        assert a == 2 * E("i") + 3

    def test_to_affine_rejects_products(self):
        e = BinOp("*", Var("i"), Var("j"))
        assert to_affine(e) is None

    def test_to_affine_rejects_floats(self):
        assert to_affine(Num(1.5)) is None

    def test_from_affine_roundtrip(self):
        a = 3 * E("i") - E("j") + 7
        e = from_affine(a)
        assert to_affine(e) == a

    def test_from_affine_zero(self):
        e = from_affine(E("x") * 0)
        assert to_affine(e) == E("x") * 0

    def test_substitute_expr(self):
        e = BinOp("+", Var("i"), ArrayRef("a", (Var("i"),)))
        r = substitute_expr(e, {"i": Num(5)})
        assert str(r) == "(5 + a(5))"

    def test_unop_affine_negation(self):
        assert to_affine(UnOp("-", Var("i"))) == -E("i")


class TestProgramStructure:
    def test_recursion_rejected(self):
        prog = parse_source(
            """
      subroutine a(x)
      double precision x
      call b(x)
      end

      subroutine b(x)
      double precision x
      call a(x)
      end
"""
        )
        with pytest.raises(ValueError, match="recursive"):
            prog.bottom_up_order()

    def test_main_program_unit(self):
        prog = parse_source(
            """
      program driver
      integer i
      i = 1
      end
"""
        )
        assert prog.main is not None
        assert prog.main.name == "driver"

    def test_calls_to_unknown_units_ignored_in_graph(self):
        prog = parse_source(
            """
      subroutine s(x)
      double precision x
      call external_thing(x)
      end
"""
        )
        g = prog.call_graph()
        assert list(g.edges) == []


class TestLoopDirectiveMerge:
    def test_merge_unions_everything(self):
        a = LoopDirective(independent=True, new_vars=["x"])
        b = LoopDirective(localize_vars=["y"], new_vars=["x", "z"])
        m = a.merge(b)
        assert m.independent
        assert m.new_vars == ["x", "z"]
        assert m.localize_vars == ["y"]


class TestStatementBasics:
    def test_unique_sids(self):
        s1 = Assign(Var("x"), Num(1))
        s2 = Assign(Var("x"), Num(1))
        assert s1.sid != s2.sid

    def test_invalid_assignment_target(self):
        with pytest.raises(TypeError):
            Assign(Num(3), Num(1))  # type: ignore[arg-type]

    def test_doloop_default_step(self):
        l = DoLoop("i", Num(1), Num(5), [])
        assert isinstance(l.step, Num) and l.step.value == 1
        assert "do i = 1, 5" in str(l)
