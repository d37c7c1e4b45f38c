"""Frontend tests: lexer, parser, directive handling."""

import pytest

from repro.codegen import compile_kernel
from repro.frontend import LexError, ParseError, parse_source, parse_subroutine
from repro.frontend.lexer import Lexer, TokenKind
from repro.ir import (
    Assign,
    BinOp,
    CallStmt,
    DoLoop,
    FuncCall,
    IfThen,
    Num,
    UnOp,
    ArrayRef,
    walk_stmts,
)


class TestLexer:
    def lex(self, text):
        return Lexer(text).logical_lines()

    def test_tokens_basic(self):
        (line,) = self.lex("x = a + 2.5d0 * b(i,j)")
        kinds = [t.kind for t in line.tokens[:-1]]
        assert TokenKind.REAL in kinds
        texts = [t.text for t in line.tokens]
        assert "x" in texts and "(" in texts

    def test_d_exponent_normalized(self):
        (line,) = self.lex("x = 1.5d3")
        real = [t for t in line.tokens if t.kind is TokenKind.REAL][0]
        assert real.value == 1500.0

    def test_dot_operators(self):
        (line,) = self.lex("if (a .lt. b .and. c .ge. 1) then")
        texts = [t.text for t in line.tokens]
        assert "<" in texts and ".and." in texts and ">=" in texts

    def test_comment_lines_skipped(self):
        lines = self.lex("c a comment\nC another\n* starred\n! bang\n      x = 1\n")
        assert len(lines) == 1

    def test_call_is_not_a_comment(self):
        lines = self.lex("      call foo(1)\ncall bar(2)")
        assert len(lines) == 2

    def test_continuation_joining(self):
        lines = self.lex("      x = a +\n     &    b + c\n")
        assert len(lines) == 1
        texts = [t.text for t in lines[0].tokens]
        assert "b" in texts and "c" in texts

    def test_directive_detection(self):
        lines = self.lex("chpf$ independent\n!hpf$ template t(5)\nc$hpf distribute (block) :: a\n")
        assert all(l.is_directive for l in lines)

    def test_inline_comment_stripped(self):
        (line,) = self.lex("      x = 1   ! trailing comment")
        texts = [t.text for t in line.tokens]
        assert "trailing" not in texts

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            self.lex("      print *, 'oops")


class TestDigitBeforeDotOperator:
    """A mantissa's trailing ``.`` is not taken when a dot operator starts
    there: ``1.eq.n`` is ``1 == n``, not the REAL ``1.`` and a stray
    ``eq.``."""

    def tokens(self, text):
        (line,) = Lexer(text).logical_lines()
        return [(t.kind, t.text, t.value) for t in line.tokens[:-1]]

    def test_digit_between_two_dot_operators(self):
        assert self.tokens("if (n.eq.1.and.m.eq.2) x = 1") == [
            (TokenKind.NAME, "if", None), (TokenKind.OP, "(", None),
            (TokenKind.NAME, "n", None), (TokenKind.OP, "==", None),
            (TokenKind.INT, "1", 1), (TokenKind.OP, ".and.", None),
            (TokenKind.NAME, "m", None), (TokenKind.OP, "==", None),
            (TokenKind.INT, "2", 2), (TokenKind.OP, ")", None),
            (TokenKind.NAME, "x", None), (TokenKind.OP, "=", None),
            (TokenKind.INT, "1", 1),
        ]

    def test_digit_first_operand(self):
        assert self.tokens("if (1.eq.n)")[2:5] == [
            (TokenKind.INT, "1", 1), (TokenKind.OP, "==", None),
            (TokenKind.NAME, "n", None),
        ]

    def test_digit_before_relational_in_assignment(self):
        assert self.tokens("x = 2.lt.y")[2:] == [
            (TokenKind.INT, "2", 2), (TokenKind.OP, "<", None),
            (TokenKind.NAME, "y", None),
        ]

    def test_dot_operator_case_is_ignored(self):
        assert self.tokens("x = 3.OR.y")[2:4] == [
            (TokenKind.INT, "3", 3), (TokenKind.OP, ".or.", None),
        ]

    @pytest.mark.parametrize("text,value", [
        ("1.e5", 1e5), ("1.d0", 1.0), ("1.", 1.0), ("1.E5", 1e5),
    ])
    def test_reals_with_a_trailing_point_are_unchanged(self, text, value):
        assert self.tokens(f"x = {text}")[2:] == [(TokenKind.REAL, text, value)]

    def test_real_after_a_dot_operator_is_unchanged(self):
        assert self.tokens("x.gt.1.0") == [
            (TokenKind.NAME, "x", None), (TokenKind.OP, ">", None),
            (TokenKind.REAL, "1.0", 1.0),
        ]

    DOTIF = """
      program dotif
      parameter (nx = 12, n = 1, m = 2)
      real a(nx), b(nx)
!hpf$ processors p(2)
!hpf$ distribute a(block) onto p
!hpf$ distribute b(block) onto p
      do i = 1, nx
         b(i) = i * 0.5
      enddo
      do i = 1, nx
         if (n.eq.1.and.m.eq.2) then
            a(i) = b(i) * 2.0
         else
            a(i) = b(i) + 1.0
         endif
      enddo
      do i = 1, nx
         if (2.lt.i.and.i.le.nx-1) a(i) = a(i) + b(i)
      enddo
      end
"""

    @pytest.mark.parametrize("backend", ["vector", "scalar"])
    def test_program_compiles_strict_and_matches_the_interpreter(self, backend):
        from repro.eval.fuzz import _mpi_mismatch, _serial_reference, _shmem_mismatch

        ref = _serial_reference(self.DOTIF)
        assert ref["a"][0] == 1.0 and ref["a"][5] == 9.0  # the THEN branch ran
        kernel = compile_kernel(self.DOTIF, 2, strict=True, backend=backend)
        assert _shmem_mismatch(kernel, kernel.run_shmem({}), ref, "shmem") is None
        assert _mpi_mismatch(kernel, kernel.run({}), ref, "mpi") is None


class TestParser:
    def test_subroutine_shell(self):
        sub = parse_subroutine("      subroutine s(a, b)\n      integer a, b\n      end\n")
        assert sub.name == "s"
        assert sub.args == ["a", "b"]
        assert sub.symbols.lookup("a").is_dummy_arg

    def test_declarations(self):
        sub = parse_subroutine(
            """
      subroutine s
      integer i, j
      double precision x(10), y(0:5, 3)
      real*8 z
      parameter (n = 4, m = n + 1)
      common /blk/ x, y
      end
"""
        )
        assert sub.symbols.lookup("y").rank == 2
        assert sub.symbols.lookup("y").shape_ints() == (6, 3)
        assert sub.symbols.lookup("z").ftype.value == "double precision"
        assert sub.symbols.parameter_values() == {"n": 4, "m": 5}
        assert sub.symbols.lookup("x").common == "blk"

    def test_do_loops_enddo_and_labeled(self):
        sub = parse_subroutine(
            """
      subroutine s(n)
      integer n, i, j
      double precision a(10)
      do i = 1, n
         a(i) = 0.0
      enddo
      do 10 j = 1, n, 2
         a(j) = 1.0
 10   continue
      end
"""
        )
        loops = [s for s in walk_stmts(sub.body) if isinstance(s, DoLoop)]
        assert len(loops) == 2
        assert loops[1].var == "j"
        assert isinstance(loops[1].step, Num) and loops[1].step.value == 2

    def test_if_elseif_else(self):
        sub = parse_subroutine(
            """
      subroutine s(x)
      integer x, y
      if (x > 0) then
         y = 1
      else if (x == 0) then
         y = 0
      else
         y = -1
      endif
      end
"""
        )
        node = sub.body[0]
        assert isinstance(node, IfThen)
        assert isinstance(node.else_body[0], IfThen)
        assert len(node.else_body[0].else_body) == 1

    def test_logical_if(self):
        sub = parse_subroutine(
            "      subroutine s(x)\n      integer x, y\n      if (x > 2) y = 5\n      end\n"
        )
        assert isinstance(sub.body[0], IfThen)
        assert isinstance(sub.body[0].then_body[0], Assign)

    def test_array_vs_function_resolution(self):
        sub = parse_subroutine(
            """
      subroutine s(n)
      integer n, i
      double precision a(10), x
      do i = 1, n
         x = a(i) + sqrt(2.0) + myfunc(i)
      enddo
      end
"""
        )
        assign = [s for s in walk_stmts(sub.body) if isinstance(s, Assign)][0]
        nodes = list(assign.rhs.walk())
        arefs = [n for n in nodes if isinstance(n, ArrayRef)]
        fcalls = [n for n in nodes if isinstance(n, FuncCall)]
        assert {a.name for a in arefs} == {"a"}
        assert {f.name for f in fcalls} == {"sqrt", "myfunc"}

    def test_call_statement(self):
        sub = parse_subroutine(
            """
      subroutine s(n)
      integer n
      double precision r(5, 10)
      call work(r(1, 3), n + 1)
      end
"""
        )
        c = sub.body[0]
        assert isinstance(c, CallStmt)
        assert c.name == "work"
        assert isinstance(c.args[0], ArrayRef)

    def test_power_right_associative(self):
        sub = parse_subroutine(
            "      subroutine s\n      double precision x\n      x = 2**3**2\n      end\n"
        )
        rhs = sub.body[0].rhs
        assert isinstance(rhs, BinOp) and rhs.op == "**"
        assert isinstance(rhs.right, BinOp) and rhs.right.op == "**"

    def test_unary_minus(self):
        sub = parse_subroutine(
            "      subroutine s\n      double precision x, y\n      x = -y*2\n      end\n"
        )
        rhs = sub.body[0].rhs
        assert isinstance(rhs, BinOp) and rhs.op == "*"
        assert isinstance(rhs.left, UnOp)

    def test_multiple_units_and_call_graph(self):
        prog = parse_source(
            """
      subroutine leaf(x)
      double precision x
      x = 1.0
      end

      subroutine top(x)
      double precision x
      call leaf(x)
      end
"""
        )
        order = [u.name for u in prog.bottom_up_order()]
        assert order.index("leaf") < order.index("top")

    def test_missing_end_raises(self):
        with pytest.raises(ParseError):
            parse_subroutine("      subroutine s\n      integer i\n      i = 1\n")

    def test_goto_rejected(self):
        with pytest.raises(ParseError):
            parse_subroutine("      subroutine s\n      goto 10\n      end\n")


class TestDirectives:
    SRC = """
      subroutine s(n)
      integer n, i
      double precision a(0:17, 0:17), b(0:17, 0:17), w(0:17)
chpf$ processors p(2, 2)
chpf$ template t(0:17, 0:17)
chpf$ align a(i, j) with t(i, j)
chpf$ align b(i, j) with t(i, j)
chpf$ align w(i) with t(i, *)
chpf$ distribute t(block, block) onto p
chpf$ independent, new(w)
      do i = 1, n
         w(i) = 1.0
      enddo
      end
"""

    def test_declarative_directives(self):
        sub = parse_subroutine(self.SRC)
        assert sub.processors[0].name == "p"
        assert len(sub.templates[0].dims) == 2
        assert len(sub.aligns) == 3
        assert sub.aligns[2].target_subscripts[1] is None  # the '*'
        assert sub.distributes[0].onto == "p"

    def test_loop_directive_attachment(self):
        sub = parse_subroutine(self.SRC)
        loop = sub.body[0]
        assert isinstance(loop, DoLoop)
        assert loop.directive is not None
        assert loop.directive.independent
        assert loop.directive.new_vars == ["w"]

    def test_distribute_direct_array_form(self):
        sub = parse_subroutine(
            """
      subroutine s
      double precision a(8, 8)
chpf$ distribute a(block, *)
      a(1,1) = 0.0
      end
"""
        )
        d = sub.distributes[0]
        assert d.arrays == ["a"]
        assert d.formats[0].kind == "block" and d.formats[1].kind == "*"

    def test_localize_clause(self):
        sub = parse_subroutine(
            """
      subroutine s(n)
      integer n, i
      double precision a(10)
chpf$ independent, localize(a)
      do i = 1, n
         a(i) = 1.0
      enddo
      end
"""
        )
        assert sub.body[0].directive.localize_vars == ["a"]

    def test_on_home_parses_and_does_not_steer_the_compile(self):
        """An ON_HOME directive parses, and CP selection does not read it:
        a strict compile emits the same node programs with or without it."""
        plain = """
      subroutine s(n)
      integer n, i
      double precision a(0:17), b(0:17)
chpf$ processors p(4)
chpf$ template t(0:17)
chpf$ align a(i) with t(i)
chpf$ align b(i) with t(i)
chpf$ distribute t(block) onto p
      do i = 1, n - 1
         a(i) = b(i - 1) + b(i + 1)
      enddo
      end
"""
        directed = plain.replace(
            "         a(i) =", "chpf$ on_home b(i + 1)\n         a(i) =")
        assert "on_home" in directed
        assert len(parse_subroutine(directed).body[0].body) == 1
        with_dir = compile_kernel(directed, 4, params={"n": 16})
        without = compile_kernel(plain, 4, params={"n": 16})
        for target in ("mpi", "shmem"):
            assert with_dir.python_source(target) == without.python_source(target)

    def test_unknown_directive_raises(self):
        with pytest.raises(ParseError):
            parse_subroutine(
                "      subroutine s\nchpf$ frobnicate a\n      integer i\n      end\n"
            )
