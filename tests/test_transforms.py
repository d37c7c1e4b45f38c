"""Inlining transformation tests (§8.1 prep steps)."""

import numpy as np
import pytest

from repro.frontend import parse_source
from repro.ir import CallStmt, DoLoop, walk_stmts
from repro.ir.interp import Interpreter
from repro.transform import InlineError, inline_calls

INLINE_SRC = """
      subroutine exact_solution(xi, eta, dtemp)
      double precision xi, eta, dtemp(5)
      integer m
      do m = 1, 5
         dtemp(m) = xi*2.0d0 + eta*m
      enddo
      end

      subroutine exact_rhs(n)
      integer n, i, j, m
      double precision ue(0:20, 5), dtemp(5)
      do j = 0, n - 1
         do i = 0, n - 1
            call exact_solution(i*0.1d0, j*0.1d0, dtemp)
            do m = 1, 5
               ue(i, m) = dtemp(m)
            enddo
         enddo
      enddo
      end
"""


class TestInlining:
    def _both_results(self, src, caller, callee, scalars):
        """Interpret original and inlined versions; return both frames."""
        p1 = parse_source(src)
        f1 = Interpreter(p1).run(caller, scalars=dict(scalars))
        p2 = parse_source(src)
        n = inline_calls(p2, caller, callee)
        assert n > 0
        assert not [s for s in p2.get(caller).statements() if isinstance(s, CallStmt)]
        f2 = Interpreter(p2).run(caller, scalars=dict(scalars))
        return f1, f2

    def test_exact_solution_semantics_preserved(self):
        f1, f2 = self._both_results(INLINE_SRC, "exact_rhs", "exact_solution", {"n": 6})
        assert np.array_equal(f1.lookup("ue").data, f2.lookup("ue").data)

    def test_local_renamed(self):
        prog = parse_source(INLINE_SRC)
        inline_calls(prog, "exact_rhs", "exact_solution")
        caller = prog.get("exact_rhs")
        # the callee's loop variable m collides with the caller's m: the
        # inlined copy must use a renamed variable
        loops = [s for s in walk_stmts(caller.body) if isinstance(s, DoLoop)]
        mvars = [l.var for l in loops if l.var.startswith("m")]
        assert any(v != "m" for v in mvars)

    def test_anchor_sequence_association(self):
        src = """
      subroutine fill(w)
      double precision w(3)
      integer q
      do q = 1, 3
         w(q) = q*10.0d0
      enddo
      end

      subroutine top
      double precision big(10)
      integer q
      do q = 1, 10
         big(q) = 0.0d0
      enddo
      call fill(big(4))
      end
"""
        f1, f2 = self._both_results(src, "top", "fill", {})
        assert np.array_equal(f1.lookup("big").data, f2.lookup("big").data)
        assert f2.lookup("big").get((4,)) == 10.0

    def test_scalar_expression_substitution(self):
        src = """
      subroutine addc(x, c)
      double precision x, c
      x = x + c
      end

      subroutine top
      double precision v
      v = 1.0d0
      call addc(v, 2.0d0 * 3.0d0)
      end
"""
        f1, f2 = self._both_results(src, "top", "addc", {})
        assert f1.lookup("v") == f2.lookup("v") == 7.0

    def test_assigned_scalar_needs_variable(self):
        src = """
      subroutine setx(x)
      double precision x
      x = 1.0d0
      end

      subroutine top
      call setx(2.0d0 + 1.0d0)
      end
"""
        prog = parse_source(src)
        with pytest.raises(InlineError, match="needs a variable"):
            inline_calls(prog, "top", "setx")

