"""IR interpreter tests: expressions, control flow, sequence association."""

import pytest

from repro.frontend import parse_source
from repro.ir.interp import FortranArray, InterpError, Interpreter


def run_sub(src, name=None, **kw):
    prog = parse_source(src)
    unit = name or next(iter(prog.units))
    return Interpreter(prog, params=kw.pop("params", None)).run(unit, **kw)


class TestFortranArray:
    def test_lower_bounds(self):
        a = FortranArray((5, 4), (0, 2))
        a.set((0, 2), 7.0)
        a.set((4, 5), 9.0)
        assert a.get((0, 2)) == 7.0
        assert a.data[0, 0] == 7.0
        assert a.data[4, 3] == 9.0

    def test_rank_mismatch(self):
        with pytest.raises(IndexError):
            FortranArray((3,), (1,)).get((1, 1))

    def test_flat_offset_column_major(self):
        a = FortranArray((3, 4), (1, 1))
        assert a.flat_offset((1, 1)) == 0
        assert a.flat_offset((2, 1)) == 1
        assert a.flat_offset((1, 2)) == 3

    def test_sequence_view_shares_memory(self):
        a = FortranArray((4, 4), (1, 1))
        v = a.sequence_view(a.flat_offset((1, 2)), (4,), (1,))
        v.set((2,), 42.0)
        assert a.get((2, 2)) == 42.0


class TestInterpreter:
    def test_arithmetic_and_power(self):
        fr = run_sub(
            "      subroutine s\n      double precision x\n      x = 2.0**3 + 7/2\n      end\n"
        )
        assert fr.lookup("x") == pytest.approx(11.0)  # integer division 7/2=3

    def test_negative_integer_division_truncates(self):
        fr = run_sub(
            "      subroutine s\n      integer i\n      i = (-7)/2\n      end\n"
        )
        assert fr.lookup("i") == -3

    def test_do_loop_and_array(self):
        fr = run_sub(
            """
      subroutine s
      integer i
      double precision a(0:9)
      do i = 0, 9
         a(i) = i * 2.0
      enddo
      end
"""
        )
        assert list(fr.lookup("a").data) == [2.0 * i for i in range(10)]

    def test_do_loop_step_and_reverse(self):
        fr = run_sub(
            """
      subroutine s
      integer i, c
      c = 0
      do i = 10, 2, -2
         c = c + i
      enddo
      end
"""
        )
        assert fr.lookup("c") == 10 + 8 + 6 + 4 + 2

    def test_if_elseif_else(self):
        src = """
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
        assert run_sub(src, scalars={"x": 5}).lookup("y") == 1
        assert run_sub(src, scalars={"x": 0}).lookup("y") == 0
        assert run_sub(src, scalars={"x": -2}).lookup("y") == -1

    def test_return_stops_execution(self):
        fr = run_sub(
            """
      subroutine s
      integer y
      y = 1
      return
      y = 2
      end
"""
        )
        assert fr.lookup("y") == 1

    def test_intrinsics(self):
        fr = run_sub(
            """
      subroutine s
      double precision a, b, c
      a = dmax1(2.0, 5.0)
      b = sqrt(16.0)
      c = mod(7, 3)
      end
"""
        )
        assert fr.lookup("a") == 5.0
        assert fr.lookup("b") == 4.0
        assert fr.lookup("c") == 1

    def test_parameter_constants(self):
        fr = run_sub(
            """
      subroutine s
      parameter (n = 4, m = n * 2)
      integer x
      x = m + n
      end
"""
        )
        assert fr.lookup("x") == 12

    def test_call_scalar_writeback(self):
        fr = run_sub(
            """
      subroutine double(x)
      double precision x
      x = x * 2.0
      end

      subroutine top
      double precision v
      v = 3.0
      call double(v)
      end
""",
            name="top",
        )
        assert fr.lookup("v") == 6.0

    def test_call_sequence_association(self):
        """Pass an interior element; callee sees a window of the sequence."""
        fr = run_sub(
            """
      subroutine fill(w)
      double precision w(3)
      integer q
      do q = 1, 3
         w(q) = q * 10.0
      enddo
      end

      subroutine top
      double precision big(10)
      integer q
      do q = 1, 10
         big(q) = 0.0
      enddo
      call fill(big(4))
      end
""",
            name="top",
        )
        big = fr.lookup("big")
        assert [big.get((k,)) for k in range(1, 11)] == [
            0, 0, 0, 10.0, 20.0, 30.0, 0, 0, 0, 0
        ]

    def test_unknown_function_raises(self):
        with pytest.raises(InterpError, match="unknown function"):
            run_sub(
                "      subroutine s\n      double precision x\n      x = mystery(1.0)\n      end\n"
            )

    def test_step_limit(self):
        prog = parse_source(
            """
      subroutine s
      integer i, j, c
      c = 0
      do i = 1, 100000
         do j = 1, 100000
            c = c + 1
         enddo
      enddo
      end
"""
        )
        interp = Interpreter(prog)
        interp.max_steps = 1000
        with pytest.raises(InterpError, match="step limit"):
            interp.run("s")
