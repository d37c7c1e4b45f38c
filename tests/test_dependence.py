"""Dependence analysis tests, including brute-force soundness checks."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.analysis import DependenceAnalyzer
from repro.analysis.dependence import LI, DependenceAnalyzer
from repro.frontend import parse_subroutine


def loop_of(src):
    sub = parse_subroutine(src)
    return sub.body[0]


class TestBasicDependences:
    def test_carried_flow(self):
        loop = loop_of(
            """
      subroutine s(n)
      integer n, i
      double precision a(0:100)
      do i = 1, n
         a(i) = a(i-1) + 1.0
      enddo
      end
"""
        )
        deps = DependenceAnalyzer(loop).dependences()
        assert any(d.kind == "flow" and d.level == 1 for d in deps)

    def test_parallel_loop_has_no_carried_deps(self):
        loop = loop_of(
            """
      subroutine s(n)
      integer n, i
      double precision a(0:100), b(0:100)
      do i = 1, n
         a(i) = b(i) + 1.0
      enddo
      end
"""
        )
        assert not any(d.level == 1 for d in DependenceAnalyzer(loop).dependences())

    def test_anti_dependence(self):
        loop = loop_of(
            """
      subroutine s(n)
      integer n, i
      double precision a(0:101)
      do i = 1, n
         a(i) = a(i+1) + 1.0
      enddo
      end
"""
        )
        deps = DependenceAnalyzer(loop).dependences()
        assert any(d.kind == "anti" and d.level == 1 for d in deps)
        assert not any(d.kind == "flow" and d.level == 1 for d in deps)

    def test_loop_independent_edge(self):
        loop = loop_of(
            """
      subroutine s(n)
      integer n, i
      double precision a(0:100), b(0:100)
      do i = 1, n
         a(i) = 1.0
         b(i) = a(i) * 2.0
      enddo
      end
"""
        )
        deps = DependenceAnalyzer(loop).dependences()
        li = [d for d in deps if d.loop_independent and d.var == "a"]
        assert len(li) == 1 and li[0].kind == "flow"
        assert not any(d.level == 1 and d.var == "a" and d.kind == "flow" for d in deps)

    def test_distance_beyond_bounds_no_dep(self):
        loop = loop_of(
            """
      subroutine s
      integer i
      double precision a(0:100)
      do i = 1, 5
         a(i) = a(i+50) + 1.0
      enddo
      end
"""
        )
        deps = DependenceAnalyzer(loop).dependences()
        assert not any(d.var == "a" and d.kind == "anti" for d in deps)

    def test_level_two_carried(self):
        loop = loop_of(
            """
      subroutine s(n)
      integer n, i, j
      double precision a(0:100, 0:100)
      do i = 1, n
         do j = 1, n
            a(i, j) = a(i, j-1) + 1.0
         enddo
      enddo
      end
"""
        )
        deps = DependenceAnalyzer(loop).dependences()
        flow = [d for d in deps if d.kind == "flow" and d.var == "a"]
        assert {d.level for d in flow} == {2}

    def test_scalar_dependences(self):
        loop = loop_of(
            """
      subroutine s(n)
      integer n, i
      double precision a(0:100), t
      do i = 1, n
         t = a(i)
         a(i) = t * 2.0
      enddo
      end
"""
        )
        deps = DependenceAnalyzer(loop).dependences()
        assert any(d.var == "t" and d.loop_independent and d.kind == "flow" for d in deps)
        assert any(d.var == "t" and d.level == 1 and d.kind == "output" for d in deps)

    def test_sibling_loops_dependence_at_outer_level(self):
        loop = loop_of(
            """
      subroutine s(n)
      integer n, i, j
      double precision c(0:100), a(0:100)
      do i = 1, n
         do j = 1, n
            c(j) = 1.0
         enddo
         do j = 1, n
            a(j) = c(j)
         enddo
      enddo
      end
"""
        )
        deps = DependenceAnalyzer(loop).dependences()
        flow = [d for d in deps if d.var == "c" and d.kind == "flow"]
        levels = {d.level for d in flow}
        assert LI in levels  # same-i producer/consumer
        assert 1 in levels  # memory-based cross-i reach (no kill analysis)

    def test_symbolic_bounds_handled(self):
        loop = loop_of(
            """
      subroutine s(n, m)
      integer n, m, i
      double precision a(0:100)
      do i = m, n
         a(i) = a(i-2) + 1.0
      enddo
      end
"""
        )
        deps = DependenceAnalyzer(loop).dependences()
        assert any(d.kind == "flow" and d.level == 1 for d in deps)


class TestBruteForceSoundness:
    """Compare exact dependence answers against brute-force simulation on
    small concrete loops of the form a(i+w) = a(i+r) + ..."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(4, 10))
    def test_single_loop_shift_pairs(self, w, r, n):
        src = f"""
      subroutine s
      integer i
      double precision a(-10:110)
      do i = 1, {n}
         a(i + {w}) = a(i + {r}) + 1.0
      enddo
      end
"""
        loop = loop_of(src)
        deps = DependenceAnalyzer(loop).dependences()
        got_flow = any(d.kind == "flow" and d.level == 1 for d in deps)
        got_anti = any(d.kind == "anti" and d.level == 1 for d in deps)
        # brute force
        true_flow = any(
            i1 < i2 and i1 + w == i2 + r
            for i1, i2 in itertools.product(range(1, n + 1), repeat=2)
        )
        true_anti = any(
            i1 < i2 and i1 + r == i2 + w
            for i1, i2 in itertools.product(range(1, n + 1), repeat=2)
        )
        assert got_flow == true_flow
        assert got_anti == true_anti

    @settings(max_examples=25, deadline=None)
    @given(st.integers(-2, 2), st.integers(-2, 2), st.integers(3, 6))
    def test_two_statement_li_edges(self, w, r, n):
        src = f"""
      subroutine s
      integer i
      double precision a(-10:110), b(-10:110)
      do i = 1, {n}
         a(i + {w}) = 1.0
         b(i) = a(i + {r})
      enddo
      end
"""
        loop = loop_of(src)
        deps = DependenceAnalyzer(loop).dependences()
        got_li = any(d.kind == "flow" and d.loop_independent for d in deps)
        assert got_li == (w == r)
