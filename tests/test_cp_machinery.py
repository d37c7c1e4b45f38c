"""Unit tests for the CP model, selection, privatization and distribution."""

import pytest

from repro.analysis import check_privatizable
from repro.analysis.dependence import DependenceAnalyzer
from repro.cp import distribute_loop
from repro.cp.model import CP, OnHomeRef, PointSub, RangeSub, cp_iteration_set, cp_key
from repro.cp.nest import NestInfo, loop_bounds_set
from repro.cp.privatizable import subscript_mapping
from repro.cp.select import CPSelector
from repro.distrib import DistributionContext, PDIM
from repro.frontend import parse_subroutine
from repro.ir import ArrayRef, Assign, Num, Var, walk_stmts
from repro.isets import LinExpr
from repro.isets.terms import E

SIMPLE = """
      subroutine s(n)
      integer n, i, j
      parameter (nx = 15)
      double precision a(0:nx, 0:nx), b(0:nx, 0:nx), w(0:nx)
chpf$ processors p(2, 2)
chpf$ template t(0:nx, 0:nx)
chpf$ align a(i, j) with t(i, j)
chpf$ align b(i, j) with t(i, j)
chpf$ align w(i) with t(i, *)
chpf$ distribute t(block, block) onto p
      do i = 1, n - 2
         do j = 1, n - 2
            a(i, j) = b(i, j) + b(i, j - 1)
         enddo
      enddo
      end
"""


@pytest.fixture()
def simple():
    sub = parse_subroutine(SIMPLE)
    ev = {"n": 16}
    ctx = DistributionContext(sub, 4, ev)
    return sub, ctx, sub.body[0], ev


class TestCPModel:
    def test_on_home_from_ref(self):
        ref = ArrayRef("a", (Var("i"), Num(3)))
        cp = CP.on_home(ref)
        (t,) = cp.terms
        assert t.array == "a"
        assert isinstance(t.subs[0], PointSub)

    def test_replicated_absorbs_union(self):
        cp = CP.replicated().union(CP.on_home(ArrayRef("a", (Var("i"),))))
        assert cp.is_replicated

    def test_union_dedupes_terms(self):
        c1 = CP.on_home(ArrayRef("a", (Var("i"),)))
        both = c1.union(c1)
        assert len(both.terms) == 1

    def test_iteration_set_owner_computes(self, simple):
        sub, ctx, loop, ev = simple
        asg = [s for s in walk_stmts([loop]) if isinstance(s, Assign)][0]
        nest = NestInfo(loop, ev)
        cp = CP.on_home(asg.lhs)
        iters = cp_iteration_set(cp, nest.dims_of(asg), nest.bounds_of(asg).bind(ev), ctx)
        pts = iters.bind({**ev, PDIM(0): 0, PDIM(1): 0}).points()
        # proc (0,0) owns i,j in 0..7; loop bounds 1..14
        assert pts == {(i, j) for i in range(1, 8) for j in range(1, 8)}

    def test_range_subscript_iteration_set(self, simple):
        sub, ctx, loop, ev = simple
        term = OnHomeRef("a", (RangeSub(E(0), E(15)), PointSub(LinExpr.var("j"))))
        from repro.cp.model import term_iteration_set

        s = term_iteration_set(term, ("j",), ctx)
        pts = s.bind({**ev, PDIM(0): 0, PDIM(1): 1}).points()
        # any i exists in p0's block; j must be in p1's column block 8..15
        assert pts == {(j,) for j in range(8, 16)}

    def test_cp_key_ignores_undistributed_subscripts(self, simple):
        """§5: same data partition => same choice, even with different
        subscripts in undistributed dims."""
        sub, ctx, loop, ev = simple
        t1 = OnHomeRef("w", (PointSub(LinExpr.var("i")),))
        # w aligned t(i,*): only dim 0 matters
        t2 = OnHomeRef("w", (PointSub(LinExpr.var("i")),))
        key = cp_key(t1, ctx)
        assert key is not None and cp_key(t2, ctx) == key
        t3 = OnHomeRef("w", (PointSub(LinExpr.var("i") + 1),))
        assert cp_key(t3, ctx) != key

    def test_cp_key_matches_across_aligned_arrays(self, simple):
        sub, ctx, loop, ev = simple
        ta = OnHomeRef("a", (PointSub(E("i")), PointSub(E("j"))))
        tb = OnHomeRef("b", (PointSub(E("i")), PointSub(E("j"))))
        key = cp_key(ta, ctx)
        assert key is not None and cp_key(tb, ctx) == key

    def test_undistributed_array_has_no_key(self, simple):
        sub, ctx, loop, ev = simple
        t = OnHomeRef("zzz", (PointSub(E("i")),))
        assert cp_key(t, ctx) is None


class TestCPSelection:
    def test_owner_computes_wins_on_tie(self, simple):
        sub, ctx, loop, ev = simple
        cps = CPSelector(ctx, eval_params=ev).select(loop, ev)
        asg = [s for s in walk_stmts([loop]) if isinstance(s, Assign)][0]
        (term,) = cps[asg.sid].cp.terms
        assert term.array == "a"

    def test_no_distributed_refs_replicates(self):
        sub = parse_subroutine(
            """
      subroutine s(n)
      integer n, i
      double precision x(10)
      do i = 1, n
         x(i) = 1.0
      enddo
      end
"""
        )
        ctx = DistributionContext(sub, 1, {"n": 10})
        cps = CPSelector(ctx, eval_params={"n": 10}).select(sub.body[0], {"n": 10})
        asg = [s for s in walk_stmts(sub.body) if isinstance(s, Assign)][0]
        assert cps[asg.sid].cp.is_replicated

    def test_cost_prefers_comm_free_choice(self):
        """A statement writing a shifted element: owner-computes on the lhs
        avoids the write-back; reading CP would need one."""
        sub = parse_subroutine(
            """
      subroutine s(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx), b(0:nx)
chpf$ processors p(4)
chpf$ distribute a(block) onto p
chpf$ distribute b(block) onto p
      do i = 1, n - 2
         a(i) = b(i) + 1.0
      enddo
      end
"""
        )
        ev = {"n": 16}
        ctx = DistributionContext(sub, 4, ev)
        cps = CPSelector(ctx, eval_params=ev).select(sub.body[0], ev)
        asg = [s for s in walk_stmts(sub.body) if isinstance(s, Assign)][0]
        assert cps[asg.sid].cost == 0.0


class TestSubscriptTranslation:
    def test_mapping_shift(self):
        # def cv(j); use cv(j-1): use-only var j solves to j_def + 1
        m = subscript_mapping(
            (E("j"),), (E("ju") - 1,), {"ju"}
        )
        assert m == {"ju": E("j") + 1}

    def test_mapping_negated_var(self):
        m = subscript_mapping((E("j"),), (1 - E("ju"),), {"ju"})
        assert m == {"ju": 1 - E("j")}

    def test_unsolvable_skipped(self):
        m = subscript_mapping((E("j"),), (2 * E("ju"),), {"ju"})
        assert m == {}

    def test_two_vars_in_one_subscript_skipped(self):
        m = subscript_mapping((E("j"),), (E("a") + E("b"),), {"a", "b"})
        assert m == {}


class TestLoopDistribution:
    def _three_stmt_loop(self):
        sub = parse_subroutine(
            """
      subroutine s(n)
      integer n, i
      double precision a(0:100), b(0:100), c(0:100)
      do i = 1, n
         a(i) = 1.0
         b(i) = a(i) * 2.0
         c(i) = b(i) + 1.0
      enddo
      end
"""
        )
        return sub.body[0]

    def test_no_marks_no_split(self):
        loop = self._three_stmt_loop()
        deps = DependenceAnalyzer(loop, {"n": 10}).dependences()
        out = distribute_loop(loop, [], deps)
        assert out == [loop]

    def test_marked_pair_splits_minimally(self):
        loop = self._three_stmt_loop()
        deps = DependenceAnalyzer(loop, {"n": 10}).dependences()
        s1, s2, s3 = loop.body
        out = distribute_loop(loop, [(s2, s3)], deps)
        assert len(out) == 2
        assert [len(l.body) for l in out] == [2, 1]
        # order and identity preserved
        assert out[0].body == [s1, s2] and out[1].body == [s3]

    def test_same_scc_cannot_split(self):
        sub = parse_subroutine(
            """
      subroutine s(n)
      integer n, i
      double precision a(0:101), b(0:101)
      do i = 1, n
         a(i) = b(i-1)
         b(i) = a(i-1)
      enddo
      end
"""
        )
        loop = sub.body[0]
        deps = DependenceAnalyzer(loop, {"n": 10}).dependences()
        s1, s2 = loop.body
        out = distribute_loop(loop, [(s1, s2)], deps)
        assert out == [loop]  # recurrence: escalate outward instead


class TestPrivatization:
    def test_candidates_filter(self):
        sub = parse_subroutine(
            """
      subroutine s(n)
      integer n, i, j
      double precision w(0:100), v(0:100), a(0:100)
      do i = 1, n
         do j = 1, n
            w(j) = 1.0
         enddo
         do j = 1, n
            a(j) = w(j) + v(j)
         enddo
         do j = 1, n
            v(j) = a(j)
         enddo
      enddo
      end
"""
        )
        loop = sub.body[0]
        # w is written-then-read in-iteration; v is read before written
        assert check_privatizable(loop, "w")
        assert not check_privatizable(loop, "v")

    def test_scalar_privatizable(self):
        sub = parse_subroutine(
            """
      subroutine s(n)
      integer n, i
      double precision t, a(0:100)
      do i = 1, n
         t = i * 2.0
         a(i) = t
      enddo
      end
"""
        )
        assert check_privatizable(sub.body[0], "t")

    def test_write_only_is_trivially_privatizable(self):
        sub = parse_subroutine(
            """
      subroutine s(n)
      integer n, i
      double precision w(0:100)
      do i = 1, n
         w(i) = 1.0
      enddo
      end
"""
        )
        assert check_privatizable(sub.body[0], "w")


def test_loop_bounds_set_symbolic():
    sub = parse_subroutine(
        """
      subroutine s(n)
      integer n, i, j
      double precision a(0:100,0:100)
      do i = 1, n
         do j = i, n
            a(i,j) = 1.0
         enddo
      enddo
      end
"""
    )
    outer = sub.body[0]
    inner = outer.body[0]
    bounds = loop_bounds_set([outer, inner])
    pts = bounds.bind({"n": 4}).points()
    assert pts == {(i, j) for i in range(1, 5) for j in range(i, 5)}
