"""Interprocedural CP selection: deeper scenarios beyond Figure 6.1."""


from repro.cp.interproc import InterproceduralCP
from repro.distrib import DistributionContext
from repro.frontend import parse_source


def build(src, units_with_dist, nprocs=4, params=None):
    prog = parse_source(src)
    ctxs = {
        name: DistributionContext(prog.get(name), nprocs, params or {})
        for name in units_with_dist
    }
    ipa = InterproceduralCP(prog, ctxs, params or {})
    return prog, ipa, ipa.run()


MULTI_CALLER = """
      subroutine scale5(v)
      double precision v(5)
      integer q
      do q = 1, 5
         v(q) = v(q) * 2.0d0
      enddo
      end

      subroutine user_a(n)
      integer n, i
      parameter (nx = 15)
      double precision a(5, 0:nx)
chpf$ processors p(4)
chpf$ template t(0:nx)
chpf$ align a(m, i) with t(i)
chpf$ distribute t(block) onto p
      do i = 1, n - 2
         call scale5(a(1, i))
      enddo
      end

      subroutine user_b(n)
      integer n, i
      parameter (nx = 15)
      double precision b(5, 0:nx)
chpf$ processors q(4)
chpf$ template t2(0:nx)
chpf$ align b(m, i) with t2(i)
chpf$ distribute t2(block) onto q
      do i = 1, n - 2
         call scale5(b(1, i))
      enddo
      end
"""


class TestMultipleCallers:
    def test_one_summary_serves_both_callers(self):
        prog, ipa, cps = build(MULTI_CALLER, ["user_a", "user_b"], params={"n": 16})
        assert ipa.entry_cps["scale5"].anchor_arg == "v"
        calls = {
            u: prog.get(u).calls()[0] for u in ("user_a", "user_b")
        }
        (ta,) = cps[calls["user_a"].sid].terms
        (tb,) = cps[calls["user_b"].sid].terms
        assert ta.array == "a"
        assert tb.array == "b"
        # the anchors carry each caller's own subscripts
        assert str(ta.subs[1]) == "i"
        assert str(tb.subs[1]) == "i"


CHAIN = """
      subroutine leaf(v)
      double precision v(5)
      integer q
      do q = 1, 5
         v(q) = 1.0d0
      enddo
      end

      subroutine middle(w)
      double precision w(5)
      call leaf(w)
      end

      subroutine top(n)
      integer n, i
      parameter (nx = 15)
      double precision a(5, 0:nx)
chpf$ processors p(4)
chpf$ template t(0:nx)
chpf$ align a(m, i) with t(i)
chpf$ distribute t(block) onto p
      do i = 1, n - 2
         call middle(a(1, i))
      enddo
      end
"""


class TestCallChains:
    def test_non_leaf_summary_via_written_dummy(self):
        """middle writes nothing itself; its summary must come from... it
        has no written dummy, so no entry CP — the call in top replicates.
        (dHPF would propagate through the chain; our one-level summary is
        conservative and documented.)"""
        prog, ipa, cps = build(CHAIN, ["top"], params={"n": 16})
        assert "leaf" in ipa.entry_cps
        # middle assigns no array dummy directly -> no summary
        assert "middle" not in ipa.entry_cps
        call = prog.get("top").calls()[0]
        assert cps[call.sid].is_replicated  # conservative, correct

    def test_bottom_up_visits_all(self):
        prog, ipa, cps = build(CHAIN, ["top"], params={"n": 16})
        order = [u.name for u in prog.bottom_up_order()]
        assert order.index("leaf") < order.index("middle") < order.index("top")


class TestAnchorSelection:
    def test_last_written_dummy_wins(self):
        src = """
      subroutine two_out(x, y)
      double precision x(5), y(5)
      integer q
      do q = 1, 5
         x(q) = 1.0d0
         y(q) = 2.0d0
      enddo
      end

      subroutine top(n)
      integer n, i
      parameter (nx = 15)
      double precision a(5, 0:nx), b(5, 0:nx)
chpf$ processors p(4)
chpf$ template t(0:nx)
chpf$ align a(m, i) with t(i)
chpf$ align b(m, i) with t(i)
chpf$ distribute t(block) onto p
      do i = 1, n - 2
         call two_out(a(1, i), b(1, i))
      enddo
      end
"""
        prog, ipa, cps = build(src, ["top"], params={"n": 16})
        # Fortran convention: outputs last -> y anchors the summary
        assert ipa.entry_cps["two_out"].anchor_arg == "y"
        call = prog.get("top").calls()[0]
        (term,) = cps[call.sid].terms
        assert term.array == "b"

    def test_scalar_only_callee_has_no_summary(self):
        src = """
      subroutine noop(x)
      double precision x
      x = x + 1.0d0
      end

      subroutine top(n)
      integer n
      double precision v
      call noop(v)
      end
"""
        prog, ipa, cps = build(src, [], params={})
        assert "noop" not in ipa.entry_cps
