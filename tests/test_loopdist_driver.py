"""The full §5 driver: grouping + selective distribution, deepest-outward."""


from repro.cp.loopdist import communication_sensitive_distribution
from repro.cp.select import CPSelector
from repro.distrib import DistributionContext
from repro.frontend import parse_source, parse_subroutine
from repro.ir import Assign, DoLoop, walk_stmts
from repro.nas import kernels


class TestDriver:
    def test_y_solve_original_untouched(self):
        sub = parse_source(kernels.Y_SOLVE_SP).get("y_solve")
        ev = {"n": 17, "m": 0}
        ctx = DistributionContext(sub, nprocs=4, params=ev)
        loops, res = communication_sensitive_distribution(
            sub.body[0], ctx, CPSelector(ctx, eval_params=ev), ev
        )
        assert len(loops) == 1
        assert res.all_localized()
        # body structure preserved: one j loop containing one i loop
        inner = [s for s in walk_stmts(loops) if isinstance(s, DoLoop)]
        assert len(inner) == 3

    def test_variant_distributes_inner_loop(self):
        sub = parse_source(kernels.Y_SOLVE_SP_VARIANT).get("y_solve")
        ev = {"n": 17, "m": 0}
        ctx = DistributionContext(sub, nprocs=4, params=ev)
        kloop = sub.body[0]
        loops, res = communication_sensitive_distribution(
            kloop, ctx, CPSelector(ctx, eval_params=ev), ev
        )
        # the i loop (deepest) splits into two; outer structure remains
        all_loops = [s for s in walk_stmts(loops) if isinstance(s, DoLoop)]
        i_loops = [l for l in all_loops if l.var == "i"]
        assert len(i_loops) == 2
        total_stmts = sum(
            1 for s in walk_stmts(loops) if isinstance(s, Assign)
        )
        assert total_stmts == 10

    def test_mixed_distributed_and_replicated_statements(self):
        """Statements touching no distributed array never block grouping."""
        sub = parse_subroutine(
            """
      subroutine s(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx), b(0:nx), lc(0:nx)
chpf$ processors p(4)
chpf$ distribute a(block) onto p
chpf$ distribute b(block) onto p
      do i = 1, n - 2
         lc(i) = i * 2.0d0
         a(i) = lc(i)
         b(i) = a(i) + 1.0d0
      enddo
      end
"""
        )
        ev = {"n": 16}
        ctx = DistributionContext(sub, nprocs=4, params=ev)
        loops, res = communication_sensitive_distribution(
            sub.body[0], ctx, CPSelector(ctx, eval_params=ev), ev
        )
        assert len(loops) == 1
        assert res.all_localized()
