"""Qualitative reproduction of the paper's figure examples (§4-§6).

Each test compiles the corresponding mini-Fortran kernel from
``repro.nas.kernels`` and checks the compiler reaches the decision the
paper describes.
"""

import pytest

from repro.analysis.dependence import DependenceAnalyzer
from repro.cp import CPGrouper, distribute_loop, propagate_new_cps
from repro.cp.interproc import InterproceduralCP
from repro.cp.localize import localized_comm_eliminated, propagate_localize_cps
from repro.cp.model import cp_iteration_set
from repro.cp.nest import NestInfo
from repro.cp.select import CPSelector
from repro.distrib import DistributionContext, PDIM
from repro.frontend import parse_source
from repro.ir import Assign, CallStmt, DoLoop, walk_stmts
from repro.nas import kernels


def assigns(loop):
    return [s for s in walk_stmts([loop]) if isinstance(s, Assign)]


class TestFig41PrivatizableCPs:
    """§4.1: NEW arrays cv/rhoq in SP's lhsy."""

    @pytest.fixture()
    def setup(self):
        sub = parse_source(kernels.LHSY_SP).get("lhsy")
        ev = {"n": 17}
        ctx = DistributionContext(sub, nprocs=4, params=ev)
        kloop = sub.body[0]
        sel = CPSelector(ctx, eval_params=ev)
        cps = sel.select(kloop)
        nest = NestInfo(kloop, ev)
        return sub, ctx, kloop, sel, cps, nest, ev

    def test_base_selection_is_owner_computes_for_lhs(self, setup):
        _, ctx, kloop, _, cps, _, _ = setup
        for a in assigns(kloop):
            if a.target_name == "lhs":
                (term,) = cps[a.sid].cp.terms
                assert term.array == "lhs"

    def test_new_propagation_translates_subscripts(self, setup):
        _, ctx, kloop, _, cps, nest, _ = setup
        cps = propagate_new_cps(kloop, ["cv", "rhoq"], cps, nest, ctx)
        cv_def = next(a for a in assigns(kloop) if a.target_name == "cv")
        terms = {str(t).replace(" ", "") for t in cps[cv_def.sid].cp.terms}
        # the paper's translation: ON_HOME lhs(i,j+1,k,2) and lhs(i,j-1,k,4)
        assert any("j+1" in t for t in terms), terms
        assert any("j-1" in t for t in terms), terms

    def test_boundary_partially_replicated(self, setup):
        _, ctx, kloop, _, cps, nest, ev = setup
        cps = propagate_new_cps(kloop, ["cv", "rhoq"], cps, nest, ctx)
        cv_def = next(a for a in assigns(kloop) if a.target_name == "cv")
        bounds = nest.bounds_of(cv_def).bind(ev)
        iters = cp_iteration_set(cps[cv_def.sid].cp, nest.dims_of(cv_def), bounds, ctx)
        js0 = {p[2] for p in iters.bind({PDIM(0): 0, PDIM(1): 0}).points()}
        js1 = {p[2] for p in iters.bind({PDIM(0): 1, PDIM(1): 0}).points()}
        # block size ceil(17/2) = 9: proc 0 owns j in 0..8, proc 1 j in 9..16
        assert js0 == set(range(0, 10))  # + boundary 9
        assert js1 == set(range(8, 17))  # + boundary 8
        # exactly the two boundary values are replicated
        assert js0 & js1 == {8, 9}

    def test_privatizable_scalar_propagated(self, setup):
        _, ctx, kloop, _, cps, nest, _ = setup
        cps = propagate_new_cps(kloop, ["cv", "rhoq"], cps, nest, ctx)
        ru1_def = next(a for a in assigns(kloop) if a.target_name == "ru1")
        assert not cps[ru1_def.sid].cp.is_replicated
        assert cps[ru1_def.sid].source == "new"

    def test_no_communication_for_private_arrays(self, setup):
        """The §4.1 guarantee: every cv/rhoq element read on a processor was
        computed on that processor."""
        _, ctx, kloop, _, cps, nest, ev = setup
        cps = propagate_new_cps(kloop, ["cv", "rhoq"], cps, nest, ctx)
        for var in ("cv", "rhoq"):
            assert localized_comm_eliminated(
                kloop, var, cps, ctx, ev, {PDIM(0): 0, PDIM(1): 0}
            )
            assert localized_comm_eliminated(
                kloop, var, cps, ctx, ev, {PDIM(0): 1, PDIM(1): 1}
            )


class TestFig42Localize:
    """§4.2: LOCALIZE of the reciprocal arrays in BT's compute_rhs."""

    @pytest.fixture()
    def setup(self):
        sub = parse_source(kernels.COMPUTE_RHS_BT).get("compute_rhs")
        ev = {"n": 13}
        ctx = DistributionContext(sub, nprocs=8, params=ev)
        scope = sub.body[0]  # the one-trip loop
        assert isinstance(scope, DoLoop) and scope.var == "onetrip"
        sel = CPSelector(ctx, eval_params=ev)
        cps = sel.select(scope)
        localize = scope.directive.localize_vars
        cps = propagate_localize_cps(scope, localize, cps, ctx, ev)
        return sub, ctx, scope, cps, ev, localize

    def test_directive_parsed(self, setup):
        _, _, scope, _, _, localize = setup
        assert set(localize) == {"rho_i", "us", "vs", "ws", "square", "qs"}

    def test_def_cp_includes_owner_and_uses(self, setup):
        _, ctx, scope, cps, _, _ = setup
        rho_def = next(a for a in assigns(scope) if a.target_name == "rho_i")
        cp = cps[rho_def.sid].cp
        assert cps[rho_def.sid].source == "localize"
        arrays = [t.array for t in cp.terms]
        assert "rho_i" in arrays  # owner-computes term retained
        assert "rhs" in arrays  # translated use terms
        shifted = {str(t).replace(" ", "") for t in cp.terms if t.array == "rhs"}
        # xi/eta/zeta-direction ±1 translations present
        assert any("i+1" in t for t in shifted)
        assert any("i-1" in t for t in shifted)
        assert any("j+1" in t for t in shifted)
        assert any("k-1" in t for t in shifted)

    @pytest.mark.parametrize("var", ["rho_i", "us", "vs", "ws", "square", "qs"])
    def test_boundary_comm_eliminated(self, setup, var):
        _, ctx, scope, cps, ev, _ = setup
        rep = {PDIM(0): 0, PDIM(1): 1, PDIM(2): 0}
        assert localized_comm_eliminated(scope, var, cps, ctx, ev, rep)


class TestFig51LoopDistribution:
    """§5: communication-sensitive CP grouping and selective distribution."""

    def _prepare(self, src):
        sub = parse_source(src).get("y_solve")
        ev = {"n": 17, "m": 0}
        ctx = DistributionContext(sub, nprocs=4, params=ev)
        kloop = sub.body[0]
        jloop = kloop.body[0]
        iloop = jloop.body[0]
        sel = CPSelector(ctx, eval_params=ev)
        return sub, ctx, kloop, iloop, sel, ev

    def test_original_kernel_fully_localized(self):
        _, ctx, kloop, iloop, sel, ev = self._prepare(kernels.Y_SOLVE_SP)
        grouper = CPGrouper(ctx, sel)
        res = grouper.group(iloop, params=ev)
        assert res.all_localized()
        # all statements with distributed refs end up in one group with a
        # single common choice
        roots = {res.group_of[s.sid] for s in assigns(iloop)}
        assert len(roots) == 1
        # and the common CP is the owner of the j-row (ON_HOME ...(i,j,k,*))
        a0 = assigns(iloop)[0]
        (term,) = res.cps[a0.sid].cp.terms
        key = str(term).replace(" ", "")
        assert "j" in key and "j+1" not in key and "j+2" not in key

    def test_variant_forces_marked_pair(self):
        _, ctx, kloop, iloop, sel, ev = self._prepare(kernels.Y_SOLVE_SP_VARIANT)
        grouper = CPGrouper(ctx, sel)
        res = grouper.group(iloop, params=ev)
        assert not res.all_localized()

    def test_variant_distributes_into_two_loops(self):
        _, ctx, kloop, iloop, sel, ev = self._prepare(kernels.Y_SOLVE_SP_VARIANT)
        grouper = CPGrouper(ctx, sel)
        res = grouper.group(iloop, params=ev)
        deps = DependenceAnalyzer(iloop, ev).dependences()
        new_loops = distribute_loop(iloop, res.marked_pairs, deps)
        # the paper: 2 new loops, not the 10 of maximal distribution
        assert len(new_loops) == 2
        total = sum(len(l.body) for l in new_loops)
        assert total == len(iloop.body)

    def test_statement_identity_preserved_across_distribution(self):
        _, ctx, kloop, iloop, sel, ev = self._prepare(kernels.Y_SOLVE_SP_VARIANT)
        before = {s.sid for s in assigns(iloop)}
        grouper = CPGrouper(ctx, sel)
        res = grouper.group(iloop, params=ev)
        deps = DependenceAnalyzer(iloop, ev).dependences()
        new_loops = distribute_loop(iloop, res.marked_pairs, deps)
        after = {s.sid for l in new_loops for s in assigns(l)}
        assert before == after


class TestFig61Interprocedural:
    """§6: bottom-up CP selection through calls to leaf routines."""

    @pytest.fixture()
    def setup(self):
        prog = parse_source(kernels.BT_SOLVE_CELL)
        ev = {"n": 13}
        ctx = DistributionContext(prog.get("x_solve_cell"), nprocs=4, params=ev)
        ipa = InterproceduralCP(prog, {"x_solve_cell": ctx}, ev)
        call_cps = ipa.run()
        return prog, ctx, ipa, call_cps

    def test_bottom_up_order(self, setup):
        prog, *_ = setup
        names = [u.name for u in prog.bottom_up_order()]
        assert names.index("matvec_sub") < names.index("x_solve_cell")

    def test_entry_cp_anchors_output_dummy(self, setup):
        prog, ctx, ipa, _ = setup
        assert ipa.entry_cps["matvec_sub"].anchor_arg == "bvec"
        assert ipa.entry_cps["matmul_sub"].anchor_arg == "cblock"
        assert ipa.entry_cps["binvcrhs"].anchor_arg == "r"

    def test_call_site_cps_match_paper(self, setup):
        prog, ctx, ipa, call_cps = setup
        calls = [s for s in prog.get("x_solve_cell").statements() if isinstance(s, CallStmt)]
        by_name = {c.name: c for c in calls}
        # matvec_sub -> ON_HOME rhs(1,i,j,k); matmul_sub -> ON_HOME lhs(2,...);
        # binvcrhs -> ON_HOME rhs(1,i,j,k)
        mv = call_cps[by_name["matvec_sub"].sid]
        (t,) = mv.terms
        assert t.array == "rhs"
        mm = call_cps[by_name["matmul_sub"].sid]
        (t2,) = mm.terms
        assert t2.array == "lhs"
        bi = call_cps[by_name["binvcrhs"].sid]
        (t3,) = bi.terms
        assert t3.array == "rhs"

    def test_undistributed_actual_replicates(self):
        prog = parse_source(
            """
      subroutine leaf(x)
      double precision x(5)
      integer q
      do q = 1, 5
         x(q) = 1.0
      enddo
      end

      subroutine top(n)
      integer n, i
      double precision w(5, 10)
      do i = 1, n
         call leaf(w(1, i))
      enddo
      end
"""
        )
        ctx = DistributionContext(prog.get("top"), nprocs=4)
        ipa = InterproceduralCP(prog, {"top": ctx})
        cps = ipa.run()
        call = prog.get("top").calls()[0]
        assert cps[call.sid].is_replicated
