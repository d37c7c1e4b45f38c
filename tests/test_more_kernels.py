"""Additional NAS kernels through the full pipeline (beyond the figures)."""

import pytest

from repro.analysis import DependenceAnalyzer
from repro.codegen import compile_kernel
from repro.frontend import parse_source
from repro.ir import Assign, walk_stmts
from repro.ir.interp import Interpreter
from repro.isets.box import intersect_covers
from repro.nas import kernels


class TestExactRhs:
    """§8.1: three NEW loop nests in exact_rhs (one representative here)."""

    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_kernel(kernels.EXACT_RHS_SP, nprocs=4, params={"n": 17})

    def test_zero_communication(self, compiled):
        for _, plan in compiled.nest_plans:
            assert not plan.live_events()

    def test_matches_serial(self, compiled):
        scal = {"n": 17}
        prog = parse_source(kernels.EXACT_RHS_SP)
        fr = Interpreter(prog, params={"n": 17}).run("exact_rhs", scalars=scal)
        ref = fr.lookup("forcing")
        results = compiled.run(scal)
        for rid, A in enumerate(results):
            coords = compiled.grid.delinearize(rid)
            for e in compiled.ctx.owned_elements("forcing", coords):
                assert A["forcing"].get(e) == pytest.approx(ref.get(e), abs=1e-13)

    def test_multi_component_private_array(self, compiled):
        """ue/buf are rank-2 privatizable arrays (NAS uses ue(j,m))."""
        ue_defs = [
            s for s in walk_stmts(compiled.sub.body)
            if isinstance(s, Assign) and s.target_name == "ue"
        ]
        assert len(ue_defs) == 3
        for d in ue_defs:
            cp = compiled.cps[d.sid].cp
            assert not cp.is_replicated
            assert {t.array for t in cp.terms} == {"forcing"}


class TestLhsx:
    """Privatizables along the *undistributed* dimension: propagation must
    produce fully-local definitions (no replication needed at all)."""

    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_kernel(kernels.LHSX_SP, nprocs=4, params={"n": 17})

    def test_zero_communication(self, compiled):
        for _, plan in compiled.nest_plans:
            assert not plan.live_events()

    def test_no_replication_along_x(self, compiled):
        """Unlike lhsy, ranks share no cv iterations: the x dimension is not
        distributed, so each (j,k) owner computes the whole line alone."""
        g0 = compiled.bind_guards(0)
        g3 = compiled.bind_guards(3)  # opposite grid corner
        cv_def = next(
            s for s in walk_stmts(compiled.sub.body)
            if isinstance(s, Assign) and s.target_name == "cv"
        )
        pts0, pts3 = g0[cv_def.sid], g3[cv_def.sid]
        assert pts0 and pts3
        assert intersect_covers(pts0, pts3) == ()

    def test_matches_serial(self, compiled):
        scal = {"n": 17, "c2": 0.4, "dx3": 0.2, "c1c5": 0.1, "dttx1": 0.3, "dttx2": 0.6}
        prog = parse_source(kernels.LHSX_SP)
        ref = Interpreter(prog, params={"n": 17}).run("lhsx", scalars=scal).lookup("lhs")
        results = compiled.run(scal)
        for rid, A in enumerate(results):
            coords = compiled.grid.delinearize(rid)
            for e in compiled.ctx.owned_elements("lhs", coords):
                assert A["lhs"].get(e) == pytest.approx(ref.get(e), abs=1e-13)


class TestAutomaticParallelismDetection:
    """§8.1: 'HPF INDEPENDENT directives are not used by the dHPF compiler
    to identify parallel loops because the compiler automatically detects
    parallelism in the original sequential loops.'"""

    def test_lhsy_outer_loops_parallel(self):
        sub = parse_source(kernels.LHSY_SP).get("lhsy")
        kloop = sub.body[0]
        # k loop carries no dependence once cv/rhoq/ru1 privatization is
        # accounted for; raw memory-based analysis still sees the temps,
        # so exclude them as a privatization-aware client would:
        deps = DependenceAnalyzer(kloop, {"n": 17}, ["cv", "rhoq", "ru1"]).dependences()
        assert not any(d.level == 1 for d in deps)

    def test_y_solve_j_loop_serial(self):
        sub = parse_source(kernels.Y_SOLVE_SP).get("y_solve")
        jloop = sub.body[0].body[0]
        deps = DependenceAnalyzer(jloop, {"n": 17, "m": 0}).dependences()
        assert any(d.level == 1 for d in deps)

    def test_y_solve_i_loop_parallel(self):
        sub = parse_source(kernels.Y_SOLVE_SP).get("y_solve")
        iloop = sub.body[0].body[0].body[0]
        deps = DependenceAnalyzer(iloop, {"n": 17, "m": 0}, ["fac1"]).dependences()
        assert not any(d.level == 1 for d in deps)
