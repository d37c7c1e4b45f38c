"""SPMD code generation tests: compiled kernels vs the serial interpreter."""

import numpy as np
import pytest

from repro.codegen import CodegenUnsupported, compile_kernel
from repro.frontend import parse_source
from repro.ir.interp import FortranArray, Interpreter
from repro.nas import kernels

LHSY_SCALARS = {"n": 17, "c2": 0.5, "dy3": 0.1, "c1c5": 0.2, "dtty1": 0.3, "dtty2": 0.4}


@pytest.fixture(scope="module")
def lhsy_serial():
    prog = parse_source(kernels.LHSY_SP)
    fr = Interpreter(prog, params={"n": 17}).run("lhsy", scalars=LHSY_SCALARS)
    return fr.lookup("lhs")


@pytest.fixture(scope="module")
def lhsy_kernel():
    return compile_kernel(kernels.LHSY_SP, nprocs=4, params={"n": 17})


class TestCompiledLhsy:
    def test_zero_live_communication(self, lhsy_kernel):
        """§4.1's guarantee, verified on the compiler's own output."""
        for _, plan in lhsy_kernel.nest_plans:
            assert not plan.live_events()

    def test_owned_regions_match_serial(self, lhsy_kernel, lhsy_serial):
        results = lhsy_kernel.run(LHSY_SCALARS)
        for rid, A in enumerate(results):
            coords = lhsy_kernel.grid.delinearize(rid)
            pts = lhsy_kernel.ctx.owned_elements("lhs", coords)
            assert pts
            for e in pts:
                assert A["lhs"].get(e) == pytest.approx(lhsy_serial.get(e), abs=1e-13)

    def test_generated_source_structure(self):
        ck = compile_kernel(
            kernels.LHSY_SP, nprocs=4, params={"n": 17}, backend="scalar"
        )
        src = ck.python_source()
        assert "def node_program(rank, A, S, K):" in src
        assert "K.guard(G," in src  # CP guards realized
        assert "K.exec_comm(rank, A, 0, 'read')" in src
        assert "A['cv'].set(" in src
        compile(src, "<check>", "exec")  # must be valid Python

    def test_generated_vector_source_structure(self, lhsy_kernel):
        src = lhsy_kernel.python_source()
        assert "backend vector" in src
        assert "def node_program(rank, A, S, K):" in src
        assert "K.exec_comm(rank, A, 0, 'read')" in src
        assert "G.boxes(" in src  # guards realized as box covers
        assert "K.guard(" not in src  # ... not as per-point tests
        assert ".vset((" in src  # slice stores instead of scalar sets
        compile(src, "<check>", "exec")  # must be valid Python
        # the whole k, i, j nest of lhsy vectorizes (NEW arrays expanded)
        reports = list(lhsy_kernel.vector_report.values())
        assert reports and all(r.status == "vector" for r in reports)

    def test_guards_partition_work(self, lhsy_kernel):
        """Each lhs element is written by exactly its owner; boundary cv
        iterations appear on two ranks (partial replication)."""
        g0 = lhsy_kernel.bind_guards(0)
        g1 = lhsy_kernel.bind_guards(2)  # neighbor in the j grid dimension
        cv_sid = None
        from repro.ir import Assign, walk_stmts

        for s in walk_stmts(lhsy_kernel.sub.body):
            if isinstance(s, Assign) and s.target_name == "cv":
                cv_sid = s.sid
        assert cv_sid is not None
        pts0, pts1 = g0[cv_sid], g1[cv_sid]
        assert pts0 and pts1
        shared = pts0 & pts1
        assert shared  # the replicated boundary computations
        js = {p[2] for p in shared}
        assert js == {8, 9}


class TestCompiledComputeRhs:
    def test_localize_leaves_only_u_reads(self):
        ck = compile_kernel(kernels.COMPUTE_RHS_BT, nprocs=8, params={"n": 13})
        live = [e for _, p in ck.nest_plans for e in p.live_events()]
        assert live, "expected the pre-loop u boundary communication"
        assert {e.array for e in live} == {"u"}
        assert all(e.placement.hoisted for e in live)

    def test_real_data_transport(self):
        """Seed u only where owned: the generated pre-nest communication
        must transport the boundary values or results diverge."""
        ck = compile_kernel(kernels.COMPUTE_RHS_BT, nprocs=8, params={"n": 13})
        rng = np.random.default_rng(7)
        u_full = rng.random((13, 13, 13, 5)) + 1.0
        rhs_full = rng.random((13, 13, 13, 5))

        # serial reference
        prog = parse_source(kernels.COMPUTE_RHS_BT)
        u_s = FortranArray((13, 13, 13, 5), (0, 0, 0, 1))
        rhs_s = FortranArray((13, 13, 13, 5), (0, 0, 0, 1))
        u_s.data[:] = u_full
        rhs_s.data[:] = rhs_full
        Interpreter(prog, params={"n": 13}).run(
            "compute_rhs", args={"u": u_s, "rhs": rhs_s},
            scalars={"n": 13, "c1": 0.3, "c2": 0.2},
        )

        def init(rid, A):
            coords = ck.grid.delinearize(rid)
            # u: OWNED elements only (ghosts must arrive via messages)
            for e in ck.ctx.owned_elements("u", coords):
                A["u"].set(e, u_full[e[0], e[1], e[2], e[3] - 1])
            for e in ck.ctx.owned_elements("rhs", coords):
                A["rhs"].set(e, rhs_full[e[0], e[1], e[2], e[3] - 1])

        results = ck.run({"n": 13, "c1": 0.3, "c2": 0.2}, init=init)
        for rid, A in enumerate(results):
            coords = ck.grid.delinearize(rid)
            for e in ck.ctx.owned_elements("rhs", coords):
                assert A["rhs"].get(e) == pytest.approx(rhs_s.get(e), abs=1e-13), (
                    rid, e
                )


class TestCodegenLimits:
    def test_calls_rejected(self):
        with pytest.raises(CodegenUnsupported, match="CALL"):
            compile_kernel(
                """
      subroutine s(n)
      integer n
      double precision a(8)
chpf$ distribute a(block)
      call helper(a)
      end
""",
                nprocs=2,
            )

    def test_pipelined_kernel_rejected(self):
        with pytest.raises(CodegenUnsupported, match="pipelined"):
            compile_kernel(kernels.Y_SOLVE_SP, nprocs=4, params={"n": 17, "m": 0})

    def test_multi_unit_rejected(self):
        with pytest.raises(CodegenUnsupported, match="single unit"):
            compile_kernel(kernels.BT_SOLVE_CELL, nprocs=4, params={"n": 13})

    def test_grid_size_must_match(self):
        with pytest.raises(ValueError):
            compile_kernel(kernels.LHSY_SP, nprocs=5, params={"n": 17})


class TestGeneratedHelpers:
    def test_fortran_division(self):
        from repro.codegen.spmd import CompiledKernel as K

        assert K.fdiv(7, 2) == 3
        assert K.fdiv(-7, 2) == -3  # truncation toward zero
        assert K.fdiv(7.0, 2) == 3.5

    def test_do_range(self):
        from repro.codegen.spmd import CompiledKernel as K

        assert list(K.do_range(1, 5)) == [1, 2, 3, 4, 5]
        assert list(K.do_range(5, 1, -2)) == [5, 3, 1]
        assert list(K.do_range(3, 2)) == []
