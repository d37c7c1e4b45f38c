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
        # slice stores straight into the ndarray, lower bounds folded in
        # (lhs(0:n, 0:n, 0:n, 5): the fifth axis starts at 1)
        assert (
            "A['lhs'].data[_x1a:_x1b + (1), _x2a:_x2b + (1), _x0a:_x0b + (1), 0] = "
            in src
        )
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
        pts0, pts1 = g0.point_table(cv_sid), g1.point_table(cv_sid)
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


def _bench_sources():
    """The benchmark's kernels as ``(key, source, nprocs, params)``, the
    row table's compiled ones first (Figure 6.1's call tree apart)."""
    from repro.nas.classes import CLASSES
    from repro.nas.specs import kernel_specs

    rows = [(s.key, s.source, s.nprocs, s.params)
            for s in kernel_specs() if s.source]
    for cls in ("S", "W"):
        n = CLASSES[cls].problem_size
        rows.append((f"sp-rhs-scaled-{cls.lower()}@16",
                     kernels.scaled(kernels.COMPUTE_RHS_SP), 16,
                     {"n": n, "nx": n}))
    return rows


class TestEmittedText:
    """What the two backends emit, pinned."""

    #: SHA-256 prefixes of each scalar-backend node program pair (mpi +
    #: shmem): the scalar backend's text is fixed while the vector
    #: backend's subscripting changes
    SCALAR_TEXT = {
        "fig4.1": "3f749131815cba78",
        "fig4.2": "d6e2c2f8406976a4",
        "exact-rhs": "12a4a749029a00e4",
        "sp-exact-rhs-s": "3aeb61ba56e373c0",
        "sp-rhs-s": "09f8e14ef2196097",
        "bt-rhs-s": "5737eb49d172ac77",
        "sp-rhs-scaled-s@16": "f43399039d252e6a",
        "fig6.1": "9db18d7dc14a396d",
    }

    def test_scalar_node_programs_unchanged(self):
        import hashlib

        from repro.nas.specs import fig61_subroutine

        got = {}
        rows = _bench_sources() + [("fig6.1", fig61_subroutine(), 4, {"n": 13})]
        for key, source, nprocs, params in rows:
            if key not in self.SCALAR_TEXT:
                continue
            ck = compile_kernel(source, nprocs=nprocs, params=params,
                                backend="scalar")
            text = ck.python_source("mpi") + ck.python_source("shmem")
            got[key] = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert got == self.SCALAR_TEXT

    def test_vector_programs_index_ndarrays_directly(self):
        """No vector node program goes through a subscript helper: every
        array reference of a block is a plain ndarray subscript."""
        from repro.nas.specs import fig61_subroutine

        kernels_ = [compile_kernel(src, nprocs=p, params=params)
                    for _key, src, p, params in _bench_sources()]
        kernels_.append(compile_kernel(fig61_subroutine(), nprocs=4,
                                       params={"n": 13}))
        for ck in kernels_:
            for target in ("mpi", "shmem"):
                src = ck.python_source(target)
                assert "G.boxes(" in src
                for helper in ("K.fsl(", ".vget(", ".vset("):
                    assert helper not in src, (ck.sub.name, target, helper)


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
