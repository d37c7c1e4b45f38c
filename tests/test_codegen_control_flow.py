"""Code generation with control flow (IF inside guarded loops)."""

import numpy as np
import pytest

from repro.codegen import CodegenUnsupported, compile_kernel
from repro.compile.pipeline import analyze_source
from repro.frontend import parse_source
from repro.ir.interp import FortranArray, Interpreter

SRC = """
      subroutine clampit(n)
      integer n, i, j
      parameter (nx = 15)
      double precision a(0:nx, 0:nx), b(0:nx, 0:nx)
chpf$ processors p(2, 2)
chpf$ template t(0:nx, 0:nx)
chpf$ align a(i, j) with t(i, j)
chpf$ align b(i, j) with t(i, j)
chpf$ distribute t(block, block) onto p
      do i = 0, n - 1
         do j = 0, n - 1
            if (b(i, j) > 0.5d0) then
               a(i, j) = b(i, j) * 2.0d0
            else
               a(i, j) = 0.0d0
            endif
            if (a(i, j) > 1.8d0) a(i, j) = 1.8d0
         enddo
      enddo
      end
"""


class TestIfThenCodegen:
    @pytest.fixture(scope="class")
    def setup(self):
        n = 16
        rng = np.random.default_rng(4)
        b0 = rng.random((n, n))
        prog = parse_source(SRC)
        a_s = FortranArray((n, n), (0, 0))
        b_s = FortranArray((n, n), (0, 0))
        b_s.data[:] = b0
        Interpreter(prog, params={"n": n}).run(
            "clampit", args={"a": a_s, "b": b_s}, scalars={"n": n}
        )
        # an IF condition on a distributed array is a construct the
        # soundness screen does not prove local: the nest runs replicated
        ck = compile_kernel(SRC, nprocs=4, params={"n": n}, strict=False)
        return n, b0, a_s, ck

    def test_source_contains_branches(self, setup):
        n, *_, ck = setup
        with pytest.raises(CodegenUnsupported, match="IF condition reads"):
            compile_kernel(SRC, nprocs=4, params={"n": n})
        assert [d.nest for d in ck.fallback_diagnostics] == [0]
        src = ck.python_source()
        assert "if (A['b'].get((i, j,)) > 0.5)" in src
        assert "else:" in src

    def test_results_match_serial(self, setup):
        n, b0, a_s, ck = setup

        def init(rid, arrays):
            arrays["b"].data[:] = b0

        results = ck.run({"n": n}, init=init)
        for rid, arrays in enumerate(results):
            coords = ck.grid.delinearize(rid)
            for e in ck.ctx.owned_elements("a", coords):
                assert arrays["a"].get(e) == a_s.get(e)

    def test_no_communication(self, setup):
        # the analysis of the aligned nest itself (the compiled kernel
        # holds the replicated fallback's broadcast instead)
        n, *_ = setup
        for _, plan in analyze_source(SRC, 4, {"n": n}).nest_plans:
            assert not plan.live_events()
