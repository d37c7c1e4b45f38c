"""Graceful degradation: lenient compilation, fallbacks, budgets, and the
strict/lenient contract (degradation never regresses the analyzable path)."""

import numpy as np
import pytest

from repro.codegen import CodegenUnsupported, compile_kernel
from repro.diag import (
    E_PARSE,
    I_FALLBACK,
    W_BUDGET,
    CompileError,
    DiagnosticSink,
    SourceSpan,
)
from repro.eval.fuzz import _mpi_mismatch, _serial_reference, _shmem_mismatch
from repro.isets import IsetBudget
from repro.nas import kernels

NONAFFINE = """
      program deg
      parameter (n = 16)
      real a(n), b(n)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ distribute b(block) onto p
      do i = 1, n
         a(i) = i * 0.5
      enddo
      do i = 1, n
         b(mod(3*i, n) + 1) = a(i) + 1.0
      enddo
      end
"""

TWO_BAD = """
      program bad
      integer i
      i = +
      j = 1 2
      end
"""


class TestLenientDegradation:
    def test_strict_mode_never_emits_fallbacks(self):
        # strict either compiles exactly or raises; what lenient degrades
        # with an I-FALLBACK, strict refuses with the same reason
        sink = DiagnosticSink(strict=True)
        with pytest.raises(CodegenUnsupported, match="non-affine subscript"):
            compile_kernel(NONAFFINE, nprocs=4, sink=sink)
        assert sink.fallbacks() == []

    def test_lenient_compiles_and_marks_fallback(self):
        k = compile_kernel(NONAFFINE, nprocs=4, strict=False)
        assert k.degraded_nests, "non-affine nest should degrade"
        fallbacks = k.fallback_diagnostics
        assert fallbacks and all(d.code == I_FALLBACK for d in fallbacks)
        assert any("replicated execution" in d.message for d in fallbacks)
        # the degraded statements carry source="fallback" CPs
        marked = [scp for scp in k.cps.values() if scp.source == "fallback"]
        assert marked and all(scp.cp.is_replicated for scp in marked)

    def test_degraded_results_match_serial_bitwise(self):
        ref = _serial_reference(NONAFFINE)
        k = compile_kernel(NONAFFINE, nprocs=4, strict=False)
        shared = k.run_shmem({})
        for name, want in ref.items():
            got = shared[name].data
            assert np.array_equal(got, want), name

    def test_mpi_owned_elements_match_serial(self):
        ref = _serial_reference(NONAFFINE)
        k = compile_kernel(NONAFFINE, nprocs=4, strict=False)
        per_rank = k.run({})
        for name in ("a", "b"):
            want = ref[name]
            for coords, arrays in enumerate(per_rank):
                arr = arrays[name]
                for el in k.ctx.owned_elements(name, (coords,)):
                    assert arr.data[arr._index(el)] == want[arr._index(el)]

    def test_whole_program_fallback_still_correct(self):
        # grid size mismatch: the distributed build fails, so the driver
        # strips directives and compiles a fully replicated program
        k = compile_kernel(NONAFFINE, nprocs=2, strict=False)
        assert any(
            "whole-program replicated fallback" in d.message
            for d in k.fallback_diagnostics
        )
        ref = _serial_reference(NONAFFINE)
        shared = k.run_shmem({})
        for name, want in ref.items():
            assert np.array_equal(shared[name].data, want), name


class TestPanicModeErrors:
    def test_lenient_bundles_all_syntax_errors(self):
        with pytest.raises(CompileError) as ei:
            compile_kernel(TWO_BAD, nprocs=1, strict=False)
        errs = [d for d in ei.value.diagnostics if d.code == E_PARSE]
        assert len(errs) >= 2, "panic-mode recovery should report both errors"
        for d in errs:
            assert d.span is not None and d.span.lineno > 0

    def test_lenient_never_raises_untyped(self):
        # even garbage input must surface as a typed CompileError
        for src in (TWO_BAD, "      program p\n      do i = 1,\n      end\n"):
            with pytest.raises((CompileError, CodegenUnsupported, ValueError)):
                compile_kernel(src, nprocs=1, strict=False)


class TestResourceBudget:
    def test_tiny_budget_trips_to_fallback(self):
        budget = IsetBudget(max_ops=5, max_disjuncts=48)
        k = compile_kernel(
            kernels.EXACT_RHS_SP, nprocs=4, params={"n": 17},
            strict=False, budget=budget,
        )
        b = budget.as_dict()
        assert b["budget_trips"] >= 1 and b["budget_tripped"]
        warns = [d for d in k.diagnostics if d.code == W_BUDGET]
        assert warns, "budget trip should emit W-BUDGET"
        assert k.fallback_diagnostics, "tripped nest should degrade"

    def test_default_budget_reported_untripped(self):
        k = compile_kernel(
            kernels.EXACT_RHS_SP, nprocs=4, params={"n": 17}, strict=False
        )
        b = k.budget.as_dict()
        assert b["budget_tripped"] is None
        assert b["budget_ops"] > 0 and b["budget_peak_disjuncts"] > 0


class TestNoRegression:
    """Acceptance: every kernel the strict path can compile must compile
    leniently with ZERO fallbacks — degradation never regresses the
    analyzable path (paper kernels + NAS SP/BT class-S building blocks)."""

    CASES = [
        ("lhsy_sp", kernels.LHSY_SP, 4, {"n": 17}),
        ("lhsx_sp", kernels.LHSX_SP, 4, {"n": 17}),
        ("compute_rhs_sp", kernels.COMPUTE_RHS_SP, 4, {"n": 17}),
        ("compute_rhs_bt", kernels.COMPUTE_RHS_BT, 8, {"n": 13}),
        ("exact_rhs_sp", kernels.EXACT_RHS_SP, 4, {"n": 17}),
        ("fig4.2", kernels.PAPER_KERNELS["fig4.2"], 8, {"n": 13}),
    ]

    @pytest.mark.parametrize("name,src,np_,params", CASES,
                             ids=[c[0] for c in CASES])
    def test_strict_kernels_have_zero_fallbacks(self, name, src, np_, params):
        compile_kernel(src, nprocs=np_, params=params)  # must not raise
        k = compile_kernel(src, nprocs=np_, params=params, strict=False)
        assert k.fallback_diagnostics == [], name
        assert not k.degraded_nests

    def test_wavefront_kernel_degrades_instead_of_raising(self):
        src = kernels.Y_SOLVE_SP
        with pytest.raises(CodegenUnsupported, match="pipelined"):
            compile_kernel(src, nprocs=4, params={"n": 17})
        k = compile_kernel(src, nprocs=4, params={"n": 17}, strict=False)
        assert k.fallback_diagnostics

    def test_multi_unit_kernel_inlines_leniently(self):
        src = kernels.BT_SOLVE_CELL
        with pytest.raises(CodegenUnsupported):
            compile_kernel(src, nprocs=4, params={"n": 13})
        k = compile_kernel(src, nprocs=4, params={"n": 13}, strict=False)
        assert any("inlined" in d.message for d in k.fallback_diagnostics)
        assert not k.degraded_nests


class TestStrictTypedErrors:
    def test_runtime_scalar_bound_raises_typed(self):
        src = (
            "      program p\n"
            "      parameter (n = 8)\n"
            "      real a(n)\n"
            "      integer m\n"
            "!hpf$ processors pr(2)\n"
            "!hpf$ distribute a(cyclic) onto pr\n"
            "      m = 6\n"
            "      do i = 1, m\n"
            "         a(i) = i * 2.0\n"
            "      enddo\n"
            "      end\n"
        )
        with pytest.raises((CompileError, CodegenUnsupported, ValueError)):
            compile_kernel(src, nprocs=2)
        # and leniently it degrades but runs correctly
        k = compile_kernel(src, nprocs=2, strict=False)
        ref = _serial_reference(src)
        shared = k.run_shmem({})
        assert np.array_equal(shared["a"].data, ref["a"])


_GAP_HEADER = """
      program gap
      parameter (n = 16)
      real a(n), b(n), c(n)
      integer m
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ distribute b(block) onto p
      do i = 1, n
         b(i) = i * 0.5
      enddo
"""

#: constructs strict used to compile silently wrong (or to a kernel whose
#: first run died on an untyped KeyError) while lenient degraded them:
#: name -> (body after the nest that fills b, the screen's reason)
_GAPS = {
    "toplevel": (
        "      a(1) = b(14)\n",
        "top-level statement touches distributed array 'b'",
    ),
    "partitioned-write": (
        "      do i = 1, n\n"
        "         c(i) = b(i) + 1.5\n"
        "      enddo\n"
        "      do i = 1, n - 1\n"
        "         a(i) = c(n - i)\n"
        "      enddo\n",
        "partitioned write to undistributed array 'c'",
    ),
    "shared-recurrence": (
        "      do i = 2, n\n"
        "         c(i) = b(i) + c(i - 1)\n"
        "      enddo\n",
        "partitioned write to undistributed array 'c'",
    ),
    "runtime-bound": (
        "      m = 7\n"
        "      do i = 1, m\n"
        "         a(i) = b(i) + 1.5\n"
        "      enddo\n",
        "loop bound uses runtime scalar 'm'",
    ),
}


class TestOneVerdict:
    """Strict and lenient run the same soundness screen: what one degrades
    the other refuses, at compile time, with the same reason."""

    @pytest.mark.parametrize("name", list(_GAPS))
    def test_strict_refuses_what_lenient_degrades(self, name):
        body, reason = _GAPS[name]
        src = _GAP_HEADER + body + "      end\n"
        with pytest.raises(CodegenUnsupported) as ei:
            compile_kernel(src, nprocs=4)
        assert str(ei.value) == reason
        ref = _serial_reference(src)
        for backend in ("scalar", "vector"):
            k = compile_kernel(src, nprocs=4, strict=False, backend=backend)
            assert [d.message.rsplit(": ", 1)[1] for d in k.fallback_diagnostics
                    ] == [reason]
            assert _shmem_mismatch(k, k.run_shmem({}), ref, backend) is None
            assert _mpi_mismatch(k, k.run({}), ref, backend) is None
            # every rank of the degraded (or stripped) program holds the
            # serial values of the arrays that are not distributed there
            for arrays in k.run({}):
                for name_, want in ref.items():
                    if not k.ctx.is_distributed(name_):
                        assert np.array_equal(arrays[name_].data, want), name_


_REDUCTION = """
      program red
      parameter (n = 16)
      real a(n), b(n), s
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ distribute b(block) onto p
      do i = 1, n
         a(i) = i * 0.5
      enddo
      s = 0.0
!hpf$ independent, reduction(s)
      do i = 1, n
         s = s + a(i)
      enddo
      do i = 1, n
         b(i) = a(i) + s
      enddo
      end
"""


def test_reduction_is_refused_strict_and_degraded_lenient():
    """A REDUCTION clause asks for rank-partial sums, which are not bitwise
    the serial order: strict refuses the nest, lenient runs it replicated
    with the same reason, bitwise the interpreter on the VM's mpi and
    shmem targets (rank 0 publishes ``s`` to the others there)."""
    reason = (
        "REDUCTION(s) is not honoured because a rank-partial sum is not "
        "bitwise the serial order"
    )
    with pytest.raises(CodegenUnsupported) as ei:
        compile_kernel(_REDUCTION, nprocs=4)
    assert str(ei.value) == reason
    ref = _serial_reference(_REDUCTION)
    for backend in ("scalar", "vector"):
        k = compile_kernel(_REDUCTION, nprocs=4, strict=False, backend=backend)
        assert k.degraded_nests == {1}
        assert [d.message for d in k.fallback_diagnostics] == [
            f"nest degraded to replicated execution: {reason}"
        ]
        assert _mpi_mismatch(k, k.run({}), ref, backend) is None
        assert _shmem_mismatch(k, k.run_shmem({}), ref, backend) is None


def test_reduction_degraded_on_shmem_processes():
    """The published scalar crosses real processes too."""
    import multiprocessing as mp

    from repro.runtime import procexec

    k = compile_kernel(_REDUCTION, nprocs=4, strict=False)
    shared = procexec.run_kernel(k, {}, target="shmem", timeout=60)
    assert _shmem_mismatch(
        k, shared, _serial_reference(_REDUCTION), "process") is None
    assert mp.active_children() == []
    assert procexec.leaked_segments() == []


#: the REDUCTION program without its clause: each rank would sum only its
#: own block into ``s`` (rank 0 would end with ``b = a + 5``, not ``a + 68``)
_ACCUMULATOR = _REDUCTION.replace("!hpf$ independent, reduction(s)\n", "")

#: ``t`` is private to each iteration, but the last nest reads the value
#: only the rank owning ``a(n)`` computed
_LIVE_OUT = """
      program liveout
      parameter (n = 16)
      real a(n), b(n), t
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ distribute b(block) onto p
      do i = 1, n
         a(i) = i * 0.5
      enddo
      do i = 1, n
         t = a(i) * 2.0
         b(i) = t
      enddo
      do i = 1, n
         b(i) = b(i) + t
      enddo
      end
"""

#: ``t`` is dead after the nest, but read after the inner loop that
#: writes it, where each rank holds its own last ``i``'s value
_INNER_LIVE_OUT = """
      program inner
      parameter (n = 16)
      real a(n), b(n), t
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ distribute b(block) onto p
      do i = 1, n
         a(i) = i * 0.5
      enddo
      do k = 1, n
         do i = 1, n
            t = a(i) * 2.0
         enddo
         b(k) = t
      enddo
      end
"""


@pytest.mark.parametrize("source, reason", [
    (_ACCUMULATOR,
     "partitioned write to scalar 's' carries a value across iterations "
     "of loop 'i'"),
    (_LIVE_OUT, "partitioned write to scalar 't' is read after loop 'i'"),
    (_INNER_LIVE_OUT, "partitioned write to scalar 't' is read after loop 'i'"),
], ids=["accumulator", "live-out", "inner-live-out"])
def test_partitioned_scalar_write_is_refused_strict_and_degraded_lenient(
    source, reason
):
    """A partitioned scalar write leaves each rank its own iterations'
    value: strict refuses the nest unless the scalar is private to every
    iteration and dead after its loops; lenient runs it replicated,
    bitwise the interpreter on the VM's mpi and shmem targets."""
    with pytest.raises(CodegenUnsupported) as ei:
        compile_kernel(source, nprocs=4)
    assert str(ei.value) == reason
    ref = _serial_reference(source)
    for backend in ("scalar", "vector"):
        k = compile_kernel(source, nprocs=4, strict=False, backend=backend)
        assert k.degraded_nests == {1}
        assert [d.message for d in k.fallback_diagnostics] == [
            f"nest degraded to replicated execution: {reason}"
        ]
        assert _mpi_mismatch(k, k.run({}), ref, backend) is None
        assert _shmem_mismatch(k, k.run_shmem({}), ref, backend) is None


def test_per_iteration_scalar_temporaries_stay_partitioned():
    """The table's kernels partition their per-iteration temporaries,
    which the scalar-write rule must accept."""
    from repro.ir.expr import Var
    from repro.ir.stmt import Assign
    from repro.ir.visit import walk_stmts
    from repro.nas.specs import kernel_specs

    temps = {}
    for spec in kernel_specs():
        ck = spec.compile()
        temps[spec.key] = sorted({
            s.lhs.name for s in walk_stmts(ck.sub.body)
            if isinstance(s, Assign) and isinstance(s.lhs, Var)
            and not ck.cps[s.sid].cp.is_replicated
        })
    assert temps == {
        "fig4.1": ["ru1"], "fig4.2": ["rho_inv"], "exact-rhs": ["dtemp"],
        "fig6.1": [], "sp-exact-rhs-s": ["dtemp"],
        "sp-rhs-s": ["aux", "rho_inv"], "bt-rhs-s": ["rho_inv"],
    }


class TestCheckIntegration:
    def test_degraded_example_target_reports_fallback(self):
        from repro.check.targets import available_targets

        report = available_targets()["degraded-example"]()
        assert report.ok
        text = report.format()
        assert "I-FALLBACK" in text

    def test_verifier_merges_sink_diagnostics(self):
        from repro.check import verify_kernel

        k = compile_kernel(NONAFFINE, nprocs=4, strict=False)
        report = verify_kernel(k)
        assert report.ok
        assert any(d.code == I_FALLBACK for d in report.diagnostics)

    def test_report_holds_the_sink_records_themselves(self):
        import repro.check
        import repro.diag
        from repro.check import verify_kernel

        assert repro.check.Severity is repro.diag.Severity
        assert repro.check.Diagnostic is repro.diag.Diagnostic
        k = compile_kernel(NONAFFINE, nprocs=4, strict=False)
        (fallback,) = k.fallback_diagnostics
        assert fallback.pass_name == "cp"
        report = verify_kernel(k)
        (held,) = report.by_code(I_FALLBACK)
        assert held is fallback
        assert "I-FALLBACK [cp, nest 1]:" in report.format()
        # a spanned record keeps its span: location and caret excerpt
        span = SourceSpan(11, 9, 12, "         b(mod(3*i, n) + 1) = a(i) + 1.0")
        k.sink.warn("budget", code=W_BUDGET, span=span, pass_name="isets")
        text = verify_kernel(k).format()
        assert "warn: W-BUDGET [isets]: line 11, col 10: budget" in text
        assert "^^^^" in text


class TestSinkAPI:
    def test_strict_sink_raises_immediately(self):
        sink = DiagnosticSink(strict=True)
        with pytest.raises(CompileError):
            sink.error("boom", code=E_PARSE)

    def test_lenient_sink_accumulates(self):
        sink = DiagnosticSink(strict=False)
        sink.error("one", code=E_PARSE)
        sink.error("two", code=E_PARSE)
        assert len(sink.errors()) == 2
        err = sink.as_error()
        assert "2 errors" in str(err)
