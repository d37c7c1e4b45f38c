"""The static SPMD verifier (repro.check): diagnostics, the four
analyses, and the compile-pipeline integration.

Fast small kernels only — the paper kernels and the mutation harness run
in benchmarks/test_check_mutations.py.
"""

import os
import subprocess
import sys

import pytest

from repro.check import (
    E_COVERAGE,
    E_GUARD,
    E_MATCH,
    E_OVERLAP,
    CheckReport,
    Diagnostic,
    Severity,
    StaticSchedule,
    verify_kernel,
    verify_source,
    verify_unit,
)
from repro.check.mutate import verify_rebuilt
from repro.codegen import compile_kernel
from repro.compile.pipeline import analyze_source
from repro.nas.specs import all_specs

#: 1D halo exchange: boundary reads of a cross the BLOCK boundaries
HALO = """
      subroutine sweep(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx), b(0:nx)
chpf$ processors procs(4)
chpf$ template t(0:nx)
chpf$ align a(i) with t(i)
chpf$ align b(i) with t(i)
chpf$ distribute t(block) onto procs
      do i = 1, n - 2
         b(i) = a(i+1) + a(i-1)
      enddo
      end
"""

#: perfectly aligned: no communication anywhere
LOCAL = """
      subroutine copy(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx), b(0:nx)
chpf$ processors procs(4)
chpf$ template t(0:nx)
chpf$ align a(i) with t(i)
chpf$ align b(i) with t(i)
chpf$ distribute t(block) onto procs
      do i = 0, n - 1
         b(i) = 2.0d0 * a(i)
      enddo
      end
"""

N = {"n": 16}


@pytest.fixture(scope="module")
def halo_kernel():
    return compile_kernel(HALO, nprocs=4, params=N)


@pytest.fixture(scope="module")
def local_kernel():
    return compile_kernel(LOCAL, nprocs=4, params=N)


class TestCleanPrograms:
    def test_halo_kernel_verifies_clean(self, halo_kernel):
        report = verify_kernel(halo_kernel)
        assert report.ok
        assert not report.warnings()

    def test_local_kernel_reports_clean_nest(self, local_kernel):
        report = verify_kernel(local_kernel)
        assert report.ok
        infos = report.by_code("I-CLEAN")
        assert len(infos) == 1 and infos[0].nest == 0
        # and the claim is true: zero live events
        assert not local_kernel.nest_plans[0][1].live_events()

    def test_verify_source_path(self):
        report = verify_source(HALO, nprocs=4, params=N)
        assert report.ok

    def test_compile_then_verify(self):
        assert verify_kernel(compile_kernel(HALO, nprocs=4, params=N)).ok


class TestCoverage:
    """Plan edits are verified as a compiler with that bug would emit them:
    routes and guard plan rebuilt from the edited plan."""

    def test_dropped_fetch_is_flagged(self, halo_kernel):
        _root, plan = halo_kernel.nest_plans[0]
        event = next(e for e in plan.live_events() if e.kind == "read")
        plan.events.remove(event)
        try:
            report = verify_rebuilt(halo_kernel)
        finally:
            plan.events.append(event)
        errors = report.by_code(E_COVERAGE)
        assert errors and not report.ok
        d = errors[0]
        assert d.array == "a"
        assert d.stmt_sid == event.stmt.sid
        assert d.iset is not None and not d.iset.is_empty()

    def test_availability_overreach_is_flagged(self, halo_kernel):
        _root, plan = halo_kernel.nest_plans[0]
        event = next(e for e in plan.live_events() if e.kind == "read")
        event.eliminated_by_availability = True
        try:
            report = verify_rebuilt(halo_kernel)
        finally:
            event.eliminated_by_availability = False
        assert report.by_code(E_COVERAGE)


class TestGuards:
    def test_guards_cover_the_loop_bounds(self, halo_kernel):
        assert not verify_kernel(halo_kernel).by_code(E_GUARD)

    def test_lost_iterations_are_flagged(self, halo_kernel):
        """A guard-plan entry no rank runs any box of loses its statement's
        whole iteration space."""
        saved = group, entries = halo_kernel.guard_plan
        halo_kernel.guard_plan = group, [() for _ in entries]
        try:
            report = verify_kernel(halo_kernel)
        finally:
            halo_kernel.guard_plan = saved
        errors = report.by_code(E_GUARD)
        assert errors and "no rank runs" in errors[0].message
        assert {d.stmt_sid for d in errors} == {
            sid for sid, g in group.items() if g is not None
        }


class TestReadsTheCompiledPlan:
    """The verifier reads the iterations and messages a kernel carries
    (its guard plan and routes): on a warm kernel, unpickled as the plan
    cache serves it, it derives no iteration set and no hoisted event's
    flows."""

    @pytest.mark.parametrize("key", ["fig4.2", "sp-rhs-s"])
    def test_warm_kernel_derives_nothing(self, key, monkeypatch):
        import pickle

        from repro.comm.events import CommEvent
        from repro.compile.cache import cache_disabled
        from repro.cp.model import cp_iteration_set
        from repro.nas.specs import kernel_spec

        spec = kernel_spec(key)
        with cache_disabled():
            ck = compile_kernel(spec.program(), spec.nprocs, spec.params)
        warm = pickle.loads(pickle.dumps(ck))
        calls = []
        flows = CommEvent.flows

        def counted_iterations(*args, **kwargs):
            calls.append("cp_iteration_set")
            return cp_iteration_set(*args, **kwargs)

        def counted_flows(event, *args, **kwargs):
            if event.placement.hoisted:
                calls.append(f"flows of {event}")
            return flows(event, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(
                    module, "cp_iteration_set", None) is cp_iteration_set:
                monkeypatch.setattr(module, "cp_iteration_set", counted_iterations)
        monkeypatch.setattr(CommEvent, "flows", counted_flows)
        report = verify_kernel(warm)
        assert calls == []
        assert report.ok, report.format(Severity.ERROR)


class TestOnePlanRecord:
    """An analysis and the kernel compiled from it carry one plan (routes,
    guard plan, dependences): the verifier's twin of ``kernel_cost ==
    analysis_cost``."""

    @pytest.mark.parametrize(
        "spec", [s for s in all_specs() if not s.pipelined], ids=lambda s: s.key)
    def test_analysis_and_kernel_verify_the_same(self, spec):
        def rows(report):
            return [(d.code, d.array, d.stmt_sid, d.nest, d.procs, d.message)
                    for d in report.diagnostics]

        art = analyze_source(spec.program(), spec.nprocs, spec.params)
        assert rows(verify_unit(art)) == rows(verify_unit(spec.compile()))


class TestOverlap:
    def test_halo_fits_declared_bounds(self, halo_kernel):
        assert verify_kernel(halo_kernel).ok

    def test_no_overlap_storage_is_flagged(self, halo_kernel):
        layout = halo_kernel.ctx.layout("a")
        report = verify_kernel(halo_kernel, overlap={"a": layout.ownership()})
        errors = report.by_code(E_OVERLAP)
        assert errors and errors[0].array == "a"


class TestMatching:
    def test_schedule_balances(self, halo_kernel):
        schedule = StaticSchedule.from_kernel(halo_kernel)
        assert schedule.sends() and len(schedule.sends()) == len(schedule.recvs())
        assert verify_kernel(halo_kernel, schedule=schedule).ok

    def test_dropped_send_deadlocks(self, halo_kernel):
        schedule = StaticSchedule.from_kernel(halo_kernel)
        mutated = schedule.without(schedule.sends()[0])
        report = verify_kernel(halo_kernel, schedule=mutated)
        errors = report.by_code(E_MATCH)
        assert errors
        assert "deadlock" in errors[0].message

    def test_dropped_recv_is_data_loss(self, halo_kernel):
        schedule = StaticSchedule.from_kernel(halo_kernel)
        mutated = schedule.without(schedule.recvs()[0])
        report = verify_kernel(halo_kernel, schedule=mutated)
        assert report.by_code(E_MATCH)

    def test_self_message_is_flagged(self, halo_kernel):
        from repro.check import ScheduleOp

        schedule = StaticSchedule.from_kernel(halo_kernel)
        schedule.ops.append(ScheduleOp(0, "send", 0, 9, 1, 0, "a"))
        report = verify_kernel(halo_kernel, schedule=schedule)
        assert any("self-message" in d.message for d in report.by_code(E_MATCH))


class TestDiagnostics:
    def test_severity_renders_lowercase(self):
        assert str(Severity.ERROR) == "error"
        assert Severity.WARN < Severity.ERROR

    def test_report_formatting_and_filters(self):
        report = CheckReport("unit")
        report.add(Diagnostic(Severity.INFO, "I-CLEAN", "fine", nest=0))
        report.add(Diagnostic(
            Severity.ERROR, E_COVERAGE, "missing halo",
            stmt_sid=7, array="a", procs=(0, 1),
        ))
        assert not report.ok
        assert [d.code for d in report.errors()] == [E_COVERAGE]
        text = report.format()
        assert "E-COVERAGE" in text and "s7" in text and "p0->p1" in text
        errors_only = report.format(min_severity=Severity.ERROR)
        assert "I-CLEAN" not in errors_only

    def test_diagnostic_pretty_prints_offending_set(self, halo_kernel):
        _root, plan = halo_kernel.nest_plans[0]
        event = next(e for e in plan.live_events() if e.kind == "read")
        plan.events.remove(event)
        try:
            report = verify_rebuilt(halo_kernel)
        finally:
            plan.events.append(event)
        text = report.format()
        assert "set: {[" in text  # the iset pretty-printer ran


class TestColdEqualsWarm:
    """A report is a function of the program, not of which plan-cache tier
    served the compile: a cold run and a warm rerun on one cache print the
    same report."""

    @pytest.mark.parametrize("target", ["bt-class-s", "example-multipartition"])
    def test_cold_and_warm_reports_are_identical(self, target, tmp_path):
        import repro

        env = dict(os.environ, REPRO_PLAN_CACHE=str(tmp_path),
                   PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        cmd = [sys.executable, "-m", "repro.eval", "check",
               "--check-target", target, "--min-severity", "warn"]
        cold, warm = (
            subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=300)
            for _ in range(2)
        )
        assert cold.returncode == 0, cold.stdout + cold.stderr
        assert any(tmp_path.iterdir())  # the warm run had a cache to read
        assert warm.stdout == cold.stdout
