"""Driver of the static SPMD verifier.

Entry points:

- :func:`verify_unit` — a compiled kernel or an analysis
  (:class:`~repro.compile.pipeline.AnalysisArtifact`): the one plan record
  both carry, its routes and guard plan built by the compiler's own
  ``build_routes`` and ``plan_guards`` and its dependences the analysis's
  per-nest ``NestInfo``;
- :func:`verify_kernel` — a :class:`~repro.codegen.spmd.CompiledKernel`
  (all four analyses over the guard plan and message routes it carries
  and will execute, send/recv matching of its schedule included, plus
  its sink's records and the cost advisories);
- :func:`verify_source` — any single-unit HPF source, via the analysis
  half of the compile pipeline only, so kernels the code generator
  rejects (pipelined communication) are still verifiable.

Strategy: every analysis is algebra on canonical box covers checked at
every rank (and rank pair) of the grid, with no sampling, over what the
program runs: iterations are the guard plan's covers, messages the
routes' pairs (:class:`~repro.check.coverage.RankCovers`), and the guards
themselves are checked against the loop bounds (``E-GUARD``).  A
non-empty difference is an error; ``W-UNPROVEN`` means only that a set
could not be evaluated (a non-affine subscript or bound, or a set that
does not bind).

Findings are :class:`repro.diag.Diagnostic` records (codes in the
:mod:`repro.diag` table) collected in a
:class:`~repro.check.diagnostics.CheckReport`; a compiled kernel's own
sink records are appended to its report as they are.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..diag import I_CLEAN, I_TRIP, Diagnostic, Severity
from ..isets import ISet
from .cost import cost_advisories, kernel_cost
from .coverage import RankCovers, check_guards, check_nest_coverage, check_overlap, unproven
from .diagnostics import CheckReport
from .races import check_races
from .schedule import StaticSchedule, check_matching


def verify_unit(
    plan,
    subject: Optional[str] = None,
    overlap: Optional[dict[str, ISet]] = None,
    schedule: Optional[StaticSchedule] = None,
) -> CheckReport:
    """Run the coverage, overlap and race analyses and the guard check over
    a compiled kernel or an analysis (:class:`~repro.compile.pipeline.
    AnalysisArtifact`: the plan both carry), plus send/recv matching when
    a *schedule* is given, and collect the findings into a report.
    *overlap* gives per-array overlap regions (an ISet over the ``a$``
    dims); the declared bounds by default — pass tighter boxes to model
    real overlap areas."""
    report = CheckReport(subject or plan.sub.name)
    if plan.grid is None:
        report.add(unproven(
            "no single processor grid: coverage, overlap and races cannot "
            "be evaluated per rank"))
    else:
        cov = RankCovers(plan, overlap)
        for idx, (_root, comm) in enumerate(plan.nest_plans):
            report.extend(check_nest_coverage(cov, idx, comm))
            report.extend(check_overlap(cov, idx, comm))
        report.extend(check_races(cov))
        report.extend(check_guards(cov))
    if schedule is not None:
        report.extend(check_matching(schedule))
    for idx, (_root, comm) in enumerate(plan.nest_plans):
        for loop in comm.unknown_trip_loops(plan.params):
            report.add(Diagnostic(
                Severity.INFO, I_TRIP,
                f"trip count of loop {loop.var} is not statically known — "
                "message counts for events inside it are lower bounds",
                stmt_sid=loop.sid, nest=idx,
            ))
        nest_errors = [d for d in report.errors() if d.nest == idx]
        if not comm.live_events() and not nest_errors:
            report.add(Diagnostic(
                Severity.INFO, I_CLEAN,
                "nest is communication-free and every read is proven local",
                nest=idx,
            ))
    return report


def kernel_findings(kernel, plan, cost_model) -> list[Diagnostic]:
    """What a compiled *kernel* adds to its plan's report: its own sink's
    records as they are, and the static cost analyzer's advisories on
    *plan* (the kernel's, or one rebuilt from it) under *cost_model*
    (None: the structural ones only).  The advisory layer is
    best-effort: a failure inside it never turns a verifiable kernel into
    a failed report."""
    out = list(kernel.diagnostics)
    try:
        out += cost_advisories(kernel_cost(plan), kernel=kernel, model=cost_model)
    except Exception:  # advisories must never break verification
        pass
    return out


def verify_kernel(
    kernel,
    overlap: Optional[dict[str, ISet]] = None,
    schedule: Optional[StaticSchedule] = None,
    cost_model=None,
) -> CheckReport:
    """All four analyses and the guard check over a compiled kernel's
    guard plan and message routes (what its node program executes), plus
    the static cost analyzer's performance advisories.

    Structural advisories (``W-REPLICATED``, ``W-SCALAR-WAVEFRONT``,
    ``W-IMBALANCE``) always run; pass a :class:`~repro.runtime.model.
    MachineModel` as *cost_model* to additionally get the model-dependent
    ones (``W-COMM-HOT``)."""
    report = verify_unit(kernel, overlap=overlap,
                         schedule=schedule or StaticSchedule.from_kernel(kernel))
    report.extend(kernel_findings(kernel, kernel, cost_model))
    return report


def verify_source(
    source_or_sub,
    nprocs: int,
    params: Mapping[str, int] | None = None,
    overlap: Optional[dict[str, ISet]] = None,
    subject: Optional[str] = None,
) -> CheckReport:
    """Analyze and verify without generating code — this path accepts the
    pipelined-communication kernels ``compile_kernel`` rejects (§5)."""
    from ..compile.pipeline import analyze_source

    return verify_unit(analyze_source(source_or_sub, nprocs, params), subject, overlap)
