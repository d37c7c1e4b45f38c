"""Driver of the static SPMD verifier.

Entry points:

- :func:`verify_kernel` — a :class:`~repro.codegen.spmd.CompiledKernel`
  (all four analyses over the guard plan and message routes it carries
  and will execute, send/recv matching included);
- :func:`verify_source` — any single-unit HPF source, via the analysis
  half of the compile pipeline only, so kernels the code generator
  rejects (pipelined communication) are still verifiable; its routes and
  guard plan are built from the analysis as a compile would build them.

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

from dataclasses import dataclass
from typing import Mapping, Optional

from ..comm.analyzer import CommPlan
from ..cp.select import StatementCP
from ..diag import I_CLEAN, I_TRIP, Diagnostic, Severity
from ..distrib.layout import DistributionContext
from ..ir.stmt import DoLoop
from ..isets import ISet
from .cost import compiled_plan, cost_advisories, kernel_cost
from .coverage import RankCovers, check_guards, check_nest_coverage, check_overlap, unproven
from .diagnostics import CheckReport
from .races import check_races
from .schedule import StaticSchedule, check_matching


@dataclass
class VerifyUnit:
    """Everything the four analyses need about one program unit."""

    subject: str
    sub: object  # Subroutine
    ctx: DistributionContext
    params: dict[str, int]
    cps: Mapping[int, StatementCP]
    nest_plans: list[tuple[DoLoop, CommPlan]]
    grid: object = None  # ProcessorGrid | None
    #: per nest, the message routes of its hoisted live events, and the
    #: guard plan ``(group, entries)`` (both None without a grid)
    routes: Optional[list] = None
    guard_plan: Optional[tuple] = None
    #: per-array overlap regions (ISet over a$ dims); defaults to the
    #: declared bounds — pass tighter boxes to model real overlap areas
    overlap: Optional[dict[str, ISet]] = None
    schedule: Optional[StaticSchedule] = None


def verify_unit(unit: VerifyUnit) -> CheckReport:
    """Run all four analyses (coverage, overlap, races, matching) and the
    guard check over a :class:`VerifyUnit` and collect the findings into a
    report."""
    report = CheckReport(unit.subject)
    if unit.grid is None:
        report.add(unproven(
            "no single processor grid: coverage, overlap and races cannot "
            "be evaluated per rank"))
    else:
        cov = RankCovers(unit)
        for idx, (_root, plan) in enumerate(unit.nest_plans):
            report.extend(check_nest_coverage(cov, idx, plan))
            report.extend(check_overlap(cov, idx, plan))
        report.extend(check_races(cov))
        report.extend(check_guards(cov))
    if unit.schedule is not None:
        report.extend(check_matching(unit.schedule))
    for idx, (_root, plan) in enumerate(unit.nest_plans):
        for loop in plan.unknown_trip_loops(unit.params):
            report.add(Diagnostic(
                Severity.INFO, I_TRIP,
                f"trip count of loop {loop.var} is not statically known — "
                "message counts for events inside it are lower bounds",
                stmt_sid=loop.sid, nest=idx,
            ))
        nest_errors = [d for d in report.errors() if d.nest == idx]
        if not plan.live_events() and not nest_errors:
            report.add(Diagnostic(
                Severity.INFO, I_CLEAN,
                "nest is communication-free and every read is proven local",
                nest=idx,
            ))
    return report


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
    ones (``W-COMM-HOT``).  The advisory layer is best-effort: a failure
    inside it never turns a verifiable kernel into a failed report."""
    unit = VerifyUnit(
        subject=kernel.sub.name,
        sub=kernel.sub,
        ctx=kernel.ctx,
        params=dict(kernel.params),
        cps=kernel.cps,
        nest_plans=kernel.nest_plans,
        grid=kernel.grid,
        routes=kernel._routes,
        guard_plan=kernel._guard_plan,
        overlap=overlap,
        schedule=schedule or StaticSchedule.from_kernel(kernel),
    )
    report = verify_unit(unit)
    sink = getattr(kernel, "sink", None)
    if sink is not None:
        report.extend(sink.diagnostics)
    try:
        report.extend(cost_advisories(
            kernel_cost(kernel), kernel=kernel, model=cost_model
        ))
    except Exception:  # advisories must never break verification
        pass
    return report


def analyzed_unit(
    source_or_sub,
    nprocs: int,
    params: Mapping[str, int] | None = None,
    overlap: Optional[dict[str, ISet]] = None,
    subject: Optional[str] = None,
) -> VerifyUnit:
    """The :class:`VerifyUnit` of a source analyzed but not code-generated
    (:func:`repro.compile.pipeline.analyze_source`)."""
    from ..compile.pipeline import analyze_source

    art = analyze_source(source_or_sub, nprocs, params)
    try:
        grid = art.ctx.the_grid()
    except ValueError:
        grid = None
    routes, guard_plan = (None, None) if grid is None else compiled_plan(art)
    return VerifyUnit(
        subject=subject or art.sub.name,
        sub=art.sub,
        ctx=art.ctx,
        params=art.merged,
        cps=art.cps,
        nest_plans=art.nest_plans,
        grid=grid,
        routes=routes,
        guard_plan=guard_plan,
        overlap=overlap,
    )


def verify_source(
    source_or_sub,
    nprocs: int,
    params: Mapping[str, int] | None = None,
    overlap: Optional[dict[str, ISet]] = None,
    subject: Optional[str] = None,
) -> CheckReport:
    """Analyze and verify without generating code — this path accepts the
    pipelined-communication kernels ``compile_kernel`` rejects (§5)."""
    return verify_unit(
        analyzed_unit(source_or_sub, nprocs, params, overlap, subject)
    )
