"""The staged compilation pipeline and its cache-aware driver.

Every compilation — strict or lenient, budgeted or not — and every
analysis-only caller (:mod:`repro.check`) runs the same four stages,
each with a serializable artifact and a content-addressed key
(:class:`~repro.compile.key.PlanKey`):

1. **parse** — source text → a single flattened
   :class:`~repro.ir.program.Subroutine` (multi-unit programs are
   inlined bottom-up in lenient mode).  Artifact: :class:`ParseArtifact`
   keyed by ``key.parse_digest``.
2. **select** — the rank-symbolic half of analysis (CP selection,
   NEW/LOCALIZE propagation, comm-sensitive grouping) from
   :func:`repro.codegen.spmd.select_program`, computed at a canonical
   processor count derived from the layout alone
   (:func:`repro.distrib.layout.canonical_nprocs`).  Independent of both
   backend and ``nprocs``, so one selection fans out to every rank count
   in a scaling sweep.  Artifact: :class:`SelectionArtifact` keyed by
   ``key.analysis_digest`` — which deliberately omits ``nprocs``.
3. **specialize** — communication analysis of the selection skeleton at
   the concrete target ``nprocs``
   (:func:`repro.codegen.spmd.analyze_program`), then the soundness
   screen over each analyzed nest, yielding the full analysis bundle
   ``(ctx, cps, nest_plans, private_arrays, localized_arrays, verdicts)``
   as an in-memory :class:`AnalysisArtifact` (never cached on its own —
   it is cheap to regenerate from a selection hit).
4. **codegen** — the executable :class:`~repro.codegen.spmd.CompiledKernel`,
   refused if the screen left a verdict; :func:`build_kernel` then emits
   both node-program texts (mpi + shmem).  Artifact:
   :class:`KernelArtifact` keyed by ``key.kernel_digest``.

The screen (:func:`repro.codegen.spmd.screen_program` before analysis,
``_nest_degrade_reason`` per nest after it) runs in every compile and the
sink alone decides what its verdict means: lenient degrades the nest
inside *specialize* or, for what no nest can carry, compiles the
directive-stripped program; strict raises ``CodegenUnsupported(reason)``
from *codegen*, so analysis-only callers still get their plan.

There is no second analysis path, and three measurements say none is
needed (DESIGN.md "Scaling the iset engine").  A layout with no
canonical count (a non-affine ``PROCESSORS`` extent such as
``procs(np/2)``) raises the ``ValueError`` that building the
distribution context at the target count raises too, so falling back
would rescue nothing (and selection at the canonical count failed in 0
of 423 strict compiles).  An explicit iset budget meters the same two
stages and is charged what a per-``nprocs`` analysis charges (lhsy 4661
ops / 3 peak disjuncts, BT compute_rhs 52263 / 24, exact_rhs 1327 / 2).
:func:`_analyze_direct` (selection made at the target count) is only the
reference ``tests/test_rank_symbolic.py`` compares against.

The parse and selection *cache tiers* are strict-only: lenient
diagnostics from those stages would need replay, so a lenient compile is
cached at kernel granularity.

The compile pool (:mod:`repro.compile.pool`) shares selections the same
way across its workers: a worker's strict build that selects hands the
pickled :class:`SelectionArtifact` to :attr:`StageRecord.on_select` right
after the select stage, the parent writes it to the selection tier, and
jobs of the same ``analysis_digest`` are built with it through
``build_kernel(selection=...)`` — the path of a selection-tier hit.

:func:`cached_compile` is the front door ``compile_kernel`` delegates
to: kernel-tier hit → unpickle, replay the recorded diagnostics into the
caller's sink, return; selection-tier hit → :func:`build_kernel`
specializes it at the target ``nprocs`` and regenerates code; parse-tier
hit → re-analyze; full miss → run everything and populate all tiers.
Warm kernels are bitwise-identical to cold ones: the pickled
artifact carries the emitted sources, guards covers, routes, and
vectorization reports verbatim, and every hit deserializes a fresh
object so callers can never mutate the cache.

Diagnostics behave identically warm and cold: the artifact records
exactly the diagnostics the compile appended (``I-FALLBACK``,
``W-BUDGET``, inlining notices, ...), and a hit replays them into the
caller's sink in order.
"""

from __future__ import annotations

import pickle
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from ..diag import DiagnosticSink
from ..ir.stmt import reset_sids
from ..isets.core import new_epoch
from ..isets.profile import phase as profile_phase
from .cache import PlanCache
from .key import PlanKey


def _seed_sids(sub) -> None:
    """Point the thread-local sid allocator just past *sub*'s highest
    sid (deterministic resumption for warm-artifact compilations)."""
    from ..ir.visit import walk_stmts

    top = max((s.sid for s in walk_stmts(sub.body)), default=0)
    reset_sids(top + 1)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..codegen.spmd import CompiledKernel
    from ..ir.program import Subroutine


# ---------------------------------------------------------------------------
# staged artifacts
# ---------------------------------------------------------------------------

@dataclass
class ParseArtifact:
    """Stage-1 output: the flattened single unit + parse-stage diagnostics
    (lenient inlining notices; error-free by construction — a failed parse
    raises and is never cached)."""

    sub: "Subroutine"
    diags: list = field(default_factory=list)


@dataclass
class SelectionArtifact:
    """Stage-2 output: the rank-symbolic analysis
    skeleton — CP choices, privatization scopes, grouping — computed at
    the canonical processor count ``selection.nprocs``.  Cached under
    ``key.analysis_digest`` (no ``nprocs``), so a scaling sweep pays for
    CP selection once and specializes per rank count."""

    sub: "Subroutine"
    merged: dict
    selection: object  # repro.codegen.spmd.ProgramSelection


@dataclass
class AnalysisArtifact:
    """Specialize-stage output: the backend-independent analysis bundle
    at one concrete ``nprocs``.  ``ctx`` rides along so codegen-only
    reconstruction never re-derives the distribution context."""

    sub: "Subroutine"
    ctx: object
    merged: dict
    cps: dict
    nest_plans: list
    private_arrays: set
    localized_arrays: set
    #: nest index -> the soundness screen's reason why code generated from
    #: that nest's plan would be wrong (strict analysis only: a lenient
    #: one has degraded the nest instead)
    verdicts: dict = field(default_factory=dict)
    #: each nest's NestInfo (dependences computed), for the vector planner
    nests: list = field(default_factory=list)


@dataclass
class KernelArtifact:
    """Stage-3 output: the finished kernel (``_fns`` stripped by
    ``CompiledKernel.__getstate__``) whose ``sink`` holds exactly the
    diagnostics this compilation produced."""

    kernel: "CompiledKernel"


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_parse(source_or_sub, sink: DiagnosticSink) -> "Subroutine":
    """Parse stage: resolve the input to one compilable Subroutine.

    String sources are parsed with sids from 1, whatever the process
    parsed before (IR passed in keeps its caller-assigned sids);
    multi-unit programs are flattened by bottom-up call inlining in
    lenient mode (a typed error otherwise); unresolved CALLs are rejected
    here, before any analysis runs.  The sid allocator is left just past
    the unit's highest sid.
    """
    from ..codegen.spmd import CodegenUnsupported, _flatten_program
    from ..diag import E_UNSUPPORTED
    from ..frontend import parse_source
    from ..ir.program import Program
    from ..ir.stmt import CallStmt
    from ..ir.visit import walk_stmts

    lenient = not sink.strict
    if isinstance(source_or_sub, str):
        reset_sids()
        prog = parse_source(source_or_sub, sink if lenient else None)
        if lenient and sink.has_errors:
            raise sink.as_error("source has syntax errors")
        if len(prog.units) != 1:
            if lenient:
                sub = _flatten_program(prog, sink)
            else:
                raise CodegenUnsupported(
                    "compile_kernel takes a single unit; interprocedural "
                    "kernels are analyzed by repro.cp.interproc"
                )
        else:
            sub = next(iter(prog.units.values()))
    elif isinstance(source_or_sub, Program):
        prog = source_or_sub
        if len(prog.units) != 1 and lenient:
            sub = _flatten_program(prog, sink)
        elif len(prog.units) == 1:
            sub = next(iter(prog.units.values()))
        else:
            raise CodegenUnsupported(
                "compile_kernel takes a single unit; interprocedural "
                "kernels are analyzed by repro.cp.interproc"
            )
    else:
        sub = source_or_sub

    for s in walk_stmts(sub.body):
        if isinstance(s, CallStmt):
            if lenient:
                sink.error(
                    f"CALL {s.name} cannot be resolved to a defined unit",
                    code=E_UNSUPPORTED,
                    pass_name="codegen",
                )
                raise sink.as_error()
            raise CodegenUnsupported("CALL statements are not code-generated")
    _seed_sids(sub)
    return sub


def _metered(budget):
    """Charge iset work to *budget* (when the caller brought one)."""
    from ..isets import iset_budget

    return iset_budget(budget) if budget is not None else nullcontext()


def _select_at(
    sub: "Subroutine", count: int, params: dict, sink=None, budget=None
) -> SelectionArtifact:
    """CP selection on a grid of *count* processors."""
    from ..codegen.spmd import select_program
    from ..distrib.layout import DistributionContext

    ctx = DistributionContext(sub, count, params)
    merged = {**sub.symbols.parameter_values(), **params}
    with _metered(budget):
        selection = select_program(sub, ctx, merged, sink=sink, budget=budget)
    return SelectionArtifact(sub=sub, merged=merged, selection=selection)


def stage_select(
    sub: "Subroutine",
    params: dict,
    sink: "DiagnosticSink | None" = None,
    budget=None,
) -> SelectionArtifact:
    """Selection stage: the ``nprocs``-free half of analysis.

    Derives the canonical processor count from the layout and runs CP
    selection, NEW/LOCALIZE propagation, and grouping there.  Under a
    lenient *sink* a nest whose selection fails is marked for the
    replicated fallback instead of raising; *budget* meters the iset
    work.  A layout with no canonical count raises ``ValueError``."""
    from ..distrib.layout import canonical_nprocs

    with profile_phase("select"):
        return _select_at(
            sub, canonical_nprocs(sub, params), params, sink, budget
        )


def stage_specialize(
    art: SelectionArtifact,
    nprocs: int,
    params: dict,
    sink: "DiagnosticSink | None" = None,
    budget=None,
) -> AnalysisArtifact:
    """Specialization stage: communication analysis and soundness screen
    of a selection skeleton at the concrete target *nprocs*, strict or
    (per *sink*) degrading nest by nest, metered by *budget*."""
    from ..codegen.spmd import analyze_program
    from ..distrib.layout import DistributionContext

    with profile_phase("specialize"):
        ctx = DistributionContext(art.sub, nprocs, params)
        with _metered(budget):
            cps_all, nest_plans, private_arrays, localized_arrays, verdicts, nests = (
                analyze_program(
                    art.sub, ctx, art.merged, art.selection,
                    sink=sink, budget=budget,
                )
            )
    return AnalysisArtifact(
        sub=art.sub, ctx=ctx, merged=art.merged, cps=cps_all,
        nest_plans=nest_plans, private_arrays=private_arrays,
        localized_arrays=localized_arrays, verdicts=verdicts, nests=nests,
    )


def _analyze_direct(
    sub: "Subroutine", nprocs: int, params: dict
) -> AnalysisArtifact:
    """The reference the rank-symbolic identity tests compare against:
    the same two stages with selection made at the target *nprocs*
    instead of the canonical count.  No compile takes this route."""
    return stage_specialize(_select_at(sub, nprocs, params), nprocs, params)


def analyze_source(
    source_or_sub, nprocs: int, params: Mapping[str, int] | None = None
) -> AnalysisArtifact:
    """Analysis without code generation — parse → select → specialize,
    strict — for the callers that verify or cost a plan
    (:mod:`repro.check`).  Accepts the kernels :func:`stage_codegen`
    refuses (pipelined communication, §5): their ``verdicts`` say why."""
    params = dict(params or {})
    sub = stage_parse(source_or_sub, DiagnosticSink(strict=True))
    return stage_specialize(stage_select(sub, params), nprocs, params)


def stage_codegen(
    art: AnalysisArtifact,
    nprocs: int,
    backend: str,
    sink: DiagnosticSink,
) -> "CompiledKernel":
    """Codegen stage: build the executable kernel, or refuse an analysis
    the soundness screen left a verdict on, with the screen's reason (the
    text of a lenient compile's ``I-FALLBACK``).  Refused here, not in
    analysis, so such a plan can still be verified and costed, and a
    selection-tier cache hit fails exactly like a cold compile."""
    from ..codegen.spmd import CodegenUnsupported, CompiledKernel

    if art.verdicts:
        raise CodegenUnsupported(next(iter(art.verdicts.values())))
    return CompiledKernel(
        art.sub, art.ctx, art.merged, art.cps, art.nest_plans, nprocs,
        art.private_arrays, art.localized_arrays, backend=backend,
        sink=sink, nests=art.nests,
    )


@dataclass
class StageRecord:
    """Cold-path byproducts the caching driver persists: the pickled
    parse/selection artifacts, captured immediately after their stage ran
    (so later stages mutating the IR can never leak into an earlier
    tier).  ``analysis_payload`` holds a :class:`SelectionArtifact`;
    ``on_select``, when set, is called with it at once, before
    specialization starts (a pool worker publishes it to its twins)."""

    parse_payload: bytes | None = None
    analysis_payload: bytes | None = None
    on_select: "Callable[[bytes], None] | None" = None


def build_kernel(
    source_or_sub,
    nprocs: int,
    params: dict,
    backend: str,
    sink: DiagnosticSink,
    budget,
    record: StageRecord | None = None,
    sub: "Subroutine | None" = None,
    selection: SelectionArtifact | None = None,
) -> "CompiledKernel":
    """Run the staged pipeline cold (no kernel-tier hit): parse → program
    screen → select → specialize → codegen → emit both node programs, one
    body for every sink.  What the screen refuses or a stage raises, a
    strict sink re-raises typed; a lenient one compiles the
    directive-stripped program instead (nests degrade inside the stages).

    ``sub``/``selection`` inject warm earlier-stage artifacts; *record*,
    when given, captures the serialized stage outputs for cache
    population.
    """
    from ..codegen.spmd import (
        CodegenUnsupported,
        _strip_directives,
        screen_program,
    )
    from ..distrib.layout import DistributionContext
    from ..isets import IsetBudget

    new_epoch()
    if budget is None and not sink.strict:
        # a tripped budget is something a lenient compile can act on
        # (degrade the nest), so it is always metered
        budget = IsetBudget()
    if selection is not None:
        sub = selection.sub  # the artifact carries its own parsed unit
    elif sub is None:
        with profile_phase("parse"):
            sub = stage_parse(source_or_sub, sink)
        if record is not None:
            record.parse_payload = _dumps(ParseArtifact(sub=sub))
    # resume the sid allocator after the highest sid in play, so
    # statements created by later transforms (loop distribution,
    # inlining) number identically warm and cold
    _seed_sids(sub)

    def build(sub, selection):
        # screened before any analysis runs, so a program that cannot be
        # distributed at all reports only its whole-program fallback
        reason = screen_program(sub, DistributionContext(sub, nprocs, params))
        if reason is not None:
            # lenient: the ValueError its whole-program fallback always named
            raise (CodegenUnsupported if sink.strict else ValueError)(reason)
        if selection is None:
            selection = stage_select(sub, params, sink, budget)
            if record is not None:
                record.analysis_payload = _dumps(selection)
                if record.on_select is not None:
                    record.on_select(record.analysis_payload)
        analysis = stage_specialize(selection, nprocs, params, sink, budget)
        with profile_phase("codegen"):
            kernel = stage_codegen(analysis, nprocs, backend, sink)
        # Surface emission-time problems (unsupported statements, route
        # binding) now, while they can still be refused or fallen back
        # from, and so the artifact carries the final text.
        kernel.python_source("mpi")
        kernel.python_source("shmem")
        return kernel

    try:
        kernel = build(sub, selection)
    except Exception as exc:
        if sink.strict:
            if isinstance(exc, KeyError):
                # Iset enumeration over symbols with no compile-time value
                # surfaces as ``KeyError`` deep in the point enumerator;
                # strict mode promises typed errors only.
                raise CodegenUnsupported(
                    f"analysis requires compile-time values: {exc}"
                ) from exc
            raise
        sink.fallback(
            "whole-program replicated fallback: "
            f"{type(exc).__name__}: {exc}",
            pass_name="driver",
        )
        with budget.suspend():
            kernel = build(_strip_directives(sub), None)
    kernel.budget = budget
    return kernel


# ---------------------------------------------------------------------------
# cache-aware driver
# ---------------------------------------------------------------------------

def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _loads(payload: bytes):
    """Deserialize an artifact; None on any failure (an entry written by
    an incompatible interpreter/pickle layout is a miss, not an error)."""
    try:
        return pickle.loads(payload)
    except Exception:
        return None


def _replay(kernel: "CompiledKernel", sink: DiagnosticSink) -> "CompiledKernel":
    """Attach a warm kernel to the caller's sink, replaying the recorded
    diagnostics so warm and cold compilations are observationally
    identical."""
    recorded = kernel.sink.diagnostics if kernel.sink is not None else []
    sink.diagnostics.extend(recorded)
    kernel.sink = sink
    return kernel


def cached_compile(
    source: str,
    nprocs: int,
    params: Mapping[str, int] | None,
    backend: str,
    sink: DiagnosticSink,
    budget,
    cache: PlanCache,
    key: PlanKey | None = None,
) -> "CompiledKernel":
    """Compile *source* through the staged plan cache.

    An explicit *budget* bypasses the cache entirely: reads, because the
    caller is observing analysis cost and a warm hit does no analysis;
    writes, because a caller-chosen budget shapes the result (a tripped
    budget degrades nests and is recorded on the kernel) and the plan
    key deliberately excludes it — caching would poison default-budget
    callers with budget-specific artifacts.
    """
    params = dict(params or {})
    if key is None:
        key = PlanKey.for_source(
            source, nprocs, params, backend=backend, strict=sink.strict
        )

    cacheable = budget is None
    if cacheable:
        payload = cache.get(key.kernel_digest)
        if payload is not None:
            art = _loads(payload)
            if isinstance(art, KernelArtifact):
                return _replay(art.kernel, sink)

    # stage-tier reuse (strict only; see module docstring).  The selection
    # tier is keyed without nprocs: a hit pays only specialization (comm
    # analysis) and codegen — one symbolic selection serves a whole
    # processor-count sweep.
    sub = selection = None
    if cacheable and sink.strict:
        apayload = cache.get(key.analysis_digest)
        if apayload is not None:
            aart = _loads(apayload)
            if isinstance(aart, SelectionArtifact):
                selection = aart
        if selection is None:
            ppayload = cache.get(key.parse_digest)
            if ppayload is not None:
                part = _loads(ppayload)
                if isinstance(part, ParseArtifact):
                    sub = part.sub

    mark = len(sink.diagnostics)
    record = StageRecord() if cacheable and sink.strict else None
    kernel = build_kernel(
        source, nprocs, params, backend, sink, budget,
        record=record, sub=sub, selection=selection,
    )
    if cacheable:
        compiled_diags = list(sink.diagnostics[mark:])
        caller_sink, kernel.sink = kernel.sink, DiagnosticSink(
            strict=sink.strict, diagnostics=compiled_diags
        )
        try:
            cache.put(key.kernel_digest, _dumps(KernelArtifact(kernel=kernel)))
        finally:
            kernel.sink = caller_sink
    if record is not None:
        if record.parse_payload is not None:
            cache.put(key.parse_digest, record.parse_payload)
        if record.analysis_payload is not None:
            cache.put(key.analysis_digest, record.analysis_payload)
    return kernel
