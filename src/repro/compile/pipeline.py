"""The staged compilation pipeline and its cache-aware driver.

:func:`repro.codegen.compile_kernel` historically ran parse, analysis,
and code generation as one opaque call.  This module makes the stages
explicit, each with a serializable artifact and a content-addressed key
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
   backend and ``nprocs``, so one cached selection fans out to every
   rank count in a scaling sweep.  Artifact: :class:`SelectionArtifact`
   keyed by ``key.analysis_digest`` — which deliberately omits
   ``nprocs`` (strict compilations only — the lenient path interleaves
   trial code generation with analysis for its whole-program fallback,
   so it is cached at kernel granularity instead).
3. **specialize** — communication analysis of the selection skeleton at
   the concrete target ``nprocs``, yielding the full analysis bundle
   ``(ctx, cps, nest_plans, private_arrays, localized_arrays)`` as an
   in-memory :class:`AnalysisArtifact` (never cached on its own — it is
   cheap to regenerate from a selection hit).
4. **codegen** — the executable :class:`~repro.codegen.spmd.CompiledKernel`
   with both node-program texts (mpi + shmem) pre-emitted.  Artifact:
   :class:`KernelArtifact` keyed by ``key.kernel_digest``.

When no canonical processor count can be derived (non-affine directive
extents, exotic layouts), the driver falls back to the legacy
per-``nprocs`` analysis and simply skips the selection tier — a safety
valve, never an error.  Explicit iset budgets also take the legacy path
so budget consumption order stays exactly historical.

:func:`cached_compile` is the front door ``compile_kernel`` delegates
to: kernel-tier hit → unpickle, replay the recorded diagnostics into the
caller's sink, return; selection-tier hit → specialize at the target
``nprocs`` and regenerate code; parse-tier hit → re-analyze; full miss →
run everything and populate all tiers.  Warm kernels are bitwise-identical to cold ones: the pickled
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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

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
    """Stage-2 output (strict compilations): the rank-symbolic analysis
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

    String sources are parsed; multi-unit programs are flattened by
    bottom-up call inlining in lenient mode (a typed error otherwise);
    unresolved CALLs are rejected here, before any analysis runs.
    """
    from ..codegen.spmd import CodegenUnsupported, _flatten_program
    from ..diag import E_UNSUPPORTED
    from ..frontend import parse_source
    from ..ir.program import Program
    from ..ir.stmt import CallStmt
    from ..ir.visit import walk_stmts

    lenient = not sink.strict
    if isinstance(source_or_sub, str):
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
    return sub


def stage_select(sub: "Subroutine", params: dict) -> "SelectionArtifact | None":
    """Selection stage (strict): the ``nprocs``-free half of analysis.

    Derives the canonical processor count from the layout and runs CP
    selection, NEW/LOCALIZE propagation, and grouping there.  Returns
    ``None`` when no canonical count can be derived or selection fails at
    it (the safety valve — the caller falls back to the legacy
    per-``nprocs`` analysis of :func:`_analyze_direct` and skips the
    selection cache tier)."""
    from ..codegen.spmd import select_program
    from ..distrib.layout import DistributionContext, canonical_nprocs

    with profile_phase("select"):
        try:
            cn = canonical_nprocs(sub, params)
            ctx = DistributionContext(sub, cn, params)
            merged = {**sub.symbols.parameter_values(), **params}
            selection = select_program(sub, ctx, merged)
        except Exception:
            return None
    return SelectionArtifact(sub=sub, merged=merged, selection=selection)


def stage_specialize(
    art: SelectionArtifact,
    nprocs: int,
    params: dict,
) -> AnalysisArtifact:
    """Specialization stage (strict): communication analysis of a
    selection skeleton at the concrete target *nprocs*.

    Iset enumeration over symbols with no compile-time value surfaces as
    ``KeyError`` deep in the point enumerator; strict mode promises typed
    errors only, so it converts to :class:`CodegenUnsupported`.
    """
    from ..codegen.spmd import CodegenUnsupported, analyze_program
    from ..distrib.layout import DistributionContext

    with profile_phase("specialize"):
        try:
            ctx = DistributionContext(art.sub, nprocs, params)
            cps_all, nest_plans, private_arrays, localized_arrays = (
                analyze_program(
                    art.sub, ctx, art.merged, selection=art.selection
                )
            )
        except KeyError as exc:
            raise CodegenUnsupported(
                f"analysis requires compile-time values: {exc}"
            ) from exc
    return AnalysisArtifact(
        sub=art.sub, ctx=ctx, merged=art.merged, cps=cps_all,
        nest_plans=nest_plans, private_arrays=private_arrays,
        localized_arrays=localized_arrays,
    )


def _analyze_direct(
    sub: "Subroutine",
    nprocs: int,
    params: dict,
    budget=None,
) -> AnalysisArtifact:
    """Legacy one-shot analysis: CP selection *and* communication analysis
    at the target *nprocs*, interleaved per nest.  Used when no canonical
    processor count exists, and whenever an explicit iset *budget* is
    attached (so budget consumption order stays exactly historical)."""
    from ..codegen.spmd import CodegenUnsupported, analyze_program
    from ..distrib.layout import DistributionContext
    from ..isets import iset_budget

    with profile_phase("analyze"):
        try:
            ctx = DistributionContext(sub, nprocs, params)
            merged = {**sub.symbols.parameter_values(), **params}
            if budget is not None:
                with iset_budget(budget):
                    cps_all, nest_plans, private_arrays, localized_arrays = (
                        analyze_program(sub, ctx, merged)
                    )
            else:
                cps_all, nest_plans, private_arrays, localized_arrays = (
                    analyze_program(sub, ctx, merged)
                )
        except KeyError as exc:
            raise CodegenUnsupported(
                f"analysis requires compile-time values: {exc}"
            ) from exc
    return AnalysisArtifact(
        sub=sub, ctx=ctx, merged=merged, cps=cps_all, nest_plans=nest_plans,
        private_arrays=private_arrays, localized_arrays=localized_arrays,
    )


def stage_codegen(
    art: AnalysisArtifact,
    nprocs: int,
    backend: str,
    sink: DiagnosticSink,
) -> "CompiledKernel":
    """Codegen stage (strict): reject pipelined communication (a codegen
    limitation, not an analysis one — re-checked here so analysis-tier
    cache hits still fail identically), build the executable kernel, and
    pre-emit both node-program texts."""
    from ..codegen.spmd import CodegenUnsupported, CompiledKernel

    for _, plan in art.nest_plans:
        for ev in plan.live_events():
            if ev.placement.pipelined:
                raise CodegenUnsupported(
                    f"pipelined communication for array {ev.array!r} "
                    "(wavefront kernels are executed by repro.parallel.dhpf)"
                )
    try:
        return CompiledKernel(
            art.sub, art.ctx, art.merged, art.cps, art.nest_plans, nprocs,
            art.private_arrays, art.localized_arrays, backend=backend,
            sink=sink,
        )
    except KeyError as exc:
        raise CodegenUnsupported(
            f"analysis requires compile-time values: {exc}"
        ) from exc


@dataclass
class StageRecord:
    """Cold-path byproducts the caching driver persists: the pickled
    parse/selection artifacts, captured immediately after their stage ran
    (so later stages mutating the IR can never leak into an earlier
    tier).  ``analysis_payload`` holds a :class:`SelectionArtifact`."""

    parse_payload: bytes | None = None
    analysis_payload: bytes | None = None


def build_kernel(
    source_or_sub,
    nprocs: int,
    params: dict,
    backend: str,
    sink: DiagnosticSink,
    budget,
    record: StageRecord | None = None,
    sub: "Subroutine | None" = None,
    analysis: AnalysisArtifact | None = None,
) -> "CompiledKernel":
    """Run the staged pipeline cold (no kernel-tier hit).

    ``sub``/``analysis`` inject warm earlier-stage artifacts; *record*,
    when given, captures the serialized stage outputs for cache
    population.  Semantics are exactly the historical monolithic
    ``compile_kernel`` body.
    """
    from ..codegen.spmd import _build_lenient
    from ..isets import IsetBudget

    new_epoch()
    lenient = not sink.strict
    if sub is None and (analysis is None or lenient):
        # (skipped entirely on a strict selection-tier hit — the artifact
        # carries its own analyzed Subroutine)
        if isinstance(source_or_sub, str):
            # fresh parse: sids 1..N regardless of process history (IR
            # passed in directly keeps its caller-assigned sids)
            reset_sids()
        with profile_phase("parse"):
            sub = stage_parse(source_or_sub, sink)
        if record is not None and not lenient:
            record.parse_payload = _dumps(ParseArtifact(sub=sub))
    # resume the sid allocator after the highest sid in play, so
    # statements created by later transforms (loop distribution,
    # inlining, interchange) number identically warm and cold
    _seed_sids(analysis.sub if sub is None and analysis is not None else sub)
    if not lenient:
        if analysis is None:
            selart = stage_select(sub, params) if budget is None else None
            if selart is not None:
                if record is not None:
                    record.analysis_payload = _dumps(selart)
                analysis = stage_specialize(selart, nprocs, params)
            else:
                analysis = _analyze_direct(sub, nprocs, params, budget=budget)
        with profile_phase("codegen"):
            kernel = stage_codegen(analysis, nprocs, backend, sink)
    else:
        if budget is None:
            budget = IsetBudget()
        try:
            kernel = _build_lenient(sub, nprocs, params, backend, sink, budget)
        except Exception as exc:
            from ..codegen.spmd import _strip_directives

            sink.fallback(
                "whole-program replicated fallback: "
                f"{type(exc).__name__}: {exc}",
                pass_name="driver",
            )
            stripped = _strip_directives(sub)
            with budget.suspend():
                kernel = _build_lenient(
                    stripped, nprocs, params, backend, sink, budget
                )
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


def _pre_emit(kernel: "CompiledKernel") -> bool:
    """Emit both node programs so the artifact carries the final text.
    False (do not cache) if emission fails — the error must re-raise at
    ``python_source`` time on every call, exactly as without a cache."""
    try:
        kernel.python_source("mpi")
        kernel.python_source("shmem")
    except Exception:
        return False
    return True


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

    read_ok = budget is None
    if read_ok:
        payload = cache.get(key.kernel_digest)
        if payload is not None:
            art = _loads(payload)
            if isinstance(art, KernelArtifact):
                return _replay(art.kernel, sink)

    # stage-tier reuse (strict only; see module docstring).  The selection
    # tier is keyed without nprocs: a hit pays only specialization (comm
    # analysis) and codegen — one symbolic selection serves a whole
    # processor-count sweep.
    sub = analysis = None
    if read_ok and sink.strict:
        apayload = cache.get(key.analysis_digest)
        if apayload is not None:
            aart = _loads(apayload)
            if isinstance(aart, SelectionArtifact):
                new_epoch()
                _seed_sids(aart.sub)
                try:
                    analysis = stage_specialize(aart, nprocs, params)
                except Exception:
                    analysis = None  # treat as a miss; cold path re-raises typed
        if analysis is None:
            ppayload = cache.get(key.parse_digest)
            if ppayload is not None:
                part = _loads(ppayload)
                if isinstance(part, ParseArtifact):
                    sub = part.sub

    mark = len(sink.diagnostics)
    record = StageRecord()
    kernel = build_kernel(
        source, nprocs, params, backend, sink, budget,
        record=record, sub=sub, analysis=analysis,
    )
    if budget is None and _pre_emit(kernel):
        compiled_diags = list(sink.diagnostics[mark:])
        caller_sink, kernel.sink = kernel.sink, DiagnosticSink(
            strict=sink.strict, diagnostics=compiled_diags
        )
        try:
            cache.put(key.kernel_digest, _dumps(KernelArtifact(kernel=kernel)))
        finally:
            kernel.sink = caller_sink
        if record.parse_payload is not None:
            cache.put(key.parse_digest, record.parse_payload)
        if record.analysis_payload is not None:
            cache.put(key.analysis_digest, record.analysis_payload)
    return kernel
