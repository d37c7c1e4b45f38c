"""Regression tests for the rank-symbolic plan path (PR 9), the only
analysis path since PR 20.

The staged pipeline splits analysis into ``stage_select`` (CP
selection, propagation, grouping at the *canonical* processor count —
``nprocs``-free) and ``stage_specialize`` (communication analysis at the
concrete target count).  These tests pin the contract that makes the
split safe to cache:

- the emitted node programs (both mpi and shmem texts) are **bitwise
  identical** to the reference ``_analyze_direct`` (selection made at
  the target count), on every benchmarked paper kernel and on
  wildcard-grid NAS class-S kernels across a rank sweep;
- strict, lenient and budgeted compiles all take it, and nothing falls
  back to anything else: a failing selection raises;
- ``PlanKey.analysis_digest`` is ``nprocs``-free (one selection artifact
  serves a whole processor-count sweep) while ``kernel_digest`` still
  separates counts;
- a plan-cache fan-out really reuses the selection tier: the second
  count in a sweep runs no parse and no select phase, only specialize.

Statement ids are assigned by a global counter at parse, so both paths
must analyze deepcopies of ONE shared parse — separate parses differ in
``G.boxes(<sid>, ...)`` ids and would mask real divergence.
"""

import copy

import pytest

from repro.compile.cache import PlanCache, PlanCacheConfig
from repro.compile.key import PlanKey
from repro.compile.pipeline import (
    _analyze_direct,
    cached_compile,
    stage_codegen,
    stage_parse,
    stage_select,
    stage_specialize,
)
from repro.diag import DiagnosticSink
from repro.isets import new_epoch
from repro.isets.profile import profiled
from repro.nas import kernels as nas_kernels
from repro.nas.specs import kernel_specs

TARGETS = ("mpi", "shmem")


def _parse(spec_source, build=None):
    sink = DiagnosticSink(strict=True)
    if spec_source is not None:
        return stage_parse(spec_source, sink)
    return stage_parse(build(), sink)


def _emit(sub, nprocs, params, *, symbolic):
    """Emit both node-program texts: selection at the canonical count
    (*symbolic*, what every compile does) or at the target count (the
    reference)."""
    sink = DiagnosticSink(strict=True)
    new_epoch()
    if symbolic:
        art = stage_specialize(stage_select(sub, params), nprocs, params)
    else:
        art = _analyze_direct(sub, nprocs, params)
    kern = stage_codegen(art, nprocs, "vector", sink)
    return {t: kern.python_source(t) for t in TARGETS}


@pytest.mark.parametrize(
    "spec", kernel_specs(), ids=lambda s: s.name.replace(" ", "_")
)
def test_symbolic_identical_to_legacy_on_benchmark_kernels(spec):
    sub0 = _parse(spec.source, spec.build)
    sym = _emit(copy.deepcopy(sub0), spec.nprocs, spec.params, symbolic=True)
    legacy = _emit(copy.deepcopy(sub0), spec.nprocs, spec.params,
                   symbolic=False)
    for t in TARGETS:
        assert sym[t] == legacy[t], (spec.name, t)


_SCALED = {
    "sp": (nas_kernels.COMPUTE_RHS_SP, {"n": 12, "nx": 12}),
    "bt": (nas_kernels.COMPUTE_RHS_BT, {"n": 12}),
    "lhsy": (nas_kernels.LHSY_SP, {"n": 10}),
}


@pytest.mark.parametrize("source_name,nprocs", [
    ("sp", 4), ("sp", 16), ("bt", 8), ("lhsy", 2), ("lhsy", 4), ("lhsy", 8),
])
def test_symbolic_identical_on_scaled_class_s_sweep(source_name, nprocs):
    source, params = _SCALED[source_name]
    src = nas_kernels.scaled(source)
    sub0 = _parse(src)
    sym = _emit(copy.deepcopy(sub0), nprocs, params, symbolic=True)
    legacy = _emit(copy.deepcopy(sub0), nprocs, params, symbolic=False)
    for t in TARGETS:
        assert sym[t] == legacy[t], (source_name, nprocs, t)


def test_analysis_digest_is_nprocs_free():
    src = nas_kernels.scaled(nas_kernels.COMPUTE_RHS_SP)
    k4 = PlanKey.for_source(src, 4, {"n": 12})
    k9 = PlanKey.for_source(src, 9, {"n": 12})
    assert k4.analysis_digest == k9.analysis_digest
    assert k4.kernel_digest != k9.kernel_digest
    assert k4.parse_digest == k9.parse_digest
    # anything else still separates the selection tier
    other = PlanKey.for_source(src, 4, {"n": 13})
    assert other.analysis_digest != k4.analysis_digest


def test_plan_cache_fans_selection_across_rank_sweep():
    cache = PlanCache(PlanCacheConfig(directory=None))  # memory-only
    src = nas_kernels.scaled(nas_kernels.LHSY_SP)
    params = {"n": 10}

    sink = DiagnosticSink(strict=True)
    cached_compile(src, 4, params, "vector", sink, None, cache)
    k4 = PlanKey.for_source(src, 4, params)
    assert cache.get(k4.analysis_digest) is not None

    # second count in the sweep: selection-tier hit — no parse, no select
    with profiled("fanout") as prof:
        kern9 = cached_compile(
            src, 9, params, "vector", DiagnosticSink(strict=True), None, cache
        )
    phases = prof.root.children
    assert "specialize" in phases
    assert "parse" not in phases
    assert "select" not in phases
    assert "grid (3, 3)" in kern9.python_source("mpi")


@pytest.mark.parametrize("how", ["lenient", "budgeted"])
def test_lenient_and_budgeted_compiles_take_the_one_path(how):
    from repro.codegen import compile_kernel
    from repro.compile import cache_disabled
    from repro.isets import IsetBudget

    src = nas_kernels.scaled(nas_kernels.LHSY_SP)
    kw = {"strict": False} if how == "lenient" else {"budget": IsetBudget()}
    with cache_disabled():
        strict = compile_kernel(src, 9, {"n": 10})
        with profiled(how) as prof:
            kern = compile_kernel(src, 9, {"n": 10}, **kw)
    phases = prof.root.children
    assert "select" in phases and "specialize" in phases
    assert "analyze" not in phases
    assert not kern.fallback_diagnostics
    for t in TARGETS:
        assert kern.python_source(t) == strict.python_source(t), t


def test_stage_select_propagates_a_failing_selection(monkeypatch):
    import repro.codegen.spmd as spmd

    def boom(*a, **kw):
        raise RuntimeError("selection blew up")

    monkeypatch.setattr(spmd, "select_program", boom)
    sub = _parse(nas_kernels.scaled(nas_kernels.LHSY_SP))
    with pytest.raises(RuntimeError, match="selection blew up"):
        stage_select(sub, {"n": 10})


def test_non_affine_grid_extent_raises_the_distribution_error():
    """No canonical count exists for `procs(np/2)`; the per-nprocs loop the
    old fallback ran raised this same error one frame later."""
    from repro.codegen import compile_kernel
    from repro.compile import cache_disabled

    src = nas_kernels.LHSY_SP.replace("procs(2,2)", "procs(np/2, 2)")
    assert src != nas_kernels.LHSY_SP
    with cache_disabled(), pytest.raises(ValueError) as ei:
        compile_kernel(src, 4, {"n": 10, "np": 4})
    assert str(ei.value) == "directive expression (np / 2) is not affine"
