"""One dependence analysis per nest per compile.

§5 grouping, communication placement and §7 availability all read the
dependences of a nest from its ``NestInfo``; selection hands that object
to specialization in memory, and a selection served from the plan cache
(which never pickles it) analyzes once in specialization instead.
"""

import pytest

from repro.analysis.availability import AvailabilityAnalyzer
from repro.analysis.dependence import DependenceAnalyzer
from repro.codegen import compile_kernel
from repro.comm import CommAnalyzer
from repro.compile import PlanCache, PlanCacheConfig, pipeline, use_cache
from repro.cp import CPGrouper
from repro.cp.nest import NestInfo
from repro.cp.select import CPSelector
from repro.distrib import DistributionContext
from repro.frontend import parse_source
from repro.ir.stmt import DoLoop
from repro.isets import reset_caches
from repro.nas import kernels

KERNELS = [
    pytest.param(kernels.scaled(kernels.LHSY_SP), {"n": 12}, id="lhsy"),
    pytest.param(
        kernels.scaled(kernels.COMPUTE_RHS_SP), {"n": 12, "nx": 12}, id="sp_compute_rhs"
    ),
]


class _Recorder:
    """Roots of the ``DependenceAnalyzer.dependences`` entries made by one
    compile's analysis stages, in call order.  Recording stops when code
    generation starts: the vector backend runs its own, differently
    parameterised analyses from there on (also at ``python_source``)."""

    def __init__(self):
        self.rearm()

    def rearm(self) -> None:
        self.roots: list = []
        self.recording = True


@pytest.fixture
def analysis_calls(monkeypatch):
    rec = _Recorder()
    dependences = DependenceAnalyzer.dependences
    stage_codegen = pipeline.stage_codegen

    def counting(self, *args, **kwargs):
        if rec.recording:
            rec.roots.append(self.region[0])
        return dependences(self, *args, **kwargs)

    def codegen(*args, **kwargs):
        rec.recording = False
        return stage_codegen(*args, **kwargs)

    monkeypatch.setattr(DependenceAnalyzer, "dependences", counting)
    monkeypatch.setattr(pipeline, "stage_codegen", codegen)
    return rec


def _nests(ck) -> list:
    return [s for s in ck.sub.body if isinstance(s, DoLoop)]


@pytest.mark.parametrize("source, params", KERNELS)
def test_cold_compile_analyzes_each_nest_once(source, params, analysis_calls):
    reset_caches()
    with use_cache(None):
        ck = compile_kernel(source, 4, params)
    nests = _nests(ck)
    assert nests and len(analysis_calls.roots) == len(nests)
    assert all(a is b for a, b in zip(analysis_calls.roots, nests))


@pytest.mark.parametrize("source, params", KERNELS)
def test_selection_tier_hit_analyzes_each_nest_once(
    source, params, analysis_calls, tmp_path
):
    def fresh_cache():
        return PlanCache(PlanCacheConfig(directory=str(tmp_path)))

    with use_cache(fresh_cache()):
        compile_kernel(source, 4, params)
    analysis_calls.rearm()
    cache = fresh_cache()  # empty LRU: the selection comes off the disk
    with use_cache(cache):
        ck = compile_kernel(source, 8, params)
    assert cache.stats.disk_hits == 1 and cache.stats.lru_hits == 0
    nests = _nests(ck)
    assert nests and len(analysis_calls.roots) == len(nests)
    assert all(a is b for a, b in zip(analysis_calls.roots, nests))


def test_standalone_availability_agrees_with_shared_dependences():
    ev = {"n": 17, "m": 0}
    sub = parse_source(kernels.Y_SOLVE_SP).get("y_solve")
    ctx = DistributionContext(sub, nprocs=4, params=ev)
    kloop = sub.body[0]
    res = CPGrouper(ctx, CPSelector(ctx, eval_params=ev)).group(kloop, params=ev)

    alone = AvailabilityAnalyzer(kloop, res.cps, ctx, ev)
    nest = NestInfo(kloop, ev)
    shared = AvailabilityAnalyzer(kloop, res.cps, ctx, ev, nest=nest)
    assert shared.deps is nest.deps and alone.deps is not nest.deps
    assert alone.deps == nest.deps == DependenceAnalyzer(kloop, ev).dependences()
    assert alone.eliminated_refs() == shared.eliminated_refs() != set()

    comm = CommAnalyzer(kloop, res.cps, ctx, ev, nest=nest)
    assert comm.deps is nest.deps
    plan, plan_alone = comm.analyze(), CommAnalyzer(kloop, res.cps, ctx, ev).analyze()
    assert [
        (e.array, e.kind, e.placement.level, e.eliminated_by_availability)
        for e in plan.events
    ] == [
        (e.array, e.kind, e.placement.level, e.eliminated_by_availability)
        for e in plan_alone.events
    ]
