"""One dependence analysis per nest per compile.

§5 grouping, communication placement, §7 availability and the soundness
screen all read the dependences of a nest from its one ``NestInfo``.
Selection hands that object to specialization, and it rides in the
selection's pickle: a selection served from the plan cache analyzes no
dependences again.  The kernel keeps the nests, so verifying it in the
process that compiled it analyzes none again either.
"""

import pickle

import pytest

from repro.analysis.dependence import DependenceAnalyzer
from repro.check import verify_kernel
from repro.codegen import compile_kernel
from repro.comm import CommAnalyzer
from repro.compile import PlanCache, PlanCacheConfig, pipeline, use_cache
from repro.cp import CPGrouper
from repro.cp.nest import NestInfo
from repro.cp.select import CPSelector
from repro.distrib import DistributionContext
from repro.frontend import parse_source
from repro.ir.stmt import DoLoop
from repro.nas import kernels

KERNELS = [
    pytest.param(kernels.scaled(kernels.LHSY_SP), {"n": 12}, id="lhsy"),
    pytest.param(
        kernels.scaled(kernels.COMPUTE_RHS_SP), {"n": 12, "nx": 12}, id="sp_compute_rhs"
    ),
]


#: two nests: the race check pairs the first's writes with the second's reads
TWO_NESTS = """
      program halo
      parameter (n = 16)
      real a(n), b(n)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ distribute b(block) onto p
      do i = 1, n
         a(i) = i * 0.5
      enddo
      do i = 2, n
         b(i) = a(i - 1) + a(i)
      enddo
      end
"""


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
    with use_cache(None):
        ck = compile_kernel(source, 4, params)
    nests = _nests(ck)
    assert nests and len(analysis_calls.roots) == len(nests)
    assert all(a is b for a, b in zip(analysis_calls.roots, nests))


@pytest.mark.parametrize("source, params", [
    *KERNELS, pytest.param(TWO_NESTS, {}, id="two_nests")])
def test_compile_and_verify_analyze_each_nest_once(source, params, monkeypatch):
    """Verifying a kernel in the process that compiled it reads the
    dependences its analysis computed: the race check takes a nest's from
    its ``NestInfo`` and pairs writes with later nests' reads itself, so
    compile and verify together analyze each nest once."""
    roots = []
    dependences = DependenceAnalyzer.dependences

    def counting(self, *args, **kwargs):
        roots.append(self.region[0])
        return dependences(self, *args, **kwargs)

    monkeypatch.setattr(DependenceAnalyzer, "dependences", counting)
    with use_cache(None):
        ck = compile_kernel(source, 4, params)
    assert verify_kernel(ck).ok
    nests = _nests(ck)
    assert len(roots) == len(nests) and all(a is b for a, b in zip(roots, nests))


@pytest.mark.parametrize("source, params", KERNELS)
def test_selection_tier_hit_analyzes_each_nest_once(
    source, params, analysis_calls, tmp_path
):
    """The compile that made the selection analyzed each nest; one served
    that selection off the disk analyzes none, and emits what a cold
    compile at its rank count emits."""

    def fresh_cache():
        return PlanCache(PlanCacheConfig(directory=str(tmp_path)))

    with use_cache(fresh_cache()):
        compile_kernel(source, 4, params)
    analysis_calls.rearm()
    cache = fresh_cache()  # empty LRU: the selection comes off the disk
    with use_cache(cache):
        ck = compile_kernel(source, 8, params)
    assert cache.stats.disk_hits == 1 and cache.stats.lru_hits == 0
    assert _nests(ck) and analysis_calls.roots == []
    with use_cache(None):
        cold = compile_kernel(source, 8, params)
    for target in ("mpi", "shmem"):
        assert ck.python_source(target) == cold.python_source(target)


def test_selection_pickled_apart_from_its_unit_is_reanalyzed(analysis_calls):
    """A selection whose ``NestInfo`` names other statement objects than
    the unit it is specialized on gets a fresh one: the same plan, from
    one dependence analysis per nest."""
    params = {"n": 12}
    sub = parse_source(kernels.scaled(kernels.LHSY_SP)).get("lhsy")
    art = pipeline.stage_select(sub, params)
    apart = pickle.loads(pickle.dumps(art.selection))
    assert all(n.nest.root is not item for n, item in zip(apart.nests, _nests(art)))
    analysis_calls.rearm()
    shared = pipeline.stage_specialize(art, 4, params)
    assert analysis_calls.roots == []
    fresh = pipeline.stage_specialize(
        pipeline.SelectionArtifact(art.sub, art.merged, apart), 4, params
    )
    assert len(analysis_calls.roots) == len(_nests(art))
    assert all(a is b for a, b in zip(analysis_calls.roots, _nests(art)))
    assert [_rows(plan) for _, plan in fresh.nest_plans] == [
        _rows(plan) for _, plan in shared.nest_plans
    ]


def _rows(plan) -> list:
    return [
        (e.array, e.kind, e.stmt.sid, e.placement.level,
         e.eliminated_by_availability, e.coalesced_into, str(e.data))
        for e in plan.events
    ]


def test_standalone_availability_agrees_with_shared_dependences():
    ev = {"n": 17, "m": 0}
    sub = parse_source(kernels.Y_SOLVE_SP).get("y_solve")
    ctx = DistributionContext(sub, nprocs=4, params=ev)
    kloop = sub.body[0]
    res = CPGrouper(ctx, CPSelector(ctx, eval_params=ev)).group(kloop, params=ev)

    nest = NestInfo(kloop, ev)
    comm = CommAnalyzer(kloop, res.cps, ctx, ev, nest=nest)
    alone = CommAnalyzer(kloop, res.cps, ctx, ev)
    assert comm.deps is nest.deps and alone.deps is not nest.deps
    assert alone.deps == nest.deps == DependenceAnalyzer(kloop, ev).dependences()

    plan = comm.analyze()
    assert _rows(plan) == _rows(alone.analyze())
    assert any(e.eliminated_by_availability for e in plan.events)
