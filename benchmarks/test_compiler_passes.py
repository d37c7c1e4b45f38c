"""Benchmark the compiler passes themselves (frontend → codegen).

Not a paper table — engineering benchmarks that keep the analysis passes'
cost visible (the integer-set framework is the hot spot, as it was for the
real dHPF).
"""


from repro.analysis.dependence import DependenceAnalyzer
from repro.codegen import compile_kernel
from repro.cp import CPGrouper
from repro.cp.select import CPSelector
from repro.distrib import DistributionContext
from repro.frontend import parse_source
from repro.isets import box
from repro.nas import kernels

EV = {"n": 17, "m": 0}


def test_parse_y_solve(benchmark):
    prog = benchmark(parse_source, kernels.Y_SOLVE_SP)
    assert "y_solve" in prog


def test_dependence_analysis_y_solve(benchmark):
    sub = parse_source(kernels.Y_SOLVE_SP).get("y_solve")
    deps = benchmark(lambda: DependenceAnalyzer(sub.body[0], EV).dependences())
    assert deps


def test_cp_selection_y_solve(benchmark):
    sub = parse_source(kernels.Y_SOLVE_SP).get("y_solve")
    ctx = DistributionContext(sub, 4, EV)
    sel = CPSelector(ctx, eval_params=EV)
    cps = benchmark(sel.select, sub.body[0], EV)
    assert cps


def test_cp_grouping_y_solve(benchmark):
    sub = parse_source(kernels.Y_SOLVE_SP).get("y_solve")
    ctx = DistributionContext(sub, 4, EV)
    grouper = CPGrouper(ctx, CPSelector(ctx, eval_params=EV))
    res = benchmark(grouper.group, sub.body[0], None, None, EV)
    assert res.all_localized()


def test_full_compile_lhsy(benchmark):
    ck = benchmark(compile_kernel, kernels.LHSY_SP, 4, {"n": 17})
    assert not any(p.live_events() for _, p in ck.nest_plans)


def test_iset_difference(benchmark):
    a = box(["i", "j"], [(0, 63), (0, 63)])
    b = box(["i", "j"], [(8, 55), (8, 55)])

    def diff_count():
        return (a - b).count({})

    n = benchmark(diff_count)
    assert n == 64 * 64 - 48 * 48
