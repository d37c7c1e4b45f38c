"""§7 availability oracle: the plan's ``eliminated_by_availability`` against
the rule recomputed from scratch.

For every read of every analyzed nest the test derives, without the
communication analyzer, the read's non-local data (its access set under
the statement's CP minus the array's ownership), finds the last writer by
walking a fresh dependence graph itself, derives that writer's non-local
write data the same way, and asserts the read's event is eliminated
exactly when the first set is a subset of the second.  Every non-local
read must have an event, and an eliminated read must be covered on every
rank of the grid point by point, too.
"""

import pytest

from repro.compile.pipeline import analyze_source
from repro.cp.model import cp_iteration_set
from repro.cp.nest import NestInfo, access_data_set
from repro.distrib import PDIM
from repro.eval.fuzz import gen_spec
from repro.ir.stmt import Assign
from repro.ir.visit import collect_array_refs
from repro.nas.specs import all_specs

FUZZ_SEEDS = range(0, 60, 4)


def _nonlocal(ref, stmt, cps, nest, ctx, params, excluded):
    """Non-local data of *ref* in *stmt*, or None when there is none."""
    scp = cps.get(stmt.sid)
    layout = ctx.layout(ref.name)
    if scp is None or layout is None or ref.name.lower() in excluded:
        return None
    dims, bounds = nest.dims_of(stmt), nest.bounds_of(stmt)
    if bounds is None:
        return None
    iters = cp_iteration_set(scp.cp, dims, bounds.bind(params), ctx)
    data = access_data_set(ref, iters, dims)
    if data is None:
        return None
    nl = data.subtract(layout.ownership())
    return None if nl.is_empty() else nl


def _last_writer(nest, stmt, ref):
    """The writer of the deepest flow edge into *ref*; the textually
    later writer on a tie."""
    flows = [
        d for d in nest.deps
        if d.kind == "flow" and d.dst is stmt and d.dst_ref is ref
        and isinstance(d.src, Assign)
    ]
    if not flows:
        return None
    return max(flows, key=lambda d: (d.level, nest.order[d.src.sid])).src


def _covered_on_every_rank(read, write, ctx, params) -> bool:
    for coords in ctx.the_grid().all_coords():
        binding = {**params, **{PDIM(g): c for g, c in enumerate(coords)}}
        if not read.bind(binding).points() <= write.bind(binding).points():
            return False
    return True


def _check(art) -> "tuple[int, int]":
    """Assert the oracle over one analysis; (reads checked, eliminated)."""
    ctx, params, cps = art.ctx, art.params, art.cps
    checked = eliminated = 0
    for item, plan in art.nest_plans:
        nest = NestInfo(item, params)  # a dependence analysis of its own
        reads = [e for e in plan.events if e.kind == "read"]
        excluded = plan.excluded_arrays
        for stmt in nest.assignments():
            for ref in collect_array_refs(stmt.rhs):
                nl = _nonlocal(ref, stmt, cps, nest, ctx, params, excluded)
                event = next(
                    (e for e in reads if e.stmt is stmt and e.ref is ref), None
                )
                assert (event is None) == (nl is None), (stmt, ref)
                if nl is None:
                    continue
                reads.remove(event)
                w = _last_writer(nest, stmt, ref)
                wnl = (
                    _nonlocal(w.lhs, w, cps, nest, ctx, params, excluded)
                    if w is not None else None
                )
                expect = wnl is not None and nl.is_subset(wnl)
                assert event.eliminated_by_availability == expect, (stmt, ref)
                if expect:
                    assert _covered_on_every_rank(nl, wnl, ctx, params)
                    eliminated += 1
                checked += 1
        assert not reads, "read events with no non-local read behind them"
    return checked, eliminated


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.key)
def test_spec_row_eliminations_match_the_rule(spec):
    art = analyze_source(spec.program(), spec.nprocs, spec.params)
    _, eliminated = _check(art)
    if spec.pipelined:
        # Figure 5.1's line solves are where §7 removes communication
        assert eliminated > 0


def test_fuzz_sample_eliminations_match_the_rule():
    checked = 0
    for seed in FUZZ_SEEDS:
        spec = gen_spec(seed)
        checked += _check(analyze_source(spec.render(), spec.nprocs, {}))[0]
    assert checked > 0
