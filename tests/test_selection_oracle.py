"""§2 CP selection against references that build everything from scratch.

The cost model counts a statement's non-local elements in closed form on
per-rank boxes when it can, and the dependence analyzer assembles each
pair's system from pieces built once per reference.  Both are checked
here against the symbolic path they replace: every (statement, candidate
CP) cost equals the ``subtract → bind → close_params → count`` reference,
and every nest's dependence edges equal a from-scratch pair-by-pair
analysis, edge for edge and in the same order.  The box path must answer
most queries of SP ``compute_rhs`` (a silent fall-through fails), and a
CYCLIC layout — exists-quantified ownership — must take the fallback.
"""

import pytest

from repro.analysis.dependence import LI, Dependence, DependenceAnalyzer
from repro.compile.pipeline import stage_parse
from repro.cp.model import CP, cp_iteration_set
from repro.cp.nest import NestInfo, access_data_set
from repro.cp.select import LATENCY_WEIGHT, CPSelector
from repro.diag import DiagnosticSink
from repro.distrib.layout import DistributionContext, canonical_nprocs
from repro.eval.fuzz import gen_spec
from repro.ir.expr import ArrayRef, Var, to_affine
from repro.ir.stmt import Assign, DoLoop
from repro.ir.visit import (
    build_parent_map, collect_array_refs, enclosing_loops, reads_of, walk_stmts,
)
from repro.isets import BasicSet, Constraint, ISet, LinExpr
from repro.isets.terms import E
from repro.nas.specs import all_specs

FUZZ_SEEDS = range(0, 60, 4)

CYCLIC = """
      subroutine s(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx), b(0:nx)
chpf$ processors p(4)
chpf$ distribute a(cyclic) onto p
chpf$ distribute b(cyclic) onto p
      do i = 1, n - 2
         a(i) = b(i - 1) + b(i + 1)
      enddo
      end
"""


# -- references ---------------------------------------------------------------

def reference_cost(sel: CPSelector, stmt: Assign, cp: CP, nest: NestInfo) -> float:
    """The symbolic cost model: each non-local set as a difference of
    sets, bound per sampled processor, closed and counted."""
    dims = nest.dims_of(stmt)
    bounds = nest.bounds_of(stmt)
    if bounds is None:
        return 0.0
    bounds = bounds.bind(sel.eval_params)
    iters = cp_iteration_set(cp.substitute({}), dims, bounds, sel.ctx)
    nonlocal_sets = []
    for ref in collect_array_refs(stmt.rhs):
        layout = sel.ctx.layout(ref.name)
        if layout is None:
            continue
        data = access_data_set(ref, iters, dims)
        if data is None:
            return 1e6
        nonlocal_sets.append(data.subtract(layout.ownership()))
    if isinstance(stmt.lhs, ArrayRef):
        layout = sel.ctx.layout(stmt.lhs.name)
        if layout is not None:
            data = access_data_set(stmt.lhs, iters, dims)
            if data is not None:
                nonlocal_sets.append(data.subtract(layout.ownership()))
    cost = 0.0
    for proc in sel.sample_procs:
        binding = {**sel.eval_params, **proc}
        for s in nonlocal_sets:
            try:
                n = s.bind(binding).close_params().count()
            except ValueError:
                cost += LATENCY_WEIGHT
                continue
            if n:
                cost += LATENCY_WEIGHT + n
    return cost


def _renamed_bounds(loops, prefix, cons):
    binding = {}
    for k, loop in enumerate(loops):
        step = to_affine(loop.step)
        if step is None or not step.is_constant() or step.constant != 1:
            return None
        lo, hi = to_affine(loop.lo), to_affine(loop.hi)
        if lo is None or hi is None:
            return None
        v = E(f"{prefix}${k}")
        cons.append(Constraint.ge(v, lo.substitute(binding)))
        cons.append(Constraint.le(v, hi.substitute(binding)))
        binding[loop.var] = v
    return binding


def _pair_system(a, b, params):
    """One pair's (dims, constraints), built from nothing."""
    (sa, ra, la), (sb, rb, lb) = a, b
    cons = []
    src = _renamed_bounds(la, "s", cons)
    dst = _renamed_bounds(lb, "d", cons)
    if src is None or dst is None:
        return None
    if isinstance(ra, ArrayRef) and isinstance(rb, ArrayRef):
        xa, xb = ra.affine_subscripts(), rb.affine_subscripts()
        if xa is None or xb is None or len(xa) != len(xb):
            return None
        for ea, eb in zip(xa, xb):
            cons.append(Constraint.eq(ea.substitute(src), eb.substitute(dst)))
    dims = tuple(f"s${k}" for k in range(len(la))) + tuple(
        f"d${k}" for k in range(len(lb)))
    pb = {k: LinExpr.const(v) for k, v in params.items()}
    return dims, [c.substitute(pb) for c in cons]


def reference_dependences(root: DoLoop, params) -> "list[Dependence]":
    """Every pair of references to one variable (one a write), its
    system rebuilt for each pair and each level."""
    parents = build_parent_map([root])
    order = {s.sid: i for i, s in enumerate(walk_stmts([root]))}
    loop_vars = {s.var for s in walk_stmts([root]) if isinstance(s, DoLoop)}
    sites: dict = {}
    for stmt in walk_stmts([root]):
        if not isinstance(stmt, Assign):
            continue
        loops = enclosing_loops(stmt, parents)
        refs = [(stmt.lhs, True)] + [
            (r, False) for r in reads_of(stmt)
            if not (isinstance(r, Var) and r.name in loop_vars)
        ]
        for ref, is_write in refs:
            sites.setdefault(ref.name.lower(), []).append(
                (stmt, ref, is_write, loops))
    out = []
    for var, group in sites.items():
        if not any(w for _s, _r, w, _l in group):
            continue
        for sa, ra, wa, la in group:
            for sb, rb, wb, lb in group:
                if not (wa or wb):
                    continue
                kind = "flow" if wa and not wb else "anti" if wb and not wa else "output"
                ncommon = 0
                for x, y in zip(la, lb):
                    if x is not y:
                        break
                    ncommon += 1
                before = order[sa.sid] < order[sb.sid]
                edge = lambda lvl: Dependence(sa, sb, var, kind, lvl, ra, rb)  # noqa: E731
                sys = _pair_system((sa, ra, la), (sb, rb, lb), params)
                if sys is None:
                    out.extend(edge(l) for l in range(1, ncommon + 1))
                    if before or (sa is not sb and order[sa.sid] == order[sb.sid]):
                        out.append(edge(LI))
                    continue
                dims, cons = sys
                same = [Constraint.eq(E(f"s${k}"), E(f"d${k}")) for k in range(ncommon)]
                for l in range(1, ncommon + 1):
                    extra = same[: l - 1] + [
                        Constraint.ge(E(f"d${l - 1}"), E(f"s${l - 1}") + 1)]
                    if not ISet(dims, [BasicSet(dims, cons + extra)]).is_empty():
                        out.append(edge(l))
                if before and not ISet(dims, [BasicSet(dims, cons + same)]).is_empty():
                    out.append(edge(LI))
    return out


# -- the oracle ------------------------------------------------------------------

def _edge(d: Dependence):
    return (d.src.sid, d.dst.sid, d.var, d.kind, d.level, id(d.src_ref), id(d.dst_ref))


def _check(source, params, nprocs) -> CPSelector:
    """Assert both oracles over every top-level nest of one source; the
    selector is returned for its query counts."""
    sub = stage_parse(source, DiagnosticSink(strict=False))
    try:
        count = canonical_nprocs(sub, params)
    except ValueError:
        count = nprocs
    ctx = DistributionContext(sub, count, params)
    merged = {**sub.symbols.parameter_values(), **params}
    sel = CPSelector(ctx, eval_params=merged)
    for item in sub.body:
        if not isinstance(item, DoLoop):
            continue
        got = DependenceAnalyzer(item, merged).dependences()
        assert [_edge(d) for d in got] == [
            _edge(d) for d in reference_dependences(item, merged)]
        nest = NestInfo(item, merged)
        for stmt in nest.assignments():
            for term in sel.candidates(stmt):
                cp = CP((term,))
                assert sel.statement_cost(stmt, cp, nest) == reference_cost(
                    sel, stmt, cp, nest), (stmt, str(cp))
    return sel


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.key)
def test_spec_row_selection_matches_the_references(spec):
    sel = _check(spec.program(), spec.params, spec.nprocs)
    if spec.key == "sp-rhs-s":
        assert sel.queries["box"] > sel.queries["fallback"], sel.queries


def test_fuzz_sample_selection_matches_the_references():
    for seed in FUZZ_SEEDS:
        spec = gen_spec(seed)
        _check(spec.render(), {}, spec.nprocs)


def test_cyclic_ownership_takes_the_symbolic_fallback():
    sel = _check(CYCLIC, {"n": 16}, 4)
    assert sel.queries["box"] == 0 and sel.queries["fallback"] > 0
