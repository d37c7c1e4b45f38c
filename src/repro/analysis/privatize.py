"""Privatizability analysis — validating (and discovering) NEW variables.

An array (or scalar) is *privatizable* on a loop when every element read in
an iteration was written earlier in the *same* iteration, and no value
assigned inside the loop is live after it (§4.1).  HPF's NEW directive
asserts this; dHPF still needs the analysis both to sanity-check the
directive and to discover privatizable temporaries the user did not mark.

Memory-based dependence edges cannot prove this (without array kill
analysis, the write in iteration *i* appears to reach reads in iteration
*i+1* even though it is always overwritten first).  We instead use the
classic coverage formulation à la Tu & Padua, computed with integer sets:

    for every read site R of v inside loop L:
        elements_read(R, iteration) ⊆ ⋃ elements_written(W, iteration)
                                        for writes W textually before R

with the L-iteration symbolic.  Textual order is a sound approximation of
same-iteration execution order for the structured (goto-free) bodies the
mini-frontend accepts.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..ir.expr import ArrayRef, Var, to_affine
from ..ir.stmt import Assign, DoLoop, Stmt
from ..ir.visit import build_parent_map, enclosing_loops, reads_of, walk_stmts
from ..isets import BasicSet, Constraint, ISet, LinExpr
from ..isets.terms import E


def ref_element_set(
    ref: ArrayRef | Var,
    stmt: Stmt,
    region_loop: DoLoop,
    parents: dict[int, Stmt | None],
    params: Mapping[str, int] | None = None,
) -> ISet | None:
    """Elements of ``ref`` touched during ONE iteration of *region_loop*.

    The result is an ISet over element dims ``e$k``; inner loop variables
    are existentially projected out, while ``region_loop``'s own index and
    anything outer remain free symbolic parameters.  Returns None if any
    subscript or inner bound is non-affine.
    """
    if isinstance(ref, Var):
        return ISet(("e$0",), [BasicSet(("e$0",), [Constraint.eq(E("e$0"), 0)])])
    subs = ref.affine_subscripts()
    if subs is None:
        return None
    loops = enclosing_loops(stmt, parents)
    if region_loop in loops:
        inner = loops[loops.index(region_loop) + 1 :]
    else:
        inner = loops  # stmt deeper than the region head: treat all as inner
    dims = tuple(f"e${k}" for k in range(len(subs)))
    cons: list[Constraint] = []
    for k, e in enumerate(subs):
        cons.append(Constraint.eq(E(dims[k]), e))
    for l in inner:
        lo, hi = to_affine(l.lo), to_affine(l.hi)
        step = to_affine(l.step)
        if lo is None or hi is None or step is None or not step.is_constant() or step.constant != 1:
            return None
        cons.append(Constraint.ge(E(l.var), lo))
        cons.append(Constraint.le(E(l.var), hi))
    if params:
        binding = {k: LinExpr.const(v) for k, v in params.items()}
        cons = [c.substitute(binding) for c in cons]
    bs = BasicSet(dims, cons, exists=[l.var for l in inner])
    return ISet(dims, [bs.eliminate_exists()])


def check_privatizable(
    loop: DoLoop,
    var: str,
    params: Mapping[str, int] | None = None,
) -> bool:
    """Is *var* privatizable on *loop*? (see module docstring)."""
    var = var.lower()
    parents = build_parent_map([loop])
    order = {s.sid: i for i, s in enumerate(walk_stmts([loop]))}

    read_sites: list[tuple[Stmt, ArrayRef | Var]] = []
    write_sites: list[tuple[Stmt, ArrayRef | Var]] = []
    for s in walk_stmts(loop.body):
        if isinstance(s, Assign) and s.lhs.name.lower() == var:
            write_sites.append((s, s.lhs))
        for r in reads_of(s):
            if isinstance(r, (ArrayRef, Var)) and r.name.lower() == var:
                # skip loop-index vars masquerading as scalars
                if isinstance(r, Var) and any(
                    l.var == r.name for l in enclosing_loops(s, parents)
                ):
                    continue
                read_sites.append((s, r))

    if not read_sites:
        return bool(write_sites)  # write-only temp: trivially privatizable

    for rstmt, rref in read_sites:
        rset = ref_element_set(rref, rstmt, loop, parents, params)
        if rset is None:
            return False
        covered: ISet | None = None
        for wstmt, wref in write_sites:
            if order[wstmt.sid] >= order[rstmt.sid]:
                continue
            wset = ref_element_set(wref, wstmt, loop, parents, params)
            if wset is None:
                return False
            covered = wset if covered is None else covered.union(wset)
        if covered is None or not rset.is_subset(covered):
            return False
    return True


def privatizable_candidates(
    loop: DoLoop,
    arrays: Iterable[str],
    params: Mapping[str, int] | None = None,
) -> list[str]:
    """Subset of *arrays* that the analysis can prove privatizable on *loop*."""
    return [a for a in arrays if check_privatizable(loop, a, params)]
