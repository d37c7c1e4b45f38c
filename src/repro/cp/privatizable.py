"""§4.1 — CP propagation for privatizable (NEW) arrays and scalars.

Each statement defining a privatizable variable receives the union of CPs
*translated* from every use of that variable, so each processor computes all
and only the private values it will consume.  Boundary values needed by two
processors get computed on both — partial replication of computation — and
the inner loop needs **no** communication for the private array, regardless
of (indeed independent of) the NEW variable's data layout.

Translation from a use to a definition follows the paper's three steps:

1. establish a 1-1 unit-coefficient mapping from use subscripts to
   definition subscripts (``[j]def -> [j-1]use`` for the use ``cv(j-1)``
   against the definition ``cv(j)``);
2. apply the inverse mapping to the subscripts of the ON_HOME references in
   the use's CP (``ON_HOME lhs(i,j,k,2)`` becomes ``ON_HOME
   lhs(i,j+1,k,2)``);
3. vectorize any remaining untranslated use-loop variables through the
   loops that enclose the use but not the definition (subscripts become
   ranges).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..distrib.layout import DistributionContext
from ..ir.expr import ArrayRef, Var, to_affine
from ..ir.stmt import Assign, DoLoop
from ..ir.visit import collect_array_refs, walk_stmts
from ..isets import LinExpr
from .model import CP, OnHomeRef, PointSub, RangeSub, SubScript
from .nest import NestInfo
from .select import StatementCP


def subscript_mapping(
    def_subs: Sequence[LinExpr] | None,
    use_subs: Sequence[LinExpr] | None,
    use_only_vars: set[str],
) -> dict[str, LinExpr]:
    """Solve ``g_k(i_use) = f_k(i_def)`` per position for use-only loop vars
    with unit coefficients.  Unsolvable positions are simply skipped (step 1
    of the paper: 'if it is not possible to establish a 1-1 mapping ... this
    step is simply skipped')."""
    binding: dict[str, LinExpr] = {}
    if def_subs is None or use_subs is None:
        return binding
    for f, g in zip(def_subs, use_subs):
        uvars = [v for v in g.vars() if v in use_only_vars and v not in binding]
        if len(uvars) != 1:
            continue
        u = uvars[0]
        c = g.coeff(u)
        if c not in (1, -1):
            continue
        # g = c*u + rest  =  f   =>   u = (f - rest) / c
        rest = g - LinExpr({u: c})
        binding[u] = (f - rest) * c
    return binding


def _vectorize_expr(
    e: LinExpr, var: str, loop: DoLoop
) -> tuple[LinExpr, LinExpr] | None:
    """Replace *var* in an affine expr by its loop range -> (lo_expr, hi_expr)."""
    lo, hi = to_affine(loop.lo), to_affine(loop.hi)
    if lo is None or hi is None:
        return None
    c = e.coeff(var)
    rest = e - LinExpr({var: c})
    a, b = rest + lo * c, rest + hi * c
    return (a, b) if c > 0 else (b, a)


def _vectorize_sub(
    s: SubScript, leftovers: dict[str, DoLoop]
) -> SubScript | None:
    """Vectorize every leftover use-only var appearing in a subscript."""
    if isinstance(s, PointSub):
        lo = hi = s.expr
    else:
        assert isinstance(s, RangeSub)
        lo, hi = s.lo, s.hi
    for var, loop in leftovers.items():
        if lo.coeff(var) != 0:
            r = _vectorize_expr(lo, var, loop)
            if r is None:
                return None
            lo = r[0]
        if hi.coeff(var) != 0:
            r = _vectorize_expr(hi, var, loop)
            if r is None:
                return None
            hi = r[1]
    if lo == hi:
        return PointSub(lo)
    return RangeSub(lo, hi)


def translate_use_cp(
    use_cp: CP,
    def_stmt: Assign,
    use_stmt: Assign,
    use_ref: ArrayRef | Var,
    nest: NestInfo,
) -> Optional[CP]:
    """Translate the CP of one use back to the defining statement.

    Returns None when vectorization hits a non-affine bound (caller falls
    back to replication, which is always correct)."""
    if use_cp.is_replicated:
        return CP.replicated()
    def_loops = nest.loops_of(def_stmt)
    use_loops = nest.loops_of(use_stmt)
    # common loops are a shared *identity* prefix: two sibling j-loops are
    # different induction variables that merely share a name (§4.1).
    ncommon = 0
    for la, lb in zip(def_loops, use_loops):
        if la is lb:
            ncommon += 1
        else:
            break
    use_only = {l.var: l for l in use_loops[ncommon:]}

    def_subs = (
        def_stmt.lhs.affine_subscripts() if isinstance(def_stmt.lhs, ArrayRef) else ()
    )
    use_subs = use_ref.affine_subscripts() if isinstance(use_ref, ArrayRef) else ()
    binding = subscript_mapping(def_subs, use_subs, set(use_only))

    leftovers = {v: l for v, l in use_only.items() if v not in binding}
    terms: list[OnHomeRef] = []
    for term in use_cp.terms:
        t = term.substitute(binding)
        new_subs: list[SubScript] = []
        for s in t.subs:
            vs = _vectorize_sub(s, leftovers)
            if vs is None:
                return None
            new_subs.append(vs)
        terms.append(OnHomeRef(t.array, tuple(new_subs)))
    return CP(tuple(terms))


def propagate_new_cps(
    root: DoLoop,
    new_vars: Iterable[str],
    cps: dict[int, StatementCP],
    nest: NestInfo,
    ctx: DistributionContext,
    include_owner: bool = False,
    auto_scalars: bool = True,
) -> dict[int, StatementCP]:
    """Assign propagated CPs to every statement defining a NEW variable.

    *cps* holds the base selection for non-private statements; entries for
    private definitions are overwritten in place (and returned).  With
    ``include_owner=True`` the definition's own owner-computes CP is added
    to the union — that is §4.2's LOCALIZE semantics.

    ``auto_scalars`` extends propagation to privatizable scalars that were
    not marked NEW (the paper's ``ru1``: its use CPs are vectorized — here
    trivially copied — onto its definition, the figure's blue arrow).
    """
    from .model import cp_key  # local import to avoid cycle at module load

    private = {v.lower() for v in new_vars}
    if auto_scalars:
        from ..analysis.privatize import check_privatizable

        for s in walk_stmts([root]):
            if isinstance(s, Assign) and isinstance(s.lhs, Var):
                name = s.lhs.name.lower()
                if name not in private and check_privatizable(root, name):
                    private.add(name)
    stmts = [s for s in walk_stmts([root]) if isinstance(s, Assign)]

    # defs processed in reverse textual order so chains propagate
    # (cv's CP comes from lhs statements; ru1's comes from cv's).
    for def_stmt in reversed(stmts):
        if def_stmt.target_name.lower() not in private:
            continue
        acc: Optional[CP] = None
        vname = def_stmt.target_name.lower()
        for use_stmt in stmts:
            if use_stmt is def_stmt:
                continue
            uses: list[ArrayRef | Var] = [
                r for r in collect_array_refs(use_stmt.rhs) if r.name.lower() == vname
            ]
            if not isinstance(def_stmt.lhs, ArrayRef) or def_stmt.lhs.rank == 0:
                # scalar: Var uses
                uses += [
                    n for n in use_stmt.rhs.walk()
                    if isinstance(n, Var) and n.name.lower() == vname
                ]
            if not uses:
                continue
            use_cp = cps.get(use_stmt.sid)
            if use_cp is None:
                continue
            for uref in uses:
                t = translate_use_cp(use_cp.cp, def_stmt, use_stmt, uref, nest)
                if t is None:
                    acc = CP.replicated()
                    break
                acc = t if acc is None else acc.union(t)
            if acc is not None and acc.is_replicated:
                break
        if acc is None:
            # value never used: keep the base selection (dead store)
            continue
        if include_owner and isinstance(def_stmt.lhs, ArrayRef) and ctx.is_distributed(
            def_stmt.lhs.name
        ):
            owner = OnHomeRef.from_ref(def_stmt.lhs)
            if owner is not None and not acc.is_replicated:
                acc = acc.union(CP((owner,)))
        cps[def_stmt.sid] = StatementCP(
            def_stmt, acc, [], 0.0, source="localize" if include_owner else "new"
        )
    return cps
