"""Loop-nest helpers shared by CP selection, propagation and comm analysis."""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from ..ir.expr import ArrayRef, to_affine
from ..ir.stmt import Assign, DoLoop, Stmt
from ..ir.visit import build_parent_map, enclosing_loops, walk_stmts
from ..isets import BasicSet, Constraint, ISet, LinExpr
from ..isets.terms import E

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.dependence import Dependence


class NestInfo:
    """Cached structure of one loop nest rooted at *root* — including its
    dependences, which §5 grouping, communication placement and §7
    availability all read from here so they are analyzed once per nest.
    Everything in it is a function of the nest and *params* alone (no
    processor count), and it is never pickled: statements are referenced
    by identity."""

    def __init__(self, root: DoLoop, params: Mapping[str, int] | None = None):
        self.root = root
        self.params = dict(params or {})
        self.parents = build_parent_map([root])
        self.order: dict[int, int] = {s.sid: i for i, s in enumerate(walk_stmts([root]))}
        self._deps: "list[Dependence] | None" = None

    @property
    def deps(self) -> "list[Dependence]":
        """All dependences among the nest's statements, computed on first
        use (:class:`repro.analysis.dependence.DependenceAnalyzer`)."""
        if self._deps is None:
            from ..analysis.dependence import DependenceAnalyzer

            self._deps = DependenceAnalyzer(self.root, self.params).dependences()
        return self._deps

    def loops_of(self, stmt: Stmt) -> list[DoLoop]:
        """Enclosing loops of a statement inside this nest, outermost first
        (includes the root)."""
        return enclosing_loops(stmt, self.parents)

    def dims_of(self, stmt: Stmt) -> tuple[str, ...]:
        return tuple(l.var for l in self.loops_of(stmt))

    def bounds_of(self, stmt: Stmt) -> Optional[ISet]:
        """Iteration-space bounds of a statement as an ISet over its loop
        vars (None if any bound is non-affine or step is not 1)."""
        return loop_bounds_set(self.loops_of(stmt), self.params)

    def assignments(self) -> list[Assign]:
        return [s for s in walk_stmts([self.root]) if isinstance(s, Assign)]


def loop_bounds_set(
    loops: Sequence[DoLoop], params: Mapping[str, int] | None = None
) -> Optional[ISet]:
    """Box-ish bounds set over the loop variables (bounds may reference
    outer loop variables)."""
    dims = tuple(l.var for l in loops)
    cons: list[Constraint] = []
    for l in loops:
        lo, hi, step = to_affine(l.lo), to_affine(l.hi), to_affine(l.step)
        if lo is None or hi is None or step is None or not step.is_constant():
            return None
        if step.constant != 1:
            return None
        cons.append(Constraint.ge(E(l.var), lo))
        cons.append(Constraint.le(E(l.var), hi))
    if params:
        binding = {k: LinExpr.const(v) for k, v in params.items() if k not in dims}
        cons = [c.substitute(binding) for c in cons]
    return ISet(dims, [BasicSet(dims, cons)])


def statement_access_set(
    ref: ArrayRef,
    stmt: Stmt,
    cp,
    nest: NestInfo,
    ctx,
    params: Mapping[str, int] | None = None,
) -> Optional[ISet]:
    """Data of *ref* touched by the representative processor executing
    *stmt* under *cp* — symbolic over the ``a$k`` data dims with the
    processor coordinates ``p$g`` free.  None when bounds or subscripts
    are non-affine.  Shared by the comm analyzer and the static verifier
    (:mod:`repro.check`)."""
    from .model import cp_iteration_set

    dims = nest.dims_of(stmt)
    bounds = nest.bounds_of(stmt)
    if bounds is None:
        return None
    iters = cp_iteration_set(cp, dims, bounds.bind(dict(params or {})), ctx)
    return access_data_set(ref, iters, dims)


def access_data_set(
    ref: ArrayRef, iter_set: ISet, loop_dims: Sequence[str]
) -> Optional[ISet]:
    """Data elements touched by *ref* over *iter_set* — the image of the
    iteration set under the reference's access map, over dims ``a$k``."""
    from ..distrib.layout import Layout
    from ..isets.relation import AffineMap

    subs = ref.affine_subscripts()
    if subs is None:
        return None
    amap = AffineMap(tuple(loop_dims), list(subs))
    out_dims = tuple(Layout.dim_name(k) for k in range(len(subs)))
    return amap.image(iter_set, out_dims)
