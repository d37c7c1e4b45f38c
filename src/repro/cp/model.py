"""The CP model: ON_HOME references and unions thereof.

Subscripts of an ON_HOME reference are affine *points* or affine *ranges*
(ranges arise when a use CP is vectorized through loops that do not enclose
the definition, §4.1).  A :class:`CP` is a union of such references; the set
of iterations the representative processor executes is computed against the
ownership sets from :mod:`repro.distrib`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..distrib.layout import DistributionContext, Layout
from ..ir.expr import ArrayRef
from ..isets import BasicSet, Constraint, ISet, LinExpr
from ..isets.terms import E


class SubScript:
    """Base of ON_HOME subscript kinds."""

    __slots__ = ()


@dataclass(frozen=True)
class PointSub(SubScript):
    """A single affine subscript expression."""

    expr: LinExpr

    def __str__(self) -> str:
        return str(self.expr)


@dataclass(frozen=True)
class RangeSub(SubScript):
    """An affine subscript range [lo..hi] (from vectorizing a use CP)."""

    lo: LinExpr
    hi: LinExpr

    def __str__(self) -> str:
        return f"{self.lo}:{self.hi}"


@dataclass(frozen=True)
class OnHomeRef:
    """``ON_HOME array(sub_1, ..., sub_r)``."""

    array: str
    subs: tuple[SubScript, ...]

    @staticmethod
    def from_ref(ref: ArrayRef) -> "OnHomeRef | None":
        """Build from an IR array reference; None if non-affine."""
        affine = ref.affine_subscripts()
        if affine is None:
            return None
        return OnHomeRef(ref.name.lower(), tuple(PointSub(a) for a in affine))

    def substitute(self, binding: Mapping[str, LinExpr | int]) -> "OnHomeRef":
        out: list[SubScript] = []
        for s in self.subs:
            if isinstance(s, PointSub):
                out.append(PointSub(s.expr.substitute(binding)))
            else:
                assert isinstance(s, RangeSub)
                out.append(RangeSub(s.lo.substitute(binding), s.hi.substitute(binding)))
        return OnHomeRef(self.array, tuple(out))

    def __str__(self) -> str:
        return f"ON_HOME {self.array}({','.join(map(str, self.subs))})"


@dataclass(frozen=True)
class CP:
    """A computation partition: union of ON_HOME references.

    An empty term tuple means *replicated*: every processor executes the
    statement (used for statements touching no distributed data).
    """

    terms: tuple[OnHomeRef, ...] = ()

    @staticmethod
    def on_home(ref: ArrayRef) -> "CP":
        t = OnHomeRef.from_ref(ref)
        if t is None:
            from ..diag import E_NONAFFINE, CompileError

            raise CompileError(
                f"non-affine ON_HOME reference {ref}",
                code=E_NONAFFINE, pass_name="cp",
            )
        return CP((t,))

    @staticmethod
    def replicated() -> "CP":
        return CP(())

    @property
    def is_replicated(self) -> bool:
        return not self.terms

    def union(self, other: "CP") -> "CP":
        if self.is_replicated or other.is_replicated:
            return CP.replicated()
        terms = list(self.terms)
        for t in other.terms:
            if t not in terms:
                terms.append(t)
        return CP(tuple(terms))

    def substitute(self, binding: Mapping[str, LinExpr | int]) -> "CP":
        return CP(tuple(t.substitute(binding) for t in self.terms))

    def __str__(self) -> str:
        if self.is_replicated:
            return "<replicated>"
        return " union ".join(map(str, self.terms))


# ---------------------------------------------------------------------------
# iteration sets
# ---------------------------------------------------------------------------

def term_iteration_set(
    term: OnHomeRef,
    loop_dims: Sequence[str],
    ctx: DistributionContext,
) -> ISet | None:
    """Iterations (over *loop_dims*) the representative processor executes
    under a single ON_HOME term — or None if the array is not distributed
    (meaning: replicated execution)."""
    layout = ctx.layout(term.array)
    if layout is None:
        return None
    if len(term.subs) != layout.rank:
        raise ValueError(
            f"ON_HOME {term.array} has {len(term.subs)} subscripts; array rank {layout.rank}"
        )
    own = layout.ownership()  # over a$k dims
    dims = tuple(loop_dims)
    cons: list[Constraint] = []
    exists: list[str] = []
    binding: dict[str, LinExpr] = {}
    for k, s in enumerate(term.subs):
        adim = Layout.dim_name(k)
        if isinstance(s, PointSub):
            binding[adim] = s.expr
        else:
            assert isinstance(s, RangeSub)
            r = f"r${k}"
            exists.append(r)
            cons.append(Constraint.ge(E(r), s.lo))
            cons.append(Constraint.le(E(r), s.hi))
            binding[adim] = E(r)
    parts = []
    for p in own.parts:
        pcons = [c.substitute(binding) for c in p.constraints] + cons
        pexists = set(p.exists) | set(exists)
        parts.append(BasicSet(dims, pcons, pexists, p.exact))
    return ISet(dims, parts)


def cp_iteration_set(
    cp: CP,
    loop_dims: Sequence[str],
    bounds: ISet,
    ctx: DistributionContext,
) -> ISet:
    """Iterations of a statement executed by the representative processor:
    ``bounds ∩ (∪ term sets)``; a replicated CP yields all of *bounds*."""
    if cp.is_replicated:
        return bounds
    acc: ISet | None = None
    for t in cp.terms:
        ts = term_iteration_set(t, loop_dims, ctx)
        if ts is None:
            return bounds  # any undistributed term replicates the statement
        acc = ts if acc is None else acc.union(ts)
    assert acc is not None
    return bounds.intersect(acc)


# ---------------------------------------------------------------------------
# CP choice identity (§5)
# ---------------------------------------------------------------------------

def cp_key(term: OnHomeRef, ctx: DistributionContext) -> tuple | None:
    """Canonical identity of an ON_HOME term as a *data partition*.

    Two terms are the same CP choice iff they induce the same processor
    assignment: same grid, and identical owner expressions per distributed
    template dimension (§5: "different array references with the same data
    partition will be considered identical" — e.g. ``lhs(i,j,k,n+3)`` and
    ``lhs(i,j,k,n+4)`` when only j,k are distributed).  Returns None for
    undistributed arrays (replicated execution).
    """
    layout = ctx.layout(term.array)
    if layout is None:
        return None
    _RANGE_MARK = "r$range"
    binding: dict[str, LinExpr] = {}
    for k, s in enumerate(term.subs):
        adim = Layout.dim_name(k)
        if isinstance(s, PointSub):
            binding[adim] = s.expr
        else:
            binding[adim] = LinExpr.var(_RANGE_MARK)
    key_parts: list[object] = [layout.distribution.grid.name, layout.distribution.grid.shape]
    for k, (ae, dd) in enumerate(zip(layout.align_exprs, layout.distribution.dims)):
        if ae is None or dd.kind == "*":
            continue
        # owner expression for this template dim in loop-variable terms
        te = ae.substitute(binding)
        if _RANGE_MARK in te.vars():
            key_parts.append((dd.grid_axis, "<range>"))
        else:
            key_parts.append((dd.grid_axis, dd.kind, dd.block, te))
    return tuple(key_parts)

