"""Exact affine dependence analysis over the integer set framework.

For each pair of references to the same variable (at least one a write)
inside a loop nest, we build the symbolic set of iteration pairs
``(source, sink)`` satisfying

* both iterations inside their loop bounds,
* equal subscripts (the references touch the same element), and
* execution order: source strictly before sink.

The order condition is split by *level*: carried at common-loop level l
(equal outer indices, strictly increasing at l), or loop-independent (all
common indices equal, source textually precedes sink).  Each non-empty level
yields one :class:`Dependence` edge.  Non-affine subscripts or bounds fall
back to a conservative "assume dependence at every level".

Scalars are rank-0 arrays: they depend at every level unless privatized.

The level semantics are a load-bearing contract for the vectorizing
backend (`repro.codegen.vectorize`): it distributes loops and emits N-d
blocks based on *which* level carries each edge (and on the exactness of
"no edge at level l" answers — conservative fallbacks only ever add
edges, so they can only suppress vectorization, never unsoundly enable
it).  ``ignore_vars`` exists for the same client: scalars it privatizes
by expansion are excluded from the scalar-dependence rule above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..ir.expr import ArrayRef, Var, to_affine
from ..ir.stmt import Assign, DoLoop, Stmt
from ..ir.visit import (
    build_parent_map,
    enclosing_loops,
    reads_of,
    walk_stmts,
)
from ..isets import BasicSet, Constraint, ISet, LinExpr
from ..isets.terms import E

LI = 0  #: level value for loop-independent dependences


@dataclass(frozen=True)
class Dependence:
    """One dependence edge.

    ``level`` is 1-based depth of the carrying loop *within the analyzed
    nest's common loops*, or :data:`LI` (0) for loop-independent.
    """

    src: Stmt
    dst: Stmt
    var: str
    kind: str  # 'flow' | 'anti' | 'output'
    level: int
    src_ref: ArrayRef | Var | None = None
    dst_ref: ArrayRef | Var | None = None

    @property
    def loop_independent(self) -> bool:
        return self.level == LI

    def __repr__(self) -> str:
        lvl = "LI" if self.loop_independent else f"L{self.level}"
        return (
            f"Dep({self.kind} {self.var} {lvl}: "
            f"s{self.src.sid}[{self.src_ref}] -> s{self.dst.sid}[{self.dst_ref}])"
        )


@dataclass
class _RefSite:
    stmt: Stmt
    ref: ArrayRef | Var
    is_write: bool
    loops: list[DoLoop]  # enclosing loops within the analyzed nest, outer first
    order: int  # textual preorder position
    #: side prefix (``"s"`` / ``"d"``) -> the reference's subscripts over
    #: that side's renamed loop dims, parameters substituted (None when
    #: non-affine); filled on first use by ``DependenceAnalyzer._subscripts``
    subs: dict = field(default_factory=dict)


class DependenceAnalyzer:
    """Dependence analysis for one loop nest (or any statement region).

    A pair's system is assembled from pieces built once: each statement's
    renamed loop-bound constraints per side (``s$`` source, ``d$`` sink),
    each reference's renamed subscripts per side, and the per-level order
    constraints per depth — all with the parameters already substituted."""

    def __init__(
        self,
        region: Sequence[Stmt] | DoLoop,
        params: Mapping[str, int] | None = None,
        ignore_vars: Iterable[str] = (),
    ):
        if isinstance(region, DoLoop):
            self.region: list[Stmt] = [region]
        else:
            self.region = list(region)
        self.params = dict(params or {})
        self._pbinding = {k: LinExpr.const(v) for k, v in self.params.items()}
        self.ignore = {v.lower() for v in ignore_vars}
        self.parents = build_parent_map(self.region)
        self._order: dict[int, int] = {}
        self._loop_vars: set[str] = set()
        for i, s in enumerate(walk_stmts(self.region)):
            self._order[s.sid] = i
            if isinstance(s, DoLoop):
                self._loop_vars.add(s.var)
        #: (statement sid, side) -> (bound constraints, loop var -> dim) | None
        self._bounds: dict = {}
        #: depth -> order constraints "carried at this level" / "same
        #: iteration of the first *depth* common loops"
        self._carried: dict[int, list[Constraint]] = {}
        self._same: dict[int, list[Constraint]] = {}

    # -- site collection ---------------------------------------------------
    def _sites(self) -> dict[str, list[_RefSite]]:
        """Reference sites grouped by variable name."""
        by_var: dict[str, list[_RefSite]] = {}

        def add(stmt: Stmt, ref: ArrayRef | Var, is_write: bool) -> None:
            name = ref.name.lower()
            if name in self.ignore:
                return
            loops = enclosing_loops(stmt, self.parents)
            by_var.setdefault(name, []).append(
                _RefSite(stmt, ref, is_write, loops, self._order[stmt.sid])
            )

        for stmt in walk_stmts(self.region):
            if isinstance(stmt, Assign):
                add(stmt, stmt.lhs, True)
                for r in reads_of(stmt):
                    # loop index variables are not data refs
                    if isinstance(r, Var) and r.name in self._loop_vars:
                        continue
                    add(stmt, r, False)
            elif isinstance(stmt, DoLoop):
                # bound expressions read scalars; they rarely matter for the
                # NAS kernels — skip to keep edge count meaningful.
                continue
        return by_var

    # -- main entry ----------------------------------------------------------
    def dependences(self, scalars: bool = True) -> list[Dependence]:
        out: list[Dependence] = []
        for var, sites in self._sites().items():
            writes = [s for s in sites if s.is_write]
            if not writes:
                continue
            for a in sites:
                for b in sites:
                    if not (a.is_write or b.is_write):
                        continue
                    is_scalar = isinstance(a.ref, Var) or (
                        isinstance(a.ref, ArrayRef) and a.ref.rank == 0
                    )
                    if is_scalar and not scalars:
                        continue
                    kind = (
                        "flow" if a.is_write and not b.is_write
                        else "anti" if not a.is_write and b.is_write
                        else "output" if a.is_write and b.is_write
                        else "input"
                    )
                    if kind == "input":
                        continue
                    out.extend(self._test_pair(var, a, b, kind))
        return out

    # -- pair test -------------------------------------------------------------
    def _test_pair(self, var: str, a: _RefSite, b: _RefSite, kind: str) -> list[Dependence]:
        common: list[DoLoop] = []
        for la, lb in zip(a.loops, b.loops):
            if la is lb:
                common.append(la)
            else:
                break
        ncommon = len(common)
        deps: list[Dependence] = []

        sys = self._build_system(a, b)
        if sys is None:
            # non-affine: conservative — all levels + LI if order allows
            for l in range(1, ncommon + 1):
                deps.append(Dependence(a.stmt, b.stmt, var, kind, l, a.ref, b.ref))
            if a.order < b.order or (a.stmt is not b.stmt and a.order == b.order):
                deps.append(Dependence(a.stmt, b.stmt, var, kind, LI, a.ref, b.ref))
            return deps

        dims, cons = sys
        # carried at each common level
        for l in range(1, ncommon + 1):
            extra = self._carried_at(l)
            if not ISet(dims, [BasicSet(dims, cons + extra)]).is_empty():
                deps.append(Dependence(a.stmt, b.stmt, var, kind, l, a.ref, b.ref))
        # loop-independent: same common iteration, a textually before b
        if a.order < b.order:
            extra = self._same_iteration(ncommon)
            if not ISet(dims, [BasicSet(dims, cons + extra)]).is_empty():
                deps.append(Dependence(a.stmt, b.stmt, var, kind, LI, a.ref, b.ref))
        return deps

    def _carried_at(self, level: int) -> list[Constraint]:
        """Order constraints of a dependence carried at common *level*:
        equal outer indices, strictly increasing at *level*."""
        extra = self._carried.get(level)
        if extra is None:
            extra = self._same_iteration(level - 1) + [
                Constraint.ge(E(_dv(level - 1)), E(_sv(level - 1)) + 1)
            ]
            self._carried[level] = extra
        return extra

    def _same_iteration(self, depth: int) -> list[Constraint]:
        """Equal source and sink indices on the first *depth* loops."""
        extra = self._same.get(depth)
        if extra is None:
            extra = [Constraint.eq(E(_sv(k)), E(_dv(k))) for k in range(depth)]
            self._same[depth] = extra
        return extra

    def _build_system(
        self, a: _RefSite, b: _RefSite
    ) -> tuple[tuple[str, ...], list[Constraint]] | None:
        """Dims + constraints for (src-iter, dst-iter) pairs touching the
        same element.  None when anything is non-affine."""
        src = self._loop_bounds(a, "s")
        dst = self._loop_bounds(b, "d")
        if src is None or dst is None:
            return None
        cons = src[0] + dst[0]
        # same element
        if isinstance(a.ref, ArrayRef) and isinstance(b.ref, ArrayRef):
            sa, sb = self._subscripts(a, "s"), self._subscripts(b, "d")
            if sa is None or sb is None:
                return None
            if len(sa) != len(sb):
                return None
            cons += [Constraint.eq(ea, eb) for ea, eb in zip(sa, sb)]
        # scalars: always the same location — no subscript constraints
        dims = tuple(_sv(k) for k in range(len(a.loops))) + tuple(
            _dv(k) for k in range(len(b.loops))
        )
        return dims, cons

    def _loop_bounds(
        self, site: _RefSite, side: str
    ) -> tuple[list[Constraint], dict[str, LinExpr]] | None:
        """The site's loops renamed to fresh ``<side>$k`` dims: their bound
        constraints (which may reference outer renamed vars) with the
        parameters substituted, and the renaming.  Requires unit steps;
        None when a bound or step is non-affine.  Built once per statement
        and side."""
        key = (site.stmt.sid, side)
        if key in self._bounds:
            return self._bounds[key]
        binding: dict[str, LinExpr] = {}
        cons: list[Constraint] | None = []
        for k, loop in enumerate(site.loops):
            step = to_affine(loop.step)
            if step is None or not step.is_constant() or step.constant != 1:
                cons = None
                break
            lo, hi = to_affine(loop.lo), to_affine(loop.hi)
            if lo is None or hi is None:
                cons = None
                break
            v = E(f"{side}${k}")
            cons.append(Constraint.ge(v, lo.substitute(binding)))
            cons.append(Constraint.le(v, hi.substitute(binding)))
            binding[loop.var] = v
        if cons is not None and self.params:
            cons = [c.substitute(self._pbinding) for c in cons]
        out = None if cons is None else (cons, binding)
        self._bounds[key] = out
        return out

    def _subscripts(self, site: _RefSite, side: str) -> tuple[LinExpr, ...] | None:
        """The site's affine subscripts over its *side*'s renamed loop dims,
        parameters substituted (None when non-affine).  Built once per
        reference and side; the loop bounds must be affine."""
        if side not in site.subs:
            subs = site.ref.affine_subscripts()
            if subs is not None:
                _, binding = self._loop_bounds(site, side)
                subs = tuple(e.substitute(binding) for e in subs)
                if self.params:
                    subs = tuple(e.substitute(self._pbinding) for e in subs)
            site.subs[side] = subs
        return site.subs[side]


def _sv(k: int) -> str:
    return f"s${k}"


def _dv(k: int) -> str:
    return f"d${k}"
