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

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..ir.expr import ArrayRef, Expr, Var, to_affine
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


class DependenceAnalyzer:
    """Dependence analysis for one loop nest (or any statement region)."""

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
        self.ignore = {v.lower() for v in ignore_vars}
        self.parents = build_parent_map(self.region)
        self._order: dict[int, int] = {}
        for i, s in enumerate(walk_stmts(self.region)):
            self._order[s.sid] = i

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
                    if isinstance(r, Var) and self._is_loop_index(r.name, stmt):
                        continue
                    add(stmt, r, False)
            elif isinstance(stmt, DoLoop):
                # bound expressions read scalars; they rarely matter for the
                # NAS kernels — skip to keep edge count meaningful.
                continue
        return by_var

    def _is_loop_index(self, name: str, stmt: Stmt) -> bool:
        return any(l.var == name for l in enclosing_loops(stmt, self.parents)) or any(
            isinstance(s, DoLoop) and s.var == name for s in walk_stmts(self.region)
        )

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

        sys = self._build_system(a, b, common)
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
            extra: list[Constraint] = []
            for k in range(l - 1):
                extra.append(Constraint.eq(E(_sv(k)), E(_dv(k))))
            extra.append(Constraint.ge(E(_dv(l - 1)), E(_sv(l - 1)) + 1))
            if not ISet(dims, [BasicSet(dims, cons + extra)]).is_empty():
                deps.append(Dependence(a.stmt, b.stmt, var, kind, l, a.ref, b.ref))
        # loop-independent: same common iteration, a textually before b
        if a.order < b.order:
            extra = [Constraint.eq(E(_sv(k)), E(_dv(k))) for k in range(ncommon)]
            if not ISet(dims, [BasicSet(dims, cons + extra)]).is_empty():
                deps.append(Dependence(a.stmt, b.stmt, var, kind, LI, a.ref, b.ref))
        return deps

    def _build_system(
        self, a: _RefSite, b: _RefSite, common: list[DoLoop]
    ) -> tuple[tuple[str, ...], list[Constraint]] | None:
        """Dims + constraints for (src-iter, dst-iter) pairs touching the
        same element.  None when anything is non-affine."""
        cons: list[Constraint] = []
        src_map = self._loop_binding(a.loops, _sv, cons)
        dst_map = self._loop_binding(b.loops, _dv, cons)
        if src_map is None or dst_map is None:
            return None
        # same element
        if isinstance(a.ref, ArrayRef) and isinstance(b.ref, ArrayRef):
            sa, sb = a.ref.affine_subscripts(), b.ref.affine_subscripts()
            if sa is None or sb is None:
                return None
            if len(sa) != len(sb):
                return None
            for ea, eb in zip(sa, sb):
                cons.append(
                    Constraint.eq(ea.substitute(src_map), eb.substitute(dst_map))
                )
        # scalars: always the same location — no subscript constraints
        dims = tuple(_sv(k) for k in range(len(a.loops))) + tuple(
            _dv(k) for k in range(len(b.loops))
        )
        # substitute known parameters for tighter tests
        if self.params:
            cons = [c.substitute({k: LinExpr.const(v) for k, v in self.params.items()}) for c in cons]
        return dims, cons

    def _loop_binding(
        self, loops: list[DoLoop], namer, cons: list[Constraint]
    ) -> dict[str, LinExpr] | None:
        """Rename loop vars to fresh dims; append bound constraints (which may
        reference outer renamed vars).  Requires unit steps."""
        binding: dict[str, LinExpr] = {}
        for k, loop in enumerate(loops):
            step = to_affine(loop.step)
            if step is None or not step.is_constant() or step.constant != 1:
                return None
            lo, hi = to_affine(loop.lo), to_affine(loop.hi)
            if lo is None or hi is None:
                return None
            v = E(namer(k))
            cons.append(Constraint.ge(v, lo.substitute(binding)))
            cons.append(Constraint.le(v, hi.substitute(binding)))
            binding[loop.var] = v
        return binding


def _sv(k: int) -> str:
    return f"s${k}"


def _dv(k: int) -> str:
    return f"d${k}"


def analyze_loop_dependences(
    loop: DoLoop,
    params: Mapping[str, int] | None = None,
    ignore_vars: Iterable[str] = (),
    scalars: bool = True,
) -> list[Dependence]:
    """All dependences among statements of one loop nest."""
    return DependenceAnalyzer(loop, params, ignore_vars).dependences(scalars=scalars)
