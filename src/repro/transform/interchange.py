"""Loop interchange with a dependence-based legality check.

The paper's HPF preparation interchanged a few loops "to increase the
granularity of computation inside loops with carried data dependences"
(two nests in y_solve, four in z_solve).  Interchange of a perfectly
nested pair (L1, L2) is legal iff no dependence has direction (<, >)
across the pair — the classic test — which we decide exactly by asking
the integer-set dependence machinery whether iterations with
``outer_src < outer_dst`` and ``inner_src > inner_dst`` exist.
"""

from __future__ import annotations

from typing import Mapping

from ..analysis.dependence import DependenceAnalyzer, _dv, _sv
from ..ir.stmt import DoLoop
from ..ir.visit import enclosing_loops, walk_stmts
from ..isets import BasicSet, Constraint, ISet
from ..isets.terms import E


class InterchangeError(Exception):
    """Interchange is illegal or the nest shape unsupported."""


def _perfect_pair(outer: DoLoop) -> DoLoop:
    if len(outer.body) != 1 or not isinstance(outer.body[0], DoLoop):
        raise InterchangeError("interchange needs a perfectly nested pair")
    return outer.body[0]


def can_interchange(outer: DoLoop, params: Mapping[str, int] | None = None) -> bool:
    """Is swapping *outer* with its (perfectly nested) inner loop legal?

    Checks every dependence for a (<, >) direction across the pair.
    Conservative: non-affine constructs make it answer False.
    """
    inner = _perfect_pair(outer)
    analyzer = DependenceAnalyzer(outer, params)
    # depth of the pair inside the analyzed region is 0/1 (outer is root)
    for var, sites in analyzer._sites().items():
        for a in sites:
            for b in sites:
                if not (a.is_write or b.is_write):
                    continue
                if len(a.loops) < 2 or len(b.loops) < 2:
                    return False
                if a.loops[0] is not outer or b.loops[0] is not outer:
                    return False
                sys = analyzer._build_system(a, b)
                if sys is None:
                    return False
                dims, cons = sys
                # direction (<, >): outer_src < outer_dst, inner_src > inner_dst
                probe = cons + [
                    Constraint.ge(E(_dv(0)), E(_sv(0)) + 1),
                    Constraint.ge(E(_sv(1)), E(_dv(1)) + 1),
                ]
                if not ISet(dims, [BasicSet(dims, probe)]).is_empty():
                    return False
    return True


def interchange(outer: DoLoop, params: Mapping[str, int] | None = None,
                check: bool = True) -> DoLoop:
    """Swap a perfectly nested loop pair in place; returns the new outer
    loop (the former inner).  Raises :class:`InterchangeError` if illegal
    (unless ``check=False``, for callers who already proved legality)."""
    inner = _perfect_pair(outer)
    if check and not can_interchange(outer, params):
        raise InterchangeError(
            f"interchanging {outer.var}/{inner.var} would reverse a dependence"
        )
    # swap headers, keep bodies: inner becomes outer
    new_outer = DoLoop(inner.var, inner.lo, inner.hi, [outer], inner.step,
                       inner.label, inner.lineno)
    new_outer.directive = inner.directive
    outer.body = inner.body
    # note: bounds must not reference the swapped variables
    for bound in (inner.lo, inner.hi):
        names = {n.name for n in bound.walk() if hasattr(n, "name")}
        if outer.var in names:
            raise InterchangeError("inner bounds depend on the outer index (non-rectangular)")
    return new_outer
