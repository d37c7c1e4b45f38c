"""Affine maps between tuple spaces.

An :class:`AffineMap` sends ``[i1..im] -> [e1(i)..en(i)]`` where each output
coordinate is an affine expression of the input dims and free parameters.
The compiler uses maps for reference access functions: the image of an
iteration set under a reference's subscripts is the data it touches
(:func:`repro.cp.nest.access_data_set`, the vector backend's blocks).
"""

from __future__ import annotations

from typing import Sequence

from .core import BasicSet, Constraint
from .iset import ISet
from .terms import LinExpr, E


class AffineMap:
    """``[in_dims] -> [exprs]`` with affine coordinate expressions."""

    __slots__ = ("in_dims", "exprs")

    def __init__(self, in_dims: Sequence[str], exprs: Sequence[LinExpr | int | str]):
        self.in_dims: tuple[str, ...] = tuple(in_dims)
        self.exprs: tuple[LinExpr, ...] = tuple(E(e) for e in exprs)

    @property
    def out_arity(self) -> int:
        return len(self.exprs)

    def image(self, s: ISet, out_dims: Sequence[str] | None = None) -> ISet:
        """Apply the map to a set: ``{ f(x) : x in s }``.

        Implemented by introducing output dims constrained to the coordinate
        expressions and projecting away the inputs.  Where that projection
        would be inexact (a coefficient other than ±1: ``2*i - 1`` hits only
        every other element) an exact part keeps the inputs as existential
        witnesses instead, so the image stays exact.
        """
        if s.dims != self.in_dims:
            s = s.with_dims(self.in_dims)
        out_dims = tuple(out_dims or (f"o{k}" for k in range(self.out_arity)))
        parts = []
        for p in s.parts:
            cons = list(p.constraints)
            for od, e in zip(out_dims, self.exprs):
                cons.append(Constraint.eq(E(od), e))
            combined = BasicSet(tuple(self.in_dims) + out_dims, cons, p.exists, p.exact)
            image = combined.project_out(self.in_dims)
            if p.exact and not image.exact:
                image = BasicSet(out_dims, cons, p.exists | set(self.in_dims))
            parts.append(image)
        return ISet(out_dims, parts)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AffineMap)
            and self.in_dims == other.in_dims
            and self.exprs == other.exprs
        )

    def __hash__(self) -> int:
        return hash((self.in_dims, self.exprs))

    def __str__(self) -> str:
        return f"[{','.join(self.in_dims)}] -> [{', '.join(map(str, self.exprs))}]"

    __repr__ = __str__
