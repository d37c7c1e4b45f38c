"""Affine maps between tuple spaces.

An :class:`AffineMap` sends ``[i1..im] -> [e1(i)..en(i)]`` where each output
coordinate is an affine expression of the input dims and free parameters.
The compiler uses maps for

* reference access functions (iteration space -> data space),
* CP translation from a use to a definition (the 1-1 linear subscript
  mapping of §4.1, inverted and applied to ON_HOME subscripts), and
* alignment functions (array space -> template space).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .core import BasicSet, Constraint
from .iset import ISet
from .terms import LinExpr, E


class AffineMap:
    """``[in_dims] -> [exprs]`` with affine coordinate expressions."""

    __slots__ = ("in_dims", "exprs")

    def __init__(self, in_dims: Sequence[str], exprs: Sequence[LinExpr | int | str]):
        self.in_dims: tuple[str, ...] = tuple(in_dims)
        self.exprs: tuple[LinExpr, ...] = tuple(E(e) for e in exprs)

    @staticmethod
    def identity(dims: Sequence[str]) -> "AffineMap":
        return AffineMap(dims, [E(d) for d in dims])

    @property
    def out_arity(self) -> int:
        return len(self.exprs)

    @property
    def in_arity(self) -> int:
        return len(self.in_dims)

    def __call__(self, point: Sequence[int], params: Mapping[str, int] | None = None) -> tuple[int, ...]:
        binding = dict(zip(self.in_dims, point))
        if params:
            binding.update(params)
        return tuple(e.evaluate(binding) for e in self.exprs)

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """``self ∘ inner``: first apply *inner*, then *self*."""
        if self.in_arity != inner.out_arity:
            raise ValueError("arity mismatch in composition")
        binding = dict(zip(self.in_dims, inner.exprs))
        return AffineMap(inner.in_dims, [e.substitute(binding) for e in self.exprs])

    def inverse(self) -> "AffineMap":
        """Invert a map that is a permuted-unit-coefficient bijection.

        Supports the common HPF case where each output expression mentions
        exactly one *distinct* input dim with coefficient ±1 (e.g.
        ``[i,j] -> [j-1, i+2]``).  Raises ValueError otherwise.
        """
        if self.in_arity != self.out_arity:
            raise ValueError("only square maps can be inverted")
        out_names = [f"o{k}" for k in range(self.out_arity)]
        solution: dict[str, LinExpr] = {}
        used_inputs: set[str] = set()
        for k, e in enumerate(self.exprs):
            dims_in_e = [d for d in self.in_dims if e.coeff(d) != 0]
            if len(dims_in_e) != 1:
                raise ValueError(f"output {k} mentions {len(dims_in_e)} input dims; not 1-1")
            d = dims_in_e[0]
            if d in used_inputs:
                raise ValueError(f"input dim {d} used by two outputs; not 1-1")
            used_inputs.add(d)
            a = e.coeff(d)
            if a not in (1, -1):
                raise ValueError(f"non-unit coefficient {a} on {d}")
            rest = e - LinExpr({d: a})
            # o_k = a*d + rest  =>  d = a*(o_k - rest)   (a = ±1)
            solution[d] = (E(out_names[k]) - rest) * a
        missing = set(self.in_dims) - used_inputs
        if missing:
            raise ValueError(f"input dims {sorted(missing)} unused; not invertible")
        return AffineMap(out_names, [solution[d] for d in self.in_dims])

    def image(self, s: ISet, out_dims: Sequence[str] | None = None) -> ISet:
        """Apply the map to a set: ``{ f(x) : x in s }``.

        Implemented by introducing output dims constrained to the coordinate
        expressions and projecting away the inputs.  Exact when projection is
        exact (unit coefficients — always true for HPF subscripts).
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
            parts.append(combined.project_out(self.in_dims))
        return ISet(out_dims, parts)

    def preimage(self, s: ISet, in_dims: Sequence[str] | None = None) -> ISet:
        """``{ x : f(x) in s }`` — substitute coordinates into s's constraints."""
        if len(s.dims) != self.out_arity:
            raise ValueError("arity mismatch in preimage")
        in_dims = tuple(in_dims or self.in_dims)
        me = self if in_dims == self.in_dims else AffineMap(
            in_dims, [e.rename(dict(zip(self.in_dims, in_dims))) for e in self.exprs]
        )
        binding = dict(zip(s.dims, me.exprs))
        parts = []
        for p in s.parts:
            cons = [c.substitute(binding) for c in p.constraints]
            parts.append(BasicSet(in_dims, cons, p.exists, p.exact))
        return ISet(in_dims, parts)

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
