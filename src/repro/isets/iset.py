"""Unions of basic sets (:class:`ISet`) and convenience constructors.

An :class:`ISet` is a finite union of :class:`BasicSet` disjuncts over the
same dimension tuple.  This is the workhorse type for ownership sets,
iteration sets, computation partitions and communication sets in the
compiler: intersection distributes over the disjuncts, difference negates
constraints disjunct-by-disjunct, and subset testing reduces to emptiness of
a difference.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from .box import concrete_extents, cover_of_set, volume
from .core import (
    _SUBSUME_CACHE,
    CACHE_STATS,
    BasicSet,
    Constraint,
    active_budget,
)
from .terms import LinExpr, E

# Difference blows up exponentially in the number of constraints of the
# subtrahend; cap the number of disjuncts an ISet may carry.
_MAX_DISJUNCTS = 64


class ISet:
    """A finite union of conjunctive affine integer sets."""

    __slots__ = ("dims", "parts")

    def __init__(self, dims: Sequence[str], parts: Iterable[BasicSet] = ()):
        self.dims: tuple[str, ...] = tuple(dims)
        kept: list[BasicSet] = []
        seen: set[BasicSet] = set()
        for p in parts:
            if p.dims != self.dims:
                raise ValueError(f"disjunct space {p.dims} != {self.dims}")
            if p in seen:
                continue
            if any(c.is_trivially_false() for c in p.constraints):
                continue
            seen.add(p)
            kept.append(p)
        self.parts: tuple[BasicSet, ...] = tuple(kept)
        budget = active_budget()
        if budget is not None:
            budget.charge_disjuncts(len(self.parts))

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_basic(bs: BasicSet) -> "ISet":
        return ISet(bs.dims, [bs])

    @staticmethod
    def from_constraints(
        dims: Sequence[str],
        constraints: Iterable[Constraint],
        exists: Iterable[str] = (),
    ) -> "ISet":
        return ISet(dims, [BasicSet(dims, constraints, exists)])

    # -- structure ---------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.dims)

    def is_exact(self) -> bool:
        return all(p.exact for p in self.parts)

    def params(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.params()
        return out

    def rename_dims(self, mapping: Mapping[str, str]) -> "ISet":
        return ISet(
            tuple(mapping.get(d, d) for d in self.dims),
            [p.rename_dims(mapping) for p in self.parts],
        )

    def with_dims(self, dims: Sequence[str]) -> "ISet":
        """Reinterpret in a new same-arity space (positional renaming)."""
        if len(dims) != len(self.dims):
            raise ValueError("arity mismatch")
        return self.rename_dims(dict(zip(self.dims, dims)))

    # -- algebra -------------------------------------------------------------
    def union(self, other: "ISet") -> "ISet":
        other = self._coerce(other)
        parts = _coalesce(list(self.parts) + list(other.parts))
        if len(parts) > _MAX_DISJUNCTS:
            parts = parts[:_MAX_DISJUNCTS]
        return ISet(self.dims, parts)

    def intersect(self, other: "ISet") -> "ISet":
        other = self._coerce(other)
        parts = [
            a.intersect(b)
            for a, b in itertools.product(self.parts, other.parts)
        ]
        parts = [p for p in parts if not p.is_empty()]
        return ISet(self.dims, parts)

    def subtract(self, other: "ISet") -> "ISet":
        """Integer set difference ``self \\ other``.

        If a subtrahend disjunct has existential variables, its quantified
        negation is not representable here; we conservatively *keep* points
        (over-approximate the difference), which is sound for communication
        generation (never drops needed data).
        """
        other = self._coerce(other)
        result = list(self.parts)
        for b in other.parts:
            if b.exists:
                b = b.eliminate_exists()
                if b.exists or not b.exact:
                    continue  # cannot negate: over-approximate
            new_result: list[BasicSet] = []
            for a in result:
                new_result.extend(_subtract_basic(a, b))
            result = _coalesce([p for p in new_result if not p.is_empty()])
            if len(result) > _MAX_DISJUNCTS:
                result = result[:_MAX_DISJUNCTS]
        return ISet(self.dims, result)

    def is_empty(self) -> bool:
        return all(p.is_empty() for p in self.parts)

    def is_subset(self, other: "ISet") -> bool:
        """Provable containment: ``self - other`` is provably empty AND the
        difference computation was exact. Sound for optimization decisions."""
        other = self._coerce(other)
        diff = self.subtract(other)
        return diff.is_empty() and self.is_exact() and other.is_exact()

    def project_out(self, names: Iterable[str]) -> "ISet":
        names = list(names)
        return ISet(
            tuple(d for d in self.dims if d not in names),
            [p.project_out(names) for p in self.parts],
        )

    def substitute(self, binding: Mapping[str, LinExpr | int]) -> "ISet":
        dims = tuple(d for d in self.dims if d not in binding)
        return ISet(dims, [p.substitute(binding) for p in self.parts])

    def bind(self, params: Mapping[str, int]) -> "ISet":
        """Substitute concrete parameter values (dims unchanged)."""
        return self.substitute({k: LinExpr.const(v) for k, v in params.items() if k not in self.dims})

    def close_params(self, names: Iterable[str] | None = None) -> "ISet":
        """Existentially quantify free parameters (all of them by default).

        Used by cost estimation when a set still mentions outer-loop
        variables: "non-local for *some* outer iteration"."""
        names = set(names) if names is not None else set(self.params())
        if not names:
            return self
        parts = []
        for p in self.parts:
            close = names - set(p.dims)
            parts.append(BasicSet(p.dims, p.constraints, p.exists | close, p.exact))
        return ISet(self.dims, parts)

    # -- concrete queries ------------------------------------------------------
    def contains(self, point: Sequence[int], params: Mapping[str, int] | None = None) -> bool:
        return any(p.contains(point, params) for p in self.parts)

    def enumerate_points(self, params: Mapping[str, int] | None = None) -> Iterator[tuple[int, ...]]:
        seen: set[tuple[int, ...]] = set()
        for p in self.parts:
            for pt in p.enumerate_points(params):
                if pt not in seen:
                    seen.add(pt)
                    yield pt

    def points(self, params: Mapping[str, int] | None = None) -> set[tuple[int, ...]]:
        return set(self.enumerate_points(params))

    def count(self, params: Mapping[str, int] | None = None) -> int:
        return len(self.points(params))

    def box_parts(
        self, params: Mapping[str, int] | None = None
    ) -> list[list[tuple[int, int]]] | None:
        """The set as a union of axis-aligned boxes under *params*: one
        list of per-dim inclusive ``(lo, hi)`` extents per non-empty
        disjunct, in disjunct order (the boxes may overlap).  ``None`` when
        some disjunct is not recognizably a box — an existential variable,
        a constraint coupling two dims, an unbound parameter, an unbounded
        dim — and the caller must fall back to enumeration."""
        binding = params or {}
        boxes = []
        for p in self.parts:
            ext = concrete_extents(p, binding)
            if ext is False:
                return None
            if ext is not None:
                boxes.append(ext)
        return boxes

    def cardinality(self, params: Mapping[str, int] | None = None) -> int:
        """Exact number of integer points under *params*: the volume of
        the set's canonical cover (:func:`repro.isets.box.cover_of_set`),
        read off its boxes or its existential witnesses, enumerated only
        when neither reading applies.  Always equals :meth:`count`."""
        return volume(cover_of_set(self.bind(params) if params else self))

    def pretty(self, max_parts: int = 4) -> str:
        """Readable rendering for diagnostics: relational constraint forms,
        at most *max_parts* disjuncts (the rest summarized by count)."""
        if not self.parts:
            return f"{{[{','.join(self.dims)}] : false}}"
        shown = [p.pretty() for p in self.parts[:max_parts]]
        extra = len(self.parts) - max_parts
        if extra > 0:
            shown.append(f"... (+{extra} more disjuncts)")
        return " union ".join(shown)

    # -- dunder ------------------------------------------------------------
    def _coerce(self, other: "ISet | BasicSet") -> "ISet":
        if isinstance(other, BasicSet):
            other = ISet.from_basic(other)
        if other.dims != self.dims:
            if len(other.dims) == len(self.dims):
                other = other.with_dims(self.dims)
            else:
                raise ValueError(f"space mismatch: {self.dims} vs {other.dims}")
        return other

    def __or__(self, other: "ISet") -> "ISet":
        return self.union(other)

    def __and__(self, other: "ISet") -> "ISet":
        return self.intersect(other)

    def __sub__(self, other: "ISet") -> "ISet":
        return self.subtract(other)

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __str__(self) -> str:
        if not self.parts:
            return f"{{[{','.join(self.dims)}] : false}}"
        return " union ".join(str(p) for p in self.parts)

    __repr__ = __str__

    def __eq__(self, other: object) -> bool:
        """Semantic equality is undecidable cheaply; this is syntactic."""
        return (
            isinstance(other, ISet)
            and self.dims == other.dims
            and set(self.parts) == set(other.parts)
        )

    def __hash__(self) -> int:
        return hash((self.dims, frozenset(self.parts)))


def _subtract_basic(a: BasicSet, b: BasicSet) -> list[BasicSet]:
    """a \\ b as a union: for each constraint c of b, a ∧ ¬c (integer negation)."""
    out: list[BasicSet] = []
    kept: list[Constraint] = []
    for c in b.constraints:
        for neg in c.negated():
            cand = a.with_constraints(kept + [neg])
            out.append(cand)
        # subsequent pieces assume this constraint holds
        kept.append(c)
    return out


def _subsumed_by(p: BasicSet, q: BasicSet) -> bool:
    """Provable containment ``p ⊆ q`` by cheap structural evidence only:
    either ``q``'s constraint set is a subset of ``p``'s (every extra
    constraint shrinks a conjunction), or both are concrete axis-aligned
    boxes with ``q``'s ranges covering ``p``'s.  Verdicts are memoized for
    the compile (the same disjunct pairs recur across the incremental
    unions of coalescing)."""
    key = (p, q)
    cached = _SUBSUME_CACHE.get(key)
    if cached is not None:
        CACHE_STATS.subsume_hits += 1
        return cached
    CACHE_STATS.subsume_misses += 1
    if set(q.constraints) <= set(p.constraints) and q.exists == p.exists:
        verdict = True
    else:
        pb = concrete_extents(p, {})
        if pb is None:
            verdict = True  # the empty set is contained in anything
        else:
            qb = concrete_extents(q, {})
            verdict = (
                isinstance(pb, list)
                and isinstance(qb, list)
                and all(ql <= pl and ph <= qh for (pl, ph), (ql, qh) in zip(pb, qb))
            )
    _SUBSUME_CACHE[key] = verdict
    return verdict


def _coalesce(parts: list[BasicSet]) -> list[BasicSet]:
    """Disjunct normalization: drop disjuncts provably contained in an
    earlier one, so unions stop growing superlinearly.  Keeps the first
    occurrence (survivor order is load-bearing for downstream covers)."""
    out: list[BasicSet] = []
    for p in parts:
        if not any(_subsumed_by(p, q) for q in out):
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------

def universe(dims: Sequence[str]) -> ISet:
    """The unconstrained set over the given dims."""
    return ISet(dims, [BasicSet(dims)])


def empty(dims: Sequence[str]) -> ISet:
    """The empty set over the given dims."""
    return ISet(dims, [])


def box(dims: Sequence[str], bounds: Sequence[tuple[LinExpr | int | str, LinExpr | int | str]]) -> ISet:
    """``{[d0..dn] : lb_i <= d_i <= ub_i}`` with symbolic or concrete bounds."""
    if len(dims) != len(bounds):
        raise ValueError("dims/bounds arity mismatch")
    cons: list[Constraint] = []
    for d, (lo, hi) in zip(dims, bounds):
        cons.append(Constraint.ge(E(d), E(lo)))
        cons.append(Constraint.le(E(d), E(hi)))
    return ISet.from_constraints(dims, cons)
