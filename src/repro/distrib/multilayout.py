"""Multipartitioning as a first-class HPF-style distribution (§9's question).

The paper closes asking "whether multipartitioning could be automatically
exploited by an HPF compiler (without requiring the programmer to express
it at the source code level)".  The obstacle it names is that the skewed
diagonal distribution "is not expressible in HPF".  It *is* expressible in
the integer set framework: for a q x q processor grid over a 3D template
cut into q^3 cells, processor (a, b) owns point (x, y, z) iff

    exists cx, cy, cz, k1, k2 :
        cx*Bx <= x < (cx+1)*Bx   (and likewise cy, cz)
        cy - cx = a + q*k1
        cz - cx = b + q*k2

— affine with existentials, exactly the sets this framework manipulates.
:class:`MultiPartitionLayout` provides that ownership set (plus concrete
owner queries via :class:`~repro.distrib.multipart.MultiPartition3D`), so
CP selection, communication analysis, and guard generation can consume a
multipartitioned array like any other.  The frontend accepts it as the
dHPF-extension directive ``DISTRIBUTE t(MULTI, MULTI, MULTI) ONTO p`` on a
q x q grid.
"""

from __future__ import annotations

from typing import Sequence

from ..isets import BasicSet, Constraint, ISet, LinExpr
from ..isets.terms import E
from .grid import ProcessorGrid
from .layout import DimDist, Layout, PDIM, Template
from .multipart import MultiPartition3D


class _MultiDistribution:
    """Interface shim so the generic analyses (cp_key, CP selection) can
    treat a multipartitioned array like any other layout: a grid plus
    per-dim descriptors (every dim jointly distributed)."""

    def __init__(self, template: Template, grid: ProcessorGrid):
        self.template = template
        self.grid = grid
        self.dims = (
            DimDist("multi", None, 0),
            DimDist("multi", None, 1),
            DimDist("multi", None, 0),
        )


class MultiPartitionLayout:
    """Diagonal multipartitioning ownership for a rank-3 array.

    Duck-types the parts of :class:`~repro.distrib.layout.Layout` that the
    analyses use: ``ownership()``, ``primary_ownership()``,
    ``owner_coords_of()``, ``rank``, ``dim_names``.  Requires extents
    divisible by q (the analysis form; ragged extents fall back to the
    runtime :class:`MultiPartition3D`).
    """

    def __init__(self, array: str, template: Template, grid: ProcessorGrid):
        if template.rank != 3:
            raise ValueError("multipartitioning needs a rank-3 template")
        if grid.rank != 2 or grid.shape[0] != grid.shape[1]:
            raise ValueError("multipartitioning needs a square q x q grid")
        self.array = array
        self.rank = 3
        self.template = template
        self.grid = grid
        self.q = grid.shape[0]
        shape = tuple(template.extent(d) for d in range(3))
        for n in shape:
            if n % self.q != 0:
                raise ValueError(
                    f"analysis-form multipartitioning needs extents divisible "
                    f"by q={self.q}; got {shape}"
                )
        self.mp = MultiPartition3D(grid.size, shape)
        self.distribution = _MultiDistribution(template, grid)
        self.align_exprs = tuple(
            LinExpr.var(Layout.dim_name(d)) for d in range(3)
        )

    @property
    def dim_names(self) -> tuple[str, ...]:
        return tuple(Layout.dim_name(d) for d in range(3))

    def ownership(self, dim_names: Sequence[str] | None = None) -> ISet:
        """The §9 set: owned points of processor (p$0, p$1), symbolically."""
        names = tuple(dim_names or self.dim_names)
        q = self.q
        cons: list[Constraint] = []
        exists = ["c$0", "c$1", "c$2", "k$1", "k$2"]
        for d, name in enumerate(names):
            lo, hi = self.template.bounds[d]
            B = self.template.extent(d) // q
            c = E(f"c${d}")
            cons.append(Constraint.ge(E(name), lo))
            cons.append(Constraint.le(E(name), hi))
            cons.append(Constraint.ge(c, 0))
            cons.append(Constraint.le(c, q - 1))
            cons.append(Constraint.ge(E(name) - lo, c * B))
            cons.append(Constraint.le(E(name) - lo, c * B + B - 1))
        a, b = E(PDIM(0)), E(PDIM(1))
        for p in (a, b):
            cons.append(Constraint.ge(p, 0))
            cons.append(Constraint.le(p, q - 1))
        # diagonal conditions: cy - cx ≡ a, cz - cx ≡ b  (mod q)
        cons.append(Constraint.eq(E("c$1") - E("c$0"), a + E("k$1") * q))
        cons.append(Constraint.eq(E("c$2") - E("c$0"), b + E("k$2") * q))
        for k in ("k$1", "k$2"):
            cons.append(Constraint.ge(E(k), -1))
            cons.append(Constraint.le(E(k), 1))
        return ISet(names, [BasicSet(names, cons, exists)])

    def primary_ownership(self) -> ISet:
        """Every element has one owner: :meth:`ownership` itself."""
        return self.ownership()

    def owner_coords_of(self, element: Sequence[int]) -> tuple[int, int]:
        """Concrete owner (a, b) of one template point."""
        lo = tuple(b[0] for b in self.template.bounds)
        pt = tuple(e - l for e, l in zip(element, lo))
        rank = self.mp.owner_of_point(pt)
        return self.mp.proc_coords(rank)

    def distributed_array_dims(self) -> list[tuple[int, int]]:
        """All three dims vary across processors (jointly)."""
        return [(0, 0), (1, 1), (2, 0)]

    def __repr__(self) -> str:
        return f"<MultiPartitionLayout {self.array} q={self.q}>"
