"""Templates, distributions, alignments — and their ownership sets.

The owner of a distributed array element is the processor determined by the
HPF mapping chain  *array → (ALIGN) → template → (DISTRIBUTE) → grid*.
We expose ownership as a symbolic :class:`~repro.isets.ISet` over the array
index space whose free parameters ``p$g`` are the coordinates of the
representative processor — exactly the form dHPF's integer-set analyses
consume.

Everything is concrete except the processor coordinates: dHPF compiled the
problem size and grid shape into each generated program (§8 of the paper),
and we follow suit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ..ir.directives import AlignDecl, DistributeDecl, ProcessorsDecl
from ..ir.expr import Expr, to_affine
from ..ir.program import Subroutine
from ..isets import BasicSet, Constraint, ISet, LinExpr
from ..isets.terms import E
from .grid import ProcessorGrid


def PDIM(g: int) -> str:
    """Name of the g-th processor-coordinate parameter (``p$g``)."""
    return f"p${g}"


def proc_binding(coords: Sequence[int]) -> dict[str, int]:
    """The ``p$g`` parameters of the processor at grid *coords*."""
    return {PDIM(g): c for g, c in enumerate(coords)}


def TDIM(k: int) -> str:
    """Name of the k-th template dimension (``t$k``)."""
    return f"t${k}"


@dataclass(frozen=True)
class Template:
    """A concrete HPF template: named index space with per-dim bounds."""

    name: str
    bounds: tuple[tuple[int, int], ...]  # inclusive (lo, hi) per dim

    @property
    def rank(self) -> int:
        return len(self.bounds)

    def extent(self, d: int) -> int:
        lo, hi = self.bounds[d]
        return hi - lo + 1


@dataclass(frozen=True)
class DimDist:
    """Distribution of one template dimension.

    kind: 'block' | 'cyclic' | 'multi' | '*'.  ``block`` is the block size
    (for block and block-cyclic); ``grid_axis`` is the processor-grid axis
    this template dim maps to (None for '*').  The three 'multi' dims of a
    multipartitioned template name axes (0, 1, 0): the diagonal ties dims 0
    and 2 to the first axis of the q x q grid.
    """

    kind: str
    block: Optional[int] = None
    grid_axis: Optional[int] = None


class Distribution:
    """A template distributed onto a processor grid.

    Each template dim is BLOCK, CYCLIC(k) or collapsed (``*``), on its own
    grid axis — or all three dims of a rank-3 template are MULTI on a q x q
    grid: the diagonal multipartitioning of the hand-coded NAS SP/BT (§9's
    closing question), where processor (a, b) owns the cells
    (cx, cy, cz) of the q^3 cell grid with cy - cx = a and cz - cx = b
    (mod q).  That ownership is affine with existentials, so
    :meth:`owner_set` states it in the same integer-set form as the others.
    """

    def __init__(self, template: Template, grid: ProcessorGrid, dims: Sequence[DimDist]):
        if len(dims) != template.rank:
            raise ValueError("distribution format count != template rank")
        kinds = {d.kind for d in dims}
        if "multi" in kinds:
            if kinds != {"multi"} or template.rank != 3:
                raise ValueError("MULTI distribution must be (MULTI, MULTI, MULTI)")
            if grid.rank != 2 or grid.shape[0] != grid.shape[1]:
                raise ValueError("multipartitioning needs a square q x q grid")
            shape = tuple(template.extent(k) for k in range(3))
            if any(n % grid.shape[0] for n in shape):
                raise ValueError(
                    f"analysis-form multipartitioning needs extents divisible "
                    f"by q={grid.shape[0]}; got {shape}"
                )
            dims = [DimDist("multi", None, g) for g in (0, 1, 0)]
        else:
            used_axes = [d.grid_axis for d in dims if d.kind != "*"]
            if sorted(a for a in used_axes if a is not None) != list(range(grid.rank)):
                raise ValueError(
                    f"distributed dims must map 1-1 onto grid axes; got {used_axes} for grid rank {grid.rank}"
                )
        self.template = template
        self.grid = grid
        self.dims = tuple(dims)

    # -- symbolic ownership -----------------------------------------------
    def owner_set(self, dim_names: Sequence[str] | None = None) -> ISet:
        """Set of template points owned by the processor with symbolic
        coordinates ``p$g`` — includes ``0 <= p$g < P_g`` bounds."""
        names = tuple(dim_names or (TDIM(k) for k in range(self.template.rank)))
        cons: list[Constraint] = []
        exists: list[str] = []
        multi = self.dims[0].kind == "multi"
        for k, (dd, (lo, hi), name) in enumerate(zip(self.dims, self.template.bounds, names)):
            t = E(name)
            cons.append(Constraint.ge(t, lo))
            cons.append(Constraint.le(t, hi))
            if dd.kind == "*":
                continue
            if dd.kind == "multi":
                # t lies in cell c$k of q equal cells
                q = self.grid.shape[0]
                B = self.template.extent(k) // q
                c = E(f"c${k}")
                cons.append(Constraint.ge(c, 0))
                cons.append(Constraint.le(c, q - 1))
                cons.append(Constraint.ge(t - lo, c * B))
                cons.append(Constraint.le(t - lo, c * B + B - 1))
                continue
            g = dd.grid_axis
            assert g is not None
            p = E(PDIM(g))
            nprocs = self.grid.shape[g]
            cons.append(Constraint.ge(p, 0))
            cons.append(Constraint.le(p, nprocs - 1))
            if dd.kind == "block":
                b = dd.block if dd.block is not None else math.ceil(self.template.extent(k) / nprocs)
                cons.append(Constraint.ge(t, p * b + lo))
                cons.append(Constraint.le(t, p * b + lo + b - 1))
            elif dd.kind == "cyclic":
                m = dd.block or 1
                q = f"q${k}"
                exists.append(q)
                # t - lo in [ (p + q*P)*m , (p + q*P)*m + m-1 ],  q >= 0
                base = (E(PDIM(g)) + E(q) * nprocs) * m + lo
                cons.append(Constraint.ge(t, base))
                cons.append(Constraint.le(t, base + (m - 1)))
                cons.append(Constraint.ge(E(q), 0))
            else:  # pragma: no cover - validated in __init__
                raise AssertionError(dd.kind)
        if multi:
            q = self.grid.shape[0]
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
            exists = ["c$0", "c$1", "c$2", "k$1", "k$2"]
        return ISet(names, [BasicSet(names, cons, exists)])

    # -- concrete queries ---------------------------------------------------
    def block_size(self, k: int) -> int:
        dd = self.dims[k]
        if dd.kind == "block":
            g = dd.grid_axis
            assert g is not None
            return dd.block if dd.block is not None else math.ceil(
                self.template.extent(k) / self.grid.shape[g]
            )
        if dd.kind == "cyclic":
            return dd.block or 1
        raise ValueError(f"dim {k} is not distributed")

    def owner_coords(self, point: Sequence[int]) -> tuple[int, ...]:
        """Grid coordinates of the unique owner of a template point."""
        if self.dims[0].kind == "multi":
            q = self.grid.shape[0]
            cx, cy, cz = (
                (point[k] - lo) // (self.template.extent(k) // q)
                for k, (lo, _hi) in enumerate(self.template.bounds)
            )
            return ((cy - cx) % q, (cz - cx) % q)
        coords = [0] * self.grid.rank
        for k, (dd, (lo, _hi)) in enumerate(zip(self.dims, self.template.bounds)):
            if dd.kind == "*":
                continue
            g = dd.grid_axis
            assert g is not None
            off = point[k] - lo
            b = self.block_size(k)
            if dd.kind == "block":
                coords[g] = min(off // b, self.grid.shape[g] - 1)
            else:
                coords[g] = (off // b) % self.grid.shape[g]
        return tuple(coords)


class Layout:
    """One array's complete mapping: alignment onto a distributed template.

    ``align_exprs[k]`` gives template dim *k* as a LinExpr over the array dim
    names ``a$0..a$r-1`` — or None when the array is replicated over that
    template dim.
    """

    def __init__(
        self,
        array: str,
        rank: int,
        distribution: Distribution,
        align_exprs: Sequence[Optional[LinExpr]],
    ):
        if len(align_exprs) != distribution.template.rank:
            raise ValueError("alignment arity != template rank")
        self.array = array
        self.rank = rank
        self.distribution = distribution
        self.align_exprs = tuple(align_exprs)

    @staticmethod
    def dim_name(d: int) -> str:
        return f"a${d}"

    @property
    def dim_names(self) -> tuple[str, ...]:
        return tuple(self.dim_name(d) for d in range(self.rank))

    def __getstate__(self) -> dict:
        # the ownership memo is rebuilt on demand, never pickled
        return {k: v for k, v in self.__dict__.items() if k != "_owned"}

    def ownership(self, dim_names: Sequence[str] | None = None) -> ISet:
        """Array elements owned by the representative processor ``p$*``,
        built once per tuple of dim names (an ``ISet`` is immutable)."""
        return self._ownership(tuple(dim_names or self.dim_names), False)

    def primary_ownership(self) -> ISet:
        """:meth:`ownership` with each replicated template dim held at the
        template's first index instead of projected out: the one replica
        :meth:`owner_coords_of` names, so every element has one sender."""
        return self._ownership(self.dim_names, True)

    def _ownership(self, names: tuple[str, ...], primary: bool) -> ISet:
        memo = self.__dict__.setdefault("_owned", {})
        if (names, primary) in memo:
            return memo[names, primary]
        if len(names) != self.rank:
            raise ValueError("dim_names arity mismatch")
        template = self.distribution.template
        tnames = tuple(TDIM(k) for k in range(template.rank))
        owner = self.distribution.owner_set(tnames)
        # substitute aligned template dims; replicated ones are projected
        # out, or held at their first index for the primary replica
        replicated = [tnames[k] for k, e in enumerate(self.align_exprs) if e is None]
        if replicated and not primary:
            owner = owner.project_out(replicated)
        rename = dict(zip(self.dim_names, names))
        binding = {
            tnames[k]: LinExpr.const(template.bounds[k][0]) if e is None
            else e.rename(rename)
            for k, e in enumerate(self.align_exprs)
            if e is not None or primary
        }
        parts = []
        for p in owner.parts:
            cons = [c.substitute(binding) for c in p.constraints]
            parts.append(BasicSet(names, cons, p.exists, p.exact))
        owned = memo[names, primary] = ISet(names, parts)
        return owned

    def owner_coords_of(self, element: Sequence[int]) -> tuple[int, ...]:
        """Grid coordinates of the owner of one array element (a replicated
        template dim is held at its first index: the replica
        :meth:`primary_ownership` names; all of them are :meth:`ownership`)."""
        binding = {self.dim_name(d): v for d, v in enumerate(element)}
        tpoint = []
        for k, e in enumerate(self.align_exprs):
            if e is None:
                tpoint.append(self.distribution.template.bounds[k][0])
            else:
                tpoint.append(e.evaluate(binding))
        return self.distribution.owner_coords(tpoint)

    def distributed_array_dims(self) -> list[tuple[int, int]]:
        """Pairs (array_dim, grid_axis) for array dims that actually vary
        across processors."""
        out = []
        for k, e in enumerate(self.align_exprs):
            dd = self.distribution.dims[k]
            if e is None or dd.kind == "*":
                continue
            for d in range(self.rank):
                if e.coeff(self.dim_name(d)) != 0:
                    assert dd.grid_axis is not None
                    out.append((d, dd.grid_axis))
        return out

    def __repr__(self) -> str:
        return f"<Layout {self.array} rank={self.rank} onto {self.distribution.grid.name}{self.distribution.grid.shape}>"


class DistributionContext:
    """All layouts of one subroutine, built from its HPF directives.

    Parameters
    ----------
    sub : the subroutine whose directives to interpret
    nprocs : total target processor count (fills ``*`` grid extents)
    params : values for symbolic names used in directive expressions
             (merged with the unit's PARAMETER constants)
    """

    def __init__(self, sub: Subroutine, nprocs: int, params: Mapping[str, int] | None = None):
        self.sub = sub
        self.nprocs = nprocs
        self.params: dict[str, int] = dict(sub.symbols.parameter_values())
        if params:
            self.params.update(params)
        self.grids: dict[str, ProcessorGrid] = {}
        self.templates: dict[str, Template] = {}
        self.template_dist: dict[str, Distribution] = {}
        self.layouts: dict[str, Layout] = {}
        self._build()

    # -- construction -----------------------------------------------------
    def _eval(self, e: Expr) -> int:
        a = to_affine(e)
        if a is None:
            raise ValueError(f"directive expression {e} is not affine")
        return a.evaluate(self.params)

    def _build(self) -> None:
        for p in self.sub.processors:
            shape = self._grid_shape(p)
            self.grids[p.name.lower()] = ProcessorGrid(p.name.lower(), shape)
        for t in self.sub.templates:
            bounds = tuple((self._eval(lo), self._eval(hi)) for lo, hi in t.dims)
            self.templates[t.name.lower()] = Template(t.name.lower(), bounds)
        for d in self.sub.distributes:
            self._apply_distribute(d)
        for a in self.sub.aligns:
            self._apply_align(a)

    def _grid_shape(self, p: ProcessorsDecl) -> tuple[int, ...]:
        fixed: list[Optional[int]] = [
            None if s is None else self._eval(s) for s in p.shape
        ]
        nwild = fixed.count(None)
        if nwild == 0:
            return tuple(x for x in fixed if x is not None)
        known = 1
        for x in fixed:
            if x is not None:
                known *= x
        if self.nprocs % known != 0:
            raise ValueError(f"grid {p.name}: {self.nprocs} procs not divisible by fixed extents")
        rest = self.nprocs // known
        wild = _near_square_factor(rest, nwild)
        it = iter(wild)
        return tuple(x if x is not None else next(it) for x in fixed)

    def _default_grid(self, ndist: int) -> ProcessorGrid:
        key = f"_procs{ndist}d"
        if key not in self.grids:
            shape = _near_square_factor(self.nprocs, ndist)
            self.grids[key] = ProcessorGrid(key, shape)
        return self.grids[key]

    def _apply_distribute(self, d: DistributeDecl) -> None:
        multi = any(f.kind == "multi" for f in d.formats)
        ndist = sum(1 for f in d.formats if f.kind != "*")
        if d.onto:
            grid = self.grids.get(d.onto.lower())
            if grid is None:
                raise KeyError(f"unknown PROCESSORS arrangement {d.onto!r}")
        elif multi:
            q = math.isqrt(self.nprocs)
            if q * q != self.nprocs:
                raise ValueError("MULTI needs a square processor count")
            grid = ProcessorGrid("_multigrid", (q, q))
        else:
            grid = self._default_grid(ndist)
        if grid.rank != ndist and not multi:  # MULTI checks its own grid
            raise ValueError(
                f"{ndist} distributed dims but grid {grid.name} has rank {grid.rank}"
            )
        axis = 0
        dims: list[DimDist] = []
        for f in d.formats:
            if f.kind == "*":
                dims.append(DimDist("*"))
            else:
                blk = self._eval(f.param) if f.param is not None else None
                dims.append(DimDist(f.kind, blk, axis))
                axis += 1
        for name in d.arrays:
            lname = name.lower()
            if lname in self.templates:
                self.template_dist[lname] = Distribution(self.templates[lname], grid, dims)
            else:
                # direct array distribution: synthesize an identity template
                decl = self.sub.symbols.lookup(lname)
                if decl is None or not decl.is_array:
                    raise KeyError(f"DISTRIBUTE target {name!r} is not a declared array")
                if len(d.formats) != decl.rank:
                    raise ValueError(
                        f"DISTRIBUTE {name}: {len(d.formats)} formats for rank-{decl.rank} array"
                    )
                bounds = tuple(
                    (self._eval(lo), self._eval(hi)) for lo, hi in decl.dims
                )
                tmpl = Template(f"_t_{lname}", bounds)
                dist = Distribution(tmpl, grid, dims)
                align = [LinExpr.var(Layout.dim_name(k)) for k in range(decl.rank)]
                self.layouts[lname] = Layout(lname, decl.rank, dist, align)

    def _apply_align(self, a: AlignDecl) -> None:
        lname = a.array.lower()
        tname = a.template.lower()
        dist = self.template_dist.get(tname)
        if dist is None:
            raise KeyError(f"ALIGN target template {a.template!r} has no DISTRIBUTE")
        decl = self.sub.symbols.lookup(lname)
        if decl is None or not decl.is_array:
            raise KeyError(f"ALIGN source {a.array!r} is not a declared array")
        if len(a.source_dims) != decl.rank:
            raise ValueError(f"ALIGN {a.array}: {len(a.source_dims)} dims for rank-{decl.rank} array")
        rename = {d: Layout.dim_name(k) for k, d in enumerate(a.source_dims)}
        exprs: list[Optional[LinExpr]] = []
        for sub_e in a.target_subscripts:
            if sub_e is None:
                exprs.append(None)
            else:
                ae = to_affine(sub_e)
                if ae is None:
                    raise ValueError(f"non-affine ALIGN subscript {sub_e}")
                exprs.append(ae.rename(rename))
        if dist.dims[0].kind == "multi" and exprs != [
            LinExpr.var(Layout.dim_name(k)) for k in range(decl.rank)
        ]:
            raise ValueError(
                "MULTI templates support identity alignment of rank-3 arrays only"
            )
        self.layouts[lname] = Layout(lname, decl.rank, dist, exprs)

    # -- queries -------------------------------------------------------------
    def layout(self, array: str) -> Optional[Layout]:
        return self.layouts.get(array.lower())

    def is_distributed(self, array: str) -> bool:
        return array.lower() in self.layouts

    def declared_bounds_set(self, array: str) -> ISet:
        """The array's declared index box as an ISet over ``a$k`` dims."""
        decl = self.sub.symbols.lookup(array)
        if decl is None or not decl.is_array:
            raise KeyError(f"{array!r} is not a declared array")
        dims = tuple(Layout.dim_name(k) for k in range(decl.rank))
        cons: list[Constraint] = []
        for k, (lo, hi) in enumerate(decl.dims):
            alo, ahi = to_affine(lo), to_affine(hi)
            if alo is None or ahi is None:
                raise ValueError(f"non-affine bounds on {array}")
            cons.append(Constraint.ge(E(dims[k]), alo.evaluate(self.params)))
            cons.append(Constraint.le(E(dims[k]), ahi.evaluate(self.params)))
        from ..isets.core import BasicSet

        return ISet(dims, [BasicSet(dims, cons)])

    def owned_elements(self, array: str, coords: Sequence[int]) -> set[tuple[int, ...]]:
        """Concrete elements of *array* owned by the processor at grid
        *coords* (ownership ∩ declared bounds)."""
        lay = self.layout(array)
        if lay is None:
            raise KeyError(f"{array!r} has no distribution")
        own = lay.ownership().intersect(self.declared_bounds_set(array))
        return own.bind({**self.params, **proc_binding(coords)}).points()

    def the_grid(self) -> ProcessorGrid:
        """The single grid used by the program (all NAS codes use one).

        A program with no distributed arrays at all (e.g. after the lenient
        compiler drops unusable directives) gets a synthesized 1-D grid of
        ``nprocs`` — fully replicated execution needs a grid shape too."""
        grids = {l.distribution.grid for l in self.layouts.values()}
        if len(grids) > 1:
            raise ValueError(f"expected exactly one processor grid, found {len(grids)}")
        if not grids:
            for g in self.grids.values():
                if g.size == self.nprocs:
                    return g
            return self._default_grid(1)
        return next(iter(grids))


def _near_square_factor(n: int, k: int) -> tuple[int, ...]:
    """Factor n into k near-equal factors (descending flexibility order)."""
    if k == 1:
        return (n,)
    best: tuple[int, ...] | None = None
    target = n ** (1.0 / k)

    def rec(rem: int, parts: list[int]) -> None:
        nonlocal best
        if len(parts) == k - 1:
            cand = tuple(parts + [rem])
            if best is None or _spread(cand) < _spread(best):
                best = cand
            return
        for f in range(1, rem + 1):
            if rem % f == 0:
                rec(rem // f, parts + [f])

    def _spread(t: tuple[int, ...]) -> float:
        return max(t) / min(t)

    rec(n, [])
    assert best is not None
    return tuple(sorted(best))


def canonical_nprocs(
    sub: Subroutine, params: Mapping[str, int] | None = None
) -> int:
    """A small processor count representative of *sub*'s layout.

    CP selection ranks candidate partitionings by comparing non-local
    access counts across a sampled processor grid; for the affine
    block/cyclic layouts here the *ranking* is determined by which grid
    dimensions are distributed, not by their extents.  This derives the
    smallest count that exercises every distributed grid dimension with
    extent >= 2: fixed PROCESSORS extents are honored verbatim, each
    wildcard (``*``) extent contributes a factor of 2, a DISTRIBUTE with
    no ONTO clause contributes 2 per distributed format dimension, and a
    MULTI distribution without ONTO forces a perfect square.  A selection
    computed at this count is then specialized to any concrete rank count
    with the same layout (see :mod:`repro.compile.pipeline`).

    Raises ``ValueError`` if a directive extent is not an affine
    compile-time expression — callers treat that as "no canonical count"
    and fall back to per-``nprocs`` analysis.
    """
    merged: dict[str, int] = dict(sub.symbols.parameter_values())
    if params:
        merged.update(params)

    def ev(e: Expr) -> int:
        a = to_affine(e)
        if a is None:
            raise ValueError(f"directive expression {e} is not affine")
        return a.evaluate(merged)

    n = 1
    for p in sub.processors:
        fixed = 1
        nwild = 0
        for s in p.shape:
            if s is None:
                nwild += 1
            else:
                fixed *= ev(s)
        n = math.lcm(n, fixed * (2 ** nwild))
    ndist_default = 0
    multi_no_onto = False
    for d in sub.distributes:
        if d.onto:
            continue
        if d.formats and all(f.kind == "multi" for f in d.formats):
            multi_no_onto = True
        else:
            nd = sum(1 for f in d.formats if f.kind != "*")
            ndist_default = max(ndist_default, nd)
    if ndist_default:
        n = math.lcm(n, 2 ** ndist_default)
    if multi_no_onto:
        # MULTI without ONTO needs a perfect-square count: multiply by the
        # squarefree part of n (n is tiny, so trial division is fine).
        rem, free, f = n, 1, 2
        while f * f <= rem:
            cnt = 0
            while rem % f == 0:
                rem //= f
                cnt += 1
            if cnt % 2:
                free *= f
            f += 1
        if rem > 1:
            free *= rem
        n *= free
    return n
