"""Local (intra-loop) CP selection — §2's base algorithm.

For every assignment in a loop nest, candidate CPs are the ON_HOME choices
of its partitioned array references (lhs first: owner-computes).  The
selector estimates, for each choice, the communication the statement would
induce on a *representative processor* — non-local read volume plus
non-owner write-back volume, each with a per-message latency charge — and
picks the cheapest, preferring owner-computes on ties.

Cost evaluation is concrete: the symbolic sets are bound with small
evaluation extents and each sampled processor, then counted.  The paper's
own evaluation is "simple and approximate" in exactly this spirit;
relative ordering of choices is what matters.  When a data set and the
ownership set it is measured against are each one quantifier-free box,
the count is closed-form on per-rank integer boxes (``|D| - |D ∩ O|``);
anything else takes the symbolic difference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from ..distrib.layout import DistributionContext, PDIM
from ..ir.expr import ArrayRef
from ..ir.stmt import Assign, DoLoop
from ..ir.visit import collect_array_refs
from ..isets import ISet
from ..isets.box import Box
from ..isets.profile import phase as profile_phase
from .model import CP, OnHomeRef, cp_iteration_set, cp_key
from .nest import NestInfo, access_data_set

#: relative cost of one message's latency, in units of one element's
#: transfer cost (α/β on the SP2 is on this order for 8-byte words).
LATENCY_WEIGHT = 64.0


@dataclass
class StatementCP:
    """Selection result for one assignment."""

    stmt: Assign
    cp: CP
    choices: list[OnHomeRef] = field(default_factory=list)
    cost: float = 0.0
    #: optimizations may overwrite the local choice (NEW/LOCALIZE/interproc)
    source: str = "local"

    @property
    def is_fallback(self) -> bool:
        """True when lenient compilation degraded this statement to the
        replicated fallback (the cost analyzer flags it W-REPLICATED)."""
        return self.source == "fallback"

    def __repr__(self) -> str:
        return f"<StatementCP s{self.stmt.sid}: {self.cp} ({self.source}, cost={self.cost:.1f})>"


class CPSelector:
    """CP selection for the statements of one loop nest."""

    def __init__(
        self,
        ctx: DistributionContext,
        eval_params: Mapping[str, int] | None = None,
        rep_proc: Mapping[str, int] | None = None,
    ):
        self.ctx = ctx
        self.eval_params = dict(eval_params or {})
        if rep_proc is None:
            self.sample_procs = self._sample_procs()
        else:
            self.sample_procs = [dict(rep_proc)]
        self.rep_proc = self.sample_procs[0]
        self._bindings = [{**self.eval_params, **p} for p in self.sample_procs]
        #: array name -> its ownership set read as a box (None: not one)
        self._owner_boxes: dict[str, Box | None] = {}
        #: how the cost model answered its (set, processor) queries:
        #: ``"box"`` closed-form, ``"fallback"`` symbolic difference
        self.queries: Counter = Counter()

    def _sample_procs(self) -> list[dict[str, int]]:
        """Processor coordinate bindings the cost model sums over.

        A single 'representative' corner processor sees no boundary cost for
        conveniently-shifted CPs, so we sample the whole (small) grid, or
        corners + center of a large one.
        """
        grids = {l.distribution.grid for l in self.ctx.layouts.values()}
        if not grids:
            return [{}]
        g = max(grids, key=lambda g: g.size)
        if g.size <= 32:
            coords = list(g.all_coords())
        else:
            import itertools

            corners = itertools.product(*[(0, s - 1) for s in g.shape])
            coords = list(dict.fromkeys(list(corners) + [tuple(s // 2 for s in g.shape)]))
        return [
            {PDIM(axis): c for axis, c in enumerate(coord)} for coord in coords
        ]

    # -- candidates ----------------------------------------------------------
    def candidates(self, stmt: Assign) -> list[OnHomeRef]:
        """ON_HOME choices: each *distinct data partition* referenced by the
        statement (lhs ref first)."""
        refs: list[ArrayRef] = []
        if isinstance(stmt.lhs, ArrayRef):
            refs.append(stmt.lhs)
        refs.extend(collect_array_refs(stmt.rhs))
        out: list[OnHomeRef] = []
        seen_keys: set = set()
        for r in refs:
            if not self.ctx.is_distributed(r.name):
                continue
            t = OnHomeRef.from_ref(r)
            if t is None:
                continue
            k = cp_key(t, self.ctx)
            if k in seen_keys:
                continue
            seen_keys.add(k)
            out.append(t)
        return out

    # -- cost ------------------------------------------------------------------
    def statement_cost(self, stmt: Assign, cp: CP, nest: NestInfo) -> float:
        """Estimated comm cost of executing *stmt* under *cp*, summed over
        the sampled processors."""
        dims = nest.dims_of(stmt)
        bounds = nest.bounds_of(stmt)
        if bounds is None:
            return 0.0
        bounds = bounds.bind(self.eval_params)
        iters = cp_iteration_set(cp.substitute({}), dims, bounds, self.ctx)
        # (data set, owning array) per distributed reference: the reads,
        # then the write-back of the lhs
        touched: list[tuple[ISet, str]] = []
        for ref in collect_array_refs(stmt.rhs):
            if self.ctx.layout(ref.name) is None:
                continue
            data = access_data_set(ref, iters, dims)
            if data is None:
                return 1e6  # non-affine: discourage but allow
            touched.append((data, ref.name))
        if isinstance(stmt.lhs, ArrayRef) and self.ctx.layout(stmt.lhs.name) is not None:
            data = access_data_set(stmt.lhs, iters, dims)
            if data is not None:
                touched.append((data, stmt.lhs.name))
        counts = [self._nonlocal_count(data, name) for data, name in touched]
        cost = 0.0
        for binding in self._bindings:
            for count in counts:
                n = count(binding)
                if n is None:
                    # a dimension left unbounded by closure: charge latency
                    cost += LATENCY_WEIGHT
                elif n:
                    cost += LATENCY_WEIGHT + n
        return cost

    def _nonlocal_count(self, data: ISet, array: str):
        """``binding -> |data \\ ownership(array)|`` for one processor
        binding (None when the non-local set is unbounded).

        Closed-form when both sets are single quantifier-free boxes with
        every parameter bound; otherwise the symbolic difference, computed
        on first need and reused for every processor."""
        owner = self.ctx.layout(array).ownership()
        key = array.lower()
        if key not in self._owner_boxes:
            self._owner_boxes[key] = _one_box(owner)
        obox = self._owner_boxes[key]
        dbox = _one_box(data) if obox is not None else None
        diff: ISet | None = None

        def count(binding: Mapping[str, int]) -> int | None:
            nonlocal diff
            if dbox is not None:
                n = dbox.count_outside(obox, binding)
                if n is not None:
                    self.queries["box"] += 1
                    return n
            self.queries["fallback"] += 1
            if diff is None:
                diff = data.subtract(owner)
            # outer-loop variables not covered by the binding are closed
            # existentially: "non-local for some outer iteration"
            try:
                return diff.bind(binding).close_params().cardinality()
            except ValueError:
                return None

        return count

    # -- selection ---------------------------------------------------------------
    def select(self, root: DoLoop, params: Mapping[str, int] | None = None) -> dict[int, StatementCP]:
        """CPs for every assignment in the nest rooted at *root*.

        Per-statement independent minimization: the base cost model is
        separable across statements (pairwise interactions are exactly what
        §5's grouping pass handles afterwards).
        """
        nest = NestInfo(root, params or self.eval_params)
        out: dict[int, StatementCP] = {}
        for stmt in nest.assignments():
            cands = self.candidates(stmt)
            if not cands:
                out[stmt.sid] = StatementCP(stmt, CP.replicated(), [], 0.0)
                continue
            best: tuple[float, int] | None = None
            best_term: OnHomeRef | None = None
            costs: list[float] = []
            for idx, term in enumerate(cands):
                with profile_phase("cost"):
                    c = self.statement_cost(stmt, CP((term,)), nest)
                costs.append(c)
                # tie-break: prefer earlier candidates (lhs/owner-computes)
                key = (c, idx)
                if best is None or key < best:
                    best = key
                    best_term = term
            assert best_term is not None and best is not None
            out[stmt.sid] = StatementCP(stmt, CP((best_term,)), cands, best[0])
        return out


def _one_box(s: ISet) -> Box | None:
    """*s* as a :class:`~repro.isets.box.Box` when it is one conjunct."""
    return Box.of(s.parts[0]) if len(s.parts) == 1 else None
