"""Local (intra-loop) CP selection — §2's base algorithm.

For every assignment in a loop nest, candidate CPs are the ON_HOME choices
of its partitioned array references (lhs first: owner-computes).  The
selector estimates, for each choice, the communication the statement would
induce on a *representative processor* — non-local read volume plus
non-owner write-back volume, each with a per-message latency charge — and
picks the cheapest, preferring owner-computes on ties.

Cost evaluation is concrete: the symbolic sets are bound with small
evaluation extents and a mid-grid representative processor, then counted.
The paper's own evaluation is "simple and approximate" in exactly this
spirit; relative ordering of choices is what matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..distrib.layout import DistributionContext, PDIM
from ..ir.expr import ArrayRef, Var
from ..ir.stmt import Assign, DoLoop
from ..ir.visit import collect_array_refs, walk_stmts
from ..isets import ISet
from .model import CP, OnHomeRef, PointSub, cp_iteration_set, cp_key
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
        # symbolic non-local sets, counted per sampled processor
        nonlocal_sets: list[ISet] = []
        for ref in collect_array_refs(stmt.rhs):
            layout = self.ctx.layout(ref.name)
            if layout is None:
                continue
            data = access_data_set(ref, iters, dims)
            if data is None:
                return 1e6  # non-affine: discourage but allow
            nonlocal_sets.append(data.subtract(layout.ownership()))
        if isinstance(stmt.lhs, ArrayRef):
            layout = self.ctx.layout(stmt.lhs.name)
            if layout is not None:
                data = access_data_set(stmt.lhs, iters, dims)
                if data is not None:
                    nonlocal_sets.append(data.subtract(layout.ownership()))
        cost = 0.0
        for proc in self.sample_procs:
            binding = {**self.eval_params, **proc}
            for s in nonlocal_sets:
                # outer-loop variables not covered by the binding are closed
                # existentially: "non-local for some outer iteration"
                bound = s.bind(binding).close_params()
                try:
                    n = bound.count()
                except ValueError:
                    # a dimension left unbounded by closure: charge latency
                    cost += LATENCY_WEIGHT
                    continue
                if n:
                    cost += LATENCY_WEIGHT + n
        return cost

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

