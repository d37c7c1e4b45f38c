"""Concrete per-rank fallback evaluation for the static verifier.

The symbolic set algebra over-approximates differences whenever a
subtrahend carries existential variables (CYCLIC ownership, MULTI
layouts).  When a symbolic proof fails, the verifier re-checks the claim
from primitive point sets: bind the processor coordinates of every rank
in turn, enumerate, and compare.  Concrete counterexamples upgrade a
failed proof to an error; a concretely clean recheck downgrades it to a
warning (``W-UNPROVEN``).
"""

from __future__ import annotations

from typing import Hashable, Mapping, Optional, Sequence

from ..distrib.grid import ProcessorGrid
from ..distrib.layout import DistributionContext, proc_binding
from ..isets import ISet

#: above this grid size the race check samples rank pairs instead of
#: enumerating them all (corners + center, see :meth:`ConcreteEvaluator.ranks`)
_EXHAUSTIVE_GRID_LIMIT = 16


class ConcreteEvaluator:
    """Caches per-rank bindings, point sets and ownership lookups."""

    def __init__(
        self,
        ctx: DistributionContext,
        params: Mapping[str, int],
        grid: Optional[ProcessorGrid],
    ):
        self.ctx = ctx
        self.params = dict(params)
        self.grid = grid
        self._bindings: dict[int, dict[str, int]] = {}
        self._points: dict[tuple[Hashable, int], Optional[frozenset]] = {}
        self._owned: dict[tuple[str, int], frozenset] = {}
        self._owner: dict[tuple[str, tuple[int, ...]], Optional[int]] = {}

    # -- rank handling ------------------------------------------------------
    def binding(self, rank: int) -> dict[str, int]:
        if rank not in self._bindings:
            self._bindings[rank] = {
                **self.params,
                **proc_binding(self.grid.delinearize(rank)),
            }
        return self._bindings[rank]

    def ranks(self) -> list[int]:
        """All ranks, or a corner+center sample on large grids (the halo
        and pipeline patterns the compiler emits are corner-extremal)."""
        if self.grid is None:
            return []
        size = self.grid.size
        if size <= _EXHAUSTIVE_GRID_LIMIT:
            return list(range(size))
        shape = self.grid.shape
        import itertools

        sample = {
            self.grid.linearize(c)
            for c in itertools.product(*({0, s - 1} for s in shape))
        }
        sample.add(self.grid.linearize(tuple(s // 2 for s in shape)))
        return sorted(sample)

    # -- point sets -----------------------------------------------------------
    def points(
        self, iset: ISet, rank: int, key: Hashable = None
    ) -> Optional[frozenset]:
        """Concrete points of *iset* on *rank*, or None when the set still
        has free names after binding (e.g. pipelined events whose data
        depends on outer loop variables) or is unbounded."""
        ck = (key, rank) if key is not None else None
        if ck is not None and ck in self._points:
            return self._points[ck]
        try:
            pts: Optional[frozenset] = frozenset(
                iset.bind(self.binding(rank)).points()
            )
        except (KeyError, ValueError):
            pts = None
        if ck is not None:
            self._points[ck] = pts
        return pts

    def owned(self, array: str, rank: int) -> frozenset:
        key = (array, rank)
        if key not in self._owned:
            coords = self.grid.delinearize(rank)
            self._owned[key] = frozenset(self.ctx.owned_elements(array, coords))
        return self._owned[key]

    def owner_rank(self, array: str, elem: Sequence[int]) -> Optional[int]:
        key = (array, tuple(elem))
        if key not in self._owner:
            layout = self.ctx.layout(array)
            if layout is None:
                self._owner[key] = None
            else:
                try:
                    coords = layout.owner_coords_of(tuple(elem))
                    self._owner[key] = self.grid.linearize(coords)
                except (KeyError, ValueError):
                    self._owner[key] = None
        return self._owner[key]


def union_points(sets: "list[Optional[frozenset]]") -> Optional[frozenset]:
    """Union of concrete point sets; None (unknown) poisons the result."""
    out: frozenset = frozenset()
    for s in sets:
        if s is None:
            return None
        out |= s
    return out
