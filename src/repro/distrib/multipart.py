"""Diagonal multipartitioning (Naik '95) — the hand-written NAS SP/BT layout.

With ``P = q**2`` processors, the 3D domain is cut into a ``q x q x q`` grid
of *cells*.  Processor ``(a, b)`` owns the q cells

    { (c, (a + c) mod q, (b + c) mod q)  :  c = 0 .. q-1 }

so that for a line-sweep along *any* dimension, every processor owns exactly
one cell at each sweep step: perfect load balance with coarse-grain
communication, which is why the hand-coded benchmarks scale so well.  The
paper stresses that this distribution is *not expressible in HPF* — here it
backs the hand-MPI baseline in the evaluation harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class Cell:
    """One tile of the multipartitioning: cell-grid coords + index ranges."""

    coords: tuple[int, int, int]  # (cx, cy, cz) in the q^3 cell grid
    ranges: tuple[tuple[int, int], ...]  # inclusive (lo, hi) per dim


class MultiPartition3D:
    """Diagonal multipartitioning of an ``nx x ny x nz`` domain on q^2 procs."""

    def __init__(self, nprocs: int, shape: Sequence[int]):
        q = math.isqrt(nprocs)
        if q * q != nprocs:
            raise ValueError(f"multipartitioning requires a square processor count, got {nprocs}")
        if len(shape) != 3:
            raise ValueError("MultiPartition3D needs a 3D domain shape")
        self.q = q
        self.nprocs = nprocs
        self.shape = tuple(int(s) for s in shape)

    # -- cell geometry -------------------------------------------------------
    def dim_slabs(self, d: int) -> list[tuple[int, int]]:
        """The q inclusive (lo, hi) slab ranges along dimension d."""
        n = self.shape[d]
        out = []
        base = n // self.q
        extra = n % self.q
        start = 0
        for s in range(self.q):
            size = base + (1 if s < extra else 0)
            out.append((start, start + size - 1))
            start += size
        return out

    def cell(self, coords: tuple[int, int, int]) -> Cell:
        rng = tuple(self.dim_slabs(d)[coords[d]] for d in range(3))
        return Cell(coords, rng)

    # -- ownership ----------------------------------------------------------
    def proc_coords(self, rank: int) -> tuple[int, int]:
        return (rank // self.q, rank % self.q)

    def rank_of(self, a: int, b: int) -> int:
        return (a % self.q) * self.q + (b % self.q)

    def cells_of(self, rank: int) -> list[Cell]:
        """The q cells owned by a rank, indexed by diagonal position c."""
        a, b = self.proc_coords(rank)
        return [
            self.cell((c, (a + c) % self.q, (b + c) % self.q))
            for c in range(self.q)
        ]

    def owner_of_cell(self, coords: tuple[int, int, int]) -> int:
        cx, cy, cz = coords
        a = (cy - cx) % self.q
        b = (cz - cx) % self.q
        return self.rank_of(a, b)

    def owner_of_point(self, point: Sequence[int]) -> int:
        coords = []
        for d in range(3):
            slabs = self.dim_slabs(d)
            for s, (lo, hi) in enumerate(slabs):
                if lo <= point[d] <= hi:
                    coords.append(s)
                    break
            else:
                raise ValueError(f"point {point} outside domain {self.shape}")
        return self.owner_of_cell(tuple(coords))  # type: ignore[arg-type]

    # -- sweep schedules ------------------------------------------------------
    def sweep_cell(self, rank: int, sweep_dim: int, step: int) -> Cell:
        """The unique cell of *rank* whose coordinate along sweep_dim == step."""
        for cell in self.cells_of(rank):
            if cell.coords[sweep_dim] == step:
                return cell
        raise AssertionError("multipartition invariant violated")

    def sweep_neighbor(self, rank: int, sweep_dim: int, step: int, forward: bool) -> int | None:
        """Rank owning the next cell along the sweep (None at the boundary)."""
        nxt = step + 1 if forward else step - 1
        if not (0 <= nxt < self.q):
            return None
        cell = self.sweep_cell(rank, sweep_dim, step)
        coords = list(cell.coords)
        coords[sweep_dim] = nxt
        return self.owner_of_cell(tuple(coords))  # type: ignore[arg-type]

    def all_cells(self) -> Iterator[Cell]:
        for cx in range(self.q):
            for cy in range(self.q):
                for cz in range(self.q):
                    yield self.cell((cx, cy, cz))
