"""Block decompositions and ghost-region bookkeeping for the tile codes."""

from __future__ import annotations

import math
from dataclasses import dataclass


def block_ranges(n: int, p: int) -> list[tuple[int, int]]:
    """HPF BLOCK split of [0, n) over p processors: block = ceil(n/p);
    inclusive (lo, hi) per coordinate (possibly empty: lo > hi)."""
    b = math.ceil(n / p)
    out = []
    for k in range(p):
        lo = k * b
        hi = min(lo + b - 1, n - 1)
        out.append((lo, hi))
    return out


@dataclass(frozen=True)
class DimBlock:
    """One rank's extent along one distributed dimension."""

    lo: int  # first owned global index
    hi: int  # last owned global index (inclusive)
    n: int  # global extent
    ghost: int  # ghost width

    @property
    def owned(self) -> int:
        return max(self.hi - self.lo + 1, 0)

    @property
    def glo(self) -> int:
        """First global index present in the local (ghosted) array."""
        return max(self.lo - self.ghost, 0)

    @property
    def ghi(self) -> int:
        """Last global index present in the local array."""
        return min(self.hi + self.ghost, self.n - 1)

    @property
    def local_n(self) -> int:
        return self.ghi - self.glo + 1

    def to_local(self, g: int) -> int:
        """Global index -> local array index."""
        return g - self.glo

    def own_slice(self) -> slice:
        return slice(self.to_local(self.lo), self.to_local(self.hi) + 1)

    def interior_region(self) -> slice:
        """Local slice of owned points that are also global-interior
        (>= 2 from each domain face) — where rhs/add apply."""
        a = max(self.lo, 2)
        b = min(self.hi, self.n - 3)
        return slice(self.to_local(a), self.to_local(b) + 1)


class BlockDecomp2D:
    """(y, z) BLOCK x BLOCK decomposition used by the dHPF-style codes."""

    def __init__(self, shape: tuple[int, int, int], pgrid: tuple[int, int], ghost: int = 3):
        self.shape = shape
        self.pgrid = pgrid
        self.ghost = ghost
        self.y_ranges = block_ranges(shape[1], pgrid[0])
        self.z_ranges = block_ranges(shape[2], pgrid[1])

    @property
    def nprocs(self) -> int:
        return self.pgrid[0] * self.pgrid[1]

    def coords(self, rank: int) -> tuple[int, int]:
        return (rank // self.pgrid[1], rank % self.pgrid[1])

    def rank_of(self, py: int, pz: int) -> int:
        return py * self.pgrid[1] + pz

    def tile(self, rank: int) -> tuple[DimBlock, DimBlock]:
        py, pz = self.coords(rank)
        ylo, yhi = self.y_ranges[py]
        zlo, zhi = self.z_ranges[pz]
        return (
            DimBlock(ylo, yhi, self.shape[1], self.ghost),
            DimBlock(zlo, zhi, self.shape[2], self.ghost),
        )

    def neighbor(self, rank: int, dim: int, delta: int) -> int | None:
        """Rank offset by *delta* along proc dim (0=y, 1=z); None off-grid."""
        py, pz = self.coords(rank)
        if dim == 0:
            py += delta
        else:
            pz += delta
        if 0 <= py < self.pgrid[0] and 0 <= pz < self.pgrid[1]:
            return self.rank_of(py, pz)
        return None


class BlockDecomp1D:
    """z-only BLOCK decomposition used by the PGI-style codes."""

    def __init__(self, shape: tuple[int, int, int], nprocs: int, ghost: int = 2, axis: int = 2):
        self.shape = shape
        self.nprocs = nprocs
        self.ghost = ghost
        self.axis = axis
        self.ranges = block_ranges(shape[axis], nprocs)

    def tile(self, rank: int) -> DimBlock:
        lo, hi = self.ranges[rank]
        return DimBlock(lo, hi, self.shape[self.axis], self.ghost)

    def neighbor(self, rank: int, delta: int) -> int | None:
        r = rank + delta
        return r if 0 <= r < self.nprocs else None


def chunk_ranges(n: int, width: int) -> list[tuple[int, int]]:
    """Split [0, n) into chunks of *width* (inclusive lo, hi) — the
    coarse-grain pipelining granularity knob."""
    if width <= 0:
        width = n
    return [(lo, min(lo + width - 1, n - 1)) for lo in range(0, n, width)]
