"""Hand-written MPI strategy: diagonal multipartitioning (schedule model).

The NPB2.3b2 hand-coded SP/BT use the skewed-block *multipartitioning*
distribution (§3, §8): with P = q^2 processors each rank owns q diagonal
cells of the q^3 cell grid, so every rank has exactly one cell to work on
at *every* step of a bi-directional sweep along *any* dimension — near
perfect load balance with coarse-grain communication, and the reason the
hand-coded versions scale so well (Figures 8.1 / 8.3 show solid compute
bars with thin communication bands).

We model the schedule (copy_faces ghost exchange, per-sweep-step cell
compute + boundary transfer to the next cell's owner, add) on the virtual
machine; the numerical kernel itself is exercised functionally by the
serial solver and the other two strategies (see DESIGN.md substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..distrib.multipart import MultiPartition3D
from ..runtime.sim import Rank
from . import flops


@dataclass
class HandMpiOptions:
    """Tunables of the hand-MPI schedule model.

    ``cell_overhead_k`` models the cost of working on q diagonal cells
    instead of one large block: each cell's line solves run on lines a
    factor q shorter (loop startup/drain, per-cell boundary handling), an
    overhead proportional to the cell surface-to-volume ratio ~ q/N.  It
    multiplies sweep flops by ``(1 + k*q/N)``.  This is what lets the
    compiled block codes *beat* the hand-coded BT at small processor
    counts, as the paper measured (Table 8.2: efficiencies 1.07/1.10 at
    P=4).
    """

    face_width: int = 2  # ghost depth exchanged by copy_faces
    cell_overhead_k: float = 2.2

    @classmethod
    def for_bench(cls, bench: str) -> "HandMpiOptions":
        """BT's per-cell 5x5 block solves pay a larger short-line penalty
        than SP's scalar loops — this is why the paper's compiled BT codes
        overtake the hand code at small P (Table 8.2)."""
        return cls(cell_overhead_k=2.2 if bench == "sp" else 4.5)


def _cell_points(cell) -> int:
    n = 1
    for lo, hi in cell.ranges:
        n *= max(hi - lo + 1, 0)
    return n


def _face_area(cell, dim: int) -> int:
    n = 1
    for d, (lo, hi) in enumerate(cell.ranges):
        if d != dim:
            n *= max(hi - lo + 1, 0)
    return n


def make_handmpi_node(
    bench: str,
    shape: tuple[int, int, int],
    niter: int,
    nprocs: int,
    options: Optional[HandMpiOptions] = None,
    checkpoint=None,
):
    """Build the per-rank callable for the multipartitioning schedule.

    ``checkpoint`` (a ``repro.parallel.checkpoint.CheckpointStore``)
    records an iteration marker per rank after every iteration — the
    schedule model carries no numerical state — so a crashed run resumes
    at the last iteration all ranks completed instead of from scratch.
    """
    opt = options or HandMpiOptions()
    mp = MultiPartition3D(nprocs, shape)
    NV = 5
    cell_factor = 1.0 + opt.cell_overhead_k * mp.q / min(shape)
    sweep_pp = cell_factor * (
        flops.SP_SWEEP_PER_POINT if bench == "sp" else flops.BT_SWEEP_PER_POINT
    )
    pipe_row = flops.SP_PIPE_ROW_ELEMS if bench == "sp" else flops.BT_PIPE_ROW_ELEMS

    def node(rank: Rank):
        me = rank.rank
        cells = mp.cells_of(me)
        my_points = sum(_cell_points(c) for c in cells)

        # ---- iteration-invariant schedules, built once per rank ----
        # copy_faces: exchange cell faces with differently-owned neighbor
        # cells (gets all data needed by compute_rhs)
        face_sends: list[tuple[int, int, int]] = []  # (peer, nelems, tag)
        face_recvs: list[tuple[int, int]] = []
        for c in cells:
            for dim in range(3):
                for delta, side in ((-1, 0), (+1, 1)):
                    ncoords = list(c.coords)
                    ncoords[dim] += delta
                    if not (0 <= ncoords[dim] < mp.q):
                        continue
                    owner = mp.owner_of_cell(tuple(ncoords))
                    if owner == me:
                        continue
                    nelems = opt.face_width * _face_area(c, dim) * NV
                    tag = 10 + dim * 2 + side
                    face_sends.append((owner, nelems, tag))
                    face_recvs.append((owner, 10 + dim * 2 + (1 - side)))
        # per-sweep-step (src, flops, dst, nelems) tuples per dimension
        sweep_fwd: dict[int, list] = {}
        sweep_bwd: dict[int, list] = {}
        for dim in range(3):
            fwd = []
            for s in range(mp.q):
                cell = mp.sweep_cell(me, dim, s)
                src = mp.sweep_neighbor(me, dim, s, forward=False) if s > 0 else None
                dst = mp.sweep_neighbor(me, dim, s, forward=True)
                fwd.append(
                    (src, 0.6 * sweep_pp * _cell_points(cell), dst,
                     pipe_row * _face_area(cell, dim))
                )
            sweep_fwd[dim] = fwd
            bwd = []
            for s in range(mp.q - 1, -1, -1):
                cell = mp.sweep_cell(me, dim, s)
                src = (
                    mp.sweep_neighbor(me, dim, s, forward=True)
                    if s < mp.q - 1
                    else None
                )
                dst = mp.sweep_neighbor(me, dim, s, forward=False)
                bwd.append(
                    (src, 0.4 * sweep_pp * _cell_points(cell), dst,
                     (pipe_row // 2) * _face_area(cell, dim))
                )
            sweep_bwd[dim] = bwd

        start = checkpoint.latest_complete(rank.size) if checkpoint else 0
        for it in range(start, niter):
            rank.set_phase("copy_faces")
            for owner, nelems, tag in face_sends:
                rank.send(owner, nelems=nelems, tag=tag)
            for owner, tag in face_recvs:
                rank.recv(owner, tag=tag)

            rank.set_phase("compute_rhs")
            rank.compute(flops.RHS_PER_POINT * my_points)

            # ---- three bi-directional sweeps: one cell per step, always ----
            for dim, phase in ((0, "x_solve"), (1, "y_solve"), (2, "z_solve")):
                rank.set_phase(phase)
                for src, work, dst, nelems in sweep_fwd[dim]:
                    if src is not None:
                        rank.recv(src, tag=40 + dim)
                    rank.compute(work)
                    if dst is not None:
                        rank.send(dst, nelems=nelems, tag=40 + dim)
                for src, work, dst, nelems in sweep_bwd[dim]:
                    if src is not None:
                        rank.recv(src, tag=60 + dim)
                    rank.compute(work)
                    if dst is not None:
                        rank.send(dst, nelems=nelems, tag=60 + dim)

            rank.set_phase("add")
            rank.compute(flops.ADD_PER_POINT * my_points)
            if checkpoint is not None:
                checkpoint.save(it + 1, me, None)

        return {"rank": me, "t": rank.t}

    return node, mp
