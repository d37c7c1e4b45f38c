"""dHPF-compiled strategy: 2D BLOCK over (y, z) with pipelined wavefronts.

This mirrors, phase by phase, what the dHPF compiler generates for SP/BT
from the minimally-modified serial source (§8.1):

- ghost (overlap-area) exchange of ``u`` before compute_rhs,
- **LOCALIZE** partial replication: every rank computes the reciprocal
  arrays over its owned+ghost region — zero communication for them (§4.2),
- x_solve fully local (x is not distributed),
- y_solve / z_solve as **coarse-grain pipelined** wavefronts: forward
  elimination proceeds plane by plane along the distributed dimension;
  statements updating rows j+1 / j+2 run under non-owner CPs and their
  results are *written back* to the next processor (§5 + §2's model);
  the inner x dimension is blocked by the pipelining granularity G,
- §7 availability analysis removes the read communication that would flow
  against the pipeline; the residual "spurious message between successive
  pipelines" the paper measured is modeled by an option (on by default, to
  match the paper's measured configuration).

The same node program runs *functionally* (real numpy; results verified
against the serial solver) or as a pure work model (virtual time only) —
the control flow and message schedule are identical in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nas import ops
from ..runtime.sim import Rank
from . import flops
from .checkpoint import CheckpointStore
from .decomp import BlockDecomp2D, chunk_ranges

#: SP variant -> rhs component slice (NAS's lhs / lhsp / lhsm systems)
SP_VARIANTS = ((0, slice(0, 3)), (1, slice(3, 4)), (2, slice(4, 5)))


def auto_granularity(
    nx: int,
    pipeline_stages: int,
    work_per_column: float,
    elems_per_column: int,
    model,
) -> int:
    """Analytic per-nest pipelining granularity (the paper's future work).

    With chunk width G, one pipeline costs roughly
    ``(nx/G + P - 1) * (w*G + alpha + beta*b*G)`` (steady state plus
    fill/drain); minimizing over G gives

        G* = sqrt( nx * alpha / ((P - 1) * (w + beta*b)) )

    where w is modeled compute seconds per x column and b the bytes sent
    per column.  Clamped to [1, nx].
    """
    if pipeline_stages <= 1:
        return nx
    per_col = work_per_column + model.beta * elems_per_column * model.word_bytes
    if per_col <= 0:
        return nx
    g = (nx * model.alpha / ((pipeline_stages - 1) * per_col)) ** 0.5
    return max(1, min(nx, int(round(g))))


@dataclass
class DhpfOptions:
    """Tunables of the dHPF-generated code (ablation knobs).

    ``granularity`` is the coarse-grain pipelining chunk width in x
    columns.  The paper's dHPF applied one *uniform* granularity to every
    nest and notes that "an independent granularity selection for each
    loop nest would lead to superior results" — pass ``granularity=0``
    for exactly that: a per-nest analytic choice (see
    :func:`auto_granularity`), implementing the paper's future work.
    """

    granularity: int = 8  # chunk width; 0 = automatic per-nest selection
    availability: bool = True  # §7: drop anti-pipeline read communication
    spurious_between_pipelines: bool = True  # the residual message (§8.1)
    localize: bool = True  # §4.2: replicate reciprocal computation
    ghost: int = 3


class _Tile:
    """Per-rank state of the dHPF 2D-block code."""

    def __init__(
        self,
        rank: Rank,
        bench: str,
        shape: tuple[int, int, int],
        decomp: BlockDecomp2D,
        opt: DhpfOptions,
        functional: bool,
    ):
        self.rank = rank
        self.bench = bench
        self.shape = shape
        self.decomp = decomp
        self.opt = opt
        self.functional = functional
        self.vm_model = rank.vm.model
        self.yb, self.zb = decomp.tile(rank.rank)
        if functional and (self.yb.owned < 3 or self.zb.owned < 3):
            raise ValueError(
                "functional dHPF tiles need >= 3 owned planes per distributed dim"
            )
        nx = shape[0]
        self.local_shape = (nx, self.yb.local_n, self.zb.local_n)
        self.own_points = nx * self.yb.owned * self.zb.owned
        self.region = (
            slice(2, nx - 2),
            self.yb.interior_region(),
            self.zb.interior_region(),
        )
        if functional:
            self.u = ops.init_field(
                shape, lo=(0, self.yb.glo, self.zb.glo), local_shape=self.local_shape
            )
            self.forcing = -0.9 * ops.compute_rhs(self.u, region=self.region)
            self.rhs = np.zeros_like(self.u)
        else:
            self.u = self.forcing = self.rhs = None

    # -- ghost exchange ----------------------------------------------------------
    def exchange_u(self) -> None:
        """Overlap-area update of u along y and z (width = opt.ghost)."""
        g = self.opt.ghost
        nx = self.shape[0]
        for dim, blk in ((1, self.yb), (2, self.zb)):
            other = self.zb if dim == 1 else self.yb
            plane = nx * other.local_n * ops.NV
            lo_nb = self.decomp.neighbor(self.rank.rank, dim - 1, -1)
            hi_nb = self.decomp.neighbor(self.rank.rank, dim - 1, +1)
            own = blk.own_slice()
            tag = 100 + dim
            # send to both neighbors first (non-blocking), then receive
            if lo_nb is not None:
                sl = _dim_slice(dim, slice(own.start, own.start + g))
                self._send(lo_nb, self.u[sl] if self.functional else None, g * plane, tag)
            if hi_nb is not None:
                sl = _dim_slice(dim, slice(own.stop - g, own.stop))
                self._send(hi_nb, self.u[sl] if self.functional else None, g * plane, tag)
            if hi_nb is not None:
                data = self.rank.recv(hi_nb, tag)
                if self.functional:
                    self.u[_dim_slice(dim, slice(own.stop, own.stop + g))] = data
            if lo_nb is not None:
                data = self.rank.recv(lo_nb, tag)
                if self.functional:
                    self.u[_dim_slice(dim, slice(own.start - g, own.start))] = data

    def exchange_reciprocals_instead_of_localize(self) -> None:
        """Ablation (localize=False): fetch boundary values of the six
        reciprocal arrays from their owners (width 1 each way, both dims)
        instead of replicating their computation."""
        nx = self.shape[0]
        for dim, blk in ((1, self.yb), (2, self.zb)):
            other = self.zb if dim == 1 else self.yb
            plane = nx * other.local_n
            for delta in (-1, +1):
                nb = self.decomp.neighbor(self.rank.rank, dim - 1, delta)
                if nb is None:
                    continue
                # six arrays, one boundary plane each
                self._send(nb, None, 6 * plane, 300 + dim * 2 + (delta > 0))
            for delta in (-1, +1):
                nb = self.decomp.neighbor(self.rank.rank, dim - 1, delta)
                if nb is None:
                    continue
                self.rank.recv(nb, 300 + dim * 2 + (delta < 0))

    def _send(self, dst: int, data, nelems: int, tag: int) -> None:
        if self.functional and data is not None:
            self.rank.send(dst, np.ascontiguousarray(data), tag=tag)
        else:
            self.rank.send(dst, nelems=nelems, tag=tag)

    # -- phases --------------------------------------------------------------
    def compute_rhs_phase(self) -> None:
        self.rank.set_phase("compute_rhs")
        self.exchange_u()
        if not self.opt.localize:
            self.exchange_reciprocals_instead_of_localize()
        recip_points = (
            self.local_shape[0] * self.local_shape[1] * self.local_shape[2]
            if self.opt.localize
            else self.own_points
        )
        self.rank.compute(
            flops.RECIP_PER_POINT * recip_points
            + (flops.RHS_PER_POINT - flops.RECIP_PER_POINT) * self.own_points
        )
        if self.functional:
            self.rhs = ops.compute_rhs(self.u, self.forcing, region=self.region)

    def x_solve(self) -> None:
        self.rank.set_phase("x_solve")
        per_point = (
            flops.SP_SWEEP_PER_POINT if self.bench == "sp" else flops.BT_SWEEP_PER_POINT
        )
        self.rank.compute(per_point * self.own_points)
        if self.functional:
            if self.bench == "sp":
                ops.sp_sweep(self.u, self.rhs, axis=0)
            else:
                ops.bt_sweep(self.u, self.rhs, axis=0)

    def line_solve(self, dim: int) -> None:
        """Pipelined y_solve (dim=1) or z_solve (dim=2)."""
        self.rank.set_phase("y_solve" if dim == 1 else "z_solve")
        if self.bench == "sp":
            self._sp_pipelined_solve(dim)
        else:
            self._bt_pipelined_solve(dim)

    def add_phase(self) -> None:
        self.rank.set_phase("add")
        self.rank.compute(flops.ADD_PER_POINT * self.own_points)
        if self.functional:
            ops.add(self.u, self.rhs, region=self.region)

    def step(self) -> None:
        self.compute_rhs_phase()
        self.x_solve()
        self.line_solve(1)
        self.line_solve(2)
        self.add_phase()

    # -- SP pipelined solve --------------------------------------------------------
    def _sp_pipelined_solve(self, dim: int) -> None:
        blk = self.yb if dim == 1 else self.zb
        pd = dim - 1  # processor-grid axis
        prev = self.decomp.neighbor(self.rank.rank, pd, -1)
        nxt = self.decomp.neighbor(self.rank.rank, pd, +1)
        gn = self.shape[dim]
        nx = self.shape[0]
        other = self.zb if dim == 1 else self.yb
        build_points = self.local_shape[0] * self.local_shape[1] * self.local_shape[2]
        sweep_flops_own = flops.SP_SWEEP_PER_POINT * self.own_points
        g = self.opt.granularity
        if g <= 0:
            stages = self.decomp.pgrid[dim - 1]
            work_col = self.vm_model.compute_time(
                sweep_flops_own * 0.6 / 3 / nx
            ) if self.vm_model else 0.0
            g = auto_granularity(
                nx, stages, work_col, 2 * other.local_n * 10, self.vm_model
            ) if self.vm_model else 8
        chunks = chunk_ranges(nx, g)

        # Pre-nest vectorized read communication (§7: "occurs before the
        # loop nest begins and is therefore not disruptive to the
        # pipeline"): the forward elimination's lookahead updates of rows
        # b+1 / b+2 accumulate into the *initial* rhs values of those rows,
        # which belong to the next processor — fetch them once, hoisted.
        oa_g, ob_g = blk.to_local(blk.lo), blk.to_local(blk.hi)
        if prev is not None:
            payload = None
            if self.functional:
                rfull = np.moveaxis(self.rhs, dim, 0)
                payload = rfull[oa_g : oa_g + 2].copy()
            self._send(prev, payload, 2 * nx * other.local_n * 5, 480)
        if nxt is not None:
            data = self.rank.recv(nxt, tag=480)
            if self.functional:
                rfull = np.moveaxis(self.rhs, dim, 0)
                rfull[ob_g + 1 : ob_g + 3] = data

        # LOCALIZE once per sweep: the three variant builds share the same
        # reciprocal arrays, so compute them a single time.
        recip = ops.compute_reciprocals(self.u) if self.functional else None
        for variant, comps in SP_VARIANTS:
            ncomp = comps.stop - comps.start
            row_elems_fwd = 2 * other.local_n * (5 + ncomp)  # per x column
            row_elems_bwd = 2 * other.local_n * ncomp

            if self.functional:
                lhs = ops.sp_build_lhs(
                    self.u, dim, variant, glo=blk.glo, gn=gn, recip=recip
                )
                # lhs dims: (5, line, x?, other) — moveaxis put `dim` first;
                # remaining dims keep original order, so x is dim index 1.
                rm = np.moveaxis(self.rhs, dim, 0)[..., comps]
            else:
                lhs = rm = None
            # only the *replicated* (ghost-region) share of the lhs build is
            # extra work relative to the hand-coded version
            self.rank.compute(
                flops.SP_BUILD_PER_POINT / 3 * (build_points - self.own_points)
            )

            # The residual "spurious message between two successive
            # pipelines" the paper measured (§8.1): communication opposite
            # the pipeline flow between variants, delaying each start-up.
            if variant > 0 and self.opt.spurious_between_pipelines:
                if nxt is not None:
                    self.rank.recv(nxt, tag=900 + variant)
                if prev is not None:
                    self._send(prev, None, 2 * nx * other.local_n * 5, 900 + variant)

            oa, ob = blk.to_local(blk.lo), blk.to_local(blk.hi)
            last_step = min(blk.hi, gn - 3)
            # ---- forward elimination, chunked over x ----
            for (clo, chi) in chunks:
                cw = chi - clo + 1
                if prev is not None:
                    data = self.rank.recv(prev, tag=500 + variant)
                    if self.functional:
                        _unpack_rows(lhs, rm, data, (oa, oa + 1), clo, chi, ncomp)
                    if not self.opt.availability:
                        # §7 OFF: the just-received rows were *written back*
                        # to us (the owner); dHPF's model then re-fetches
                        # them for the writer's own later reads — echo them
                        # so the producer can continue. A full round trip
                        # against the pipeline, per chunk: this is what
                        # "completely disrupts the pipeline".
                        self._send(prev, None, cw * row_elems_fwd, 950 + variant)
                self.rank.compute(
                    sweep_flops_own * 0.6 / 3 * (cw / nx)
                )
                if self.functional:
                    for i in range(oa if prev is not None else 0, blk.to_local(last_step) + 1):
                        _sp_forward_chunk(lhs, rm, i, clo, chi)
                    if nxt is None:
                        _sp_finish_chunk(lhs, rm, blk.to_local(gn - 2), clo, chi)
                if nxt is not None:
                    payload = (
                        _pack_rows(lhs, rm, (ob + 1, ob + 2), clo, chi, ncomp)
                        if self.functional
                        else None
                    )
                    self._send(nxt, payload, cw * row_elems_fwd, 500 + variant)
                    if not self.opt.availability:
                        # block on the owner's echo before the next chunk
                        self.rank.recv(nxt, tag=950 + variant)
            # ---- back substitution, chunked over x (reverse pipeline) ----
            for (clo, chi) in chunks:
                cw = chi - clo + 1
                if nxt is not None:
                    data = self.rank.recv(nxt, tag=700 + variant)
                    if self.functional:
                        _unpack_rhs_rows(rm, data, (ob + 1, ob + 2), clo, chi)
                self.rank.compute(sweep_flops_own * 0.4 / 3 * (cw / nx))
                if self.functional:
                    start = blk.to_local(min(blk.hi, gn - 3))
                    for i in range(start, oa - 1, -1):
                        _sp_back_chunk(lhs, rm, i, clo, chi)
                if prev is not None:
                    payload = (
                        _pack_rhs_rows(rm, (oa, oa + 1), clo, chi)
                        if self.functional
                        else None
                    )
                    self._send(prev, payload, cw * row_elems_bwd, 700 + variant)

    # -- BT pipelined solve ----------------------------------------------------------
    def _bt_pipelined_solve(self, dim: int) -> None:
        blk = self.yb if dim == 1 else self.zb
        pd = dim - 1
        prev = self.decomp.neighbor(self.rank.rank, pd, -1)
        nxt = self.decomp.neighbor(self.rank.rank, pd, +1)
        gn = self.shape[dim]
        nx = self.shape[0]
        other = self.zb if dim == 1 else self.yb
        build_points = self.local_shape[0] * self.local_shape[1] * self.local_shape[2]
        sweep_flops_own = flops.BT_SWEEP_PER_POINT * self.own_points
        g = self.opt.granularity
        if g <= 0:
            stages = self.decomp.pgrid[dim - 1]
            work_col = self.vm_model.compute_time(
                sweep_flops_own * 0.7 / nx
            ) if self.vm_model else 0.0
            g = auto_granularity(
                nx, stages, work_col, other.local_n * 30, self.vm_model
            ) if self.vm_model else 8
        chunks = chunk_ranges(nx, g)

        if self.functional:
            rm = np.moveaxis(self.rhs, dim, 0)
            um = np.moveaxis(self.u, dim, 0)
            A, B, C = ops.bt_build_blocks(um, 0)
            B = B.copy()
            C = C.copy()
        else:
            rm = A = B = C = None
        self.rank.compute(
            flops.BT_BUILD_PER_POINT * (build_points - self.own_points)
        )

        row_elems_fwd = other.local_n * (25 + 5)  # C block + rhs per x column
        row_elems_bwd = other.local_n * 5

        # global interior rows are 1..gn-2; local row r <-> global blk.glo + r.
        # A/B/C arrays index k = local_row - 1.
        first = max(blk.lo, 1)
        last = min(blk.hi, gn - 2)
        oa, ob = blk.to_local(first), blk.to_local(last)
        for (clo, chi) in chunks:
            cw = chi - clo + 1
            xsl = slice(clo, chi + 1)
            if prev is not None:
                data = self.rank.recv(prev, tag=520)
                if self.functional:
                    # updated C and rhs of the row just below our block
                    C[oa - 2, xsl] = data[0]
                    rm[oa - 1, xsl] = data[1][..., :, 0]
            self.rank.compute(sweep_flops_own * 0.7 * (cw / nx))
            if self.functional:
                for i in range(oa, ob + 1):
                    k = i - 1
                    if blk.glo + i > 1:
                        ops.bt_matvec_sub(A[k, xsl], rm[i - 1, xsl], rm[i, xsl])
                        ops.bt_matmul_sub(A[k, xsl], C[k - 1, xsl], B[k, xsl])
                    ops.bt_binvcrhs(B[k, xsl], C[k, xsl], rm[i, xsl])
            if nxt is not None:
                payload = None
                if self.functional:
                    # updated C block row + solved rhs row, padded into one
                    # (2, ..., 5, 5) buffer
                    payload = np.zeros((2,) + C[ob - 1, xsl].shape, dtype=np.float64)
                    payload[0] = C[ob - 1, xsl]
                    payload[1, ..., :, 0] = rm[ob, xsl]
                self._send(nxt, payload, cw * row_elems_fwd, 520)
        # back substitution
        for (clo, chi) in chunks:
            cw = chi - clo + 1
            xsl = slice(clo, chi + 1)
            if nxt is not None:
                data = self.rank.recv(nxt, tag=720)
                if self.functional:
                    rm[ob + 1, xsl] = data
            self.rank.compute(sweep_flops_own * 0.3 * (cw / nx))
            if self.functional:
                top = ob if nxt is not None else ob - 1
                for i in range(top, oa - 1, -1):
                    k = i - 1
                    if blk.glo + i <= gn - 3:
                        ops.bt_matvec_sub(C[k, xsl], rm[i + 1, xsl], rm[i, xsl])
            if prev is not None:
                payload = rm[oa, xsl].copy() if self.functional else None
                self._send(prev, payload, cw * row_elems_bwd, 720)


# ---------------------------------------------------------------------------
# SP chunk helpers (x-restricted forward/back steps)
# ---------------------------------------------------------------------------

def _sp_forward_chunk(lhs: np.ndarray, rm: np.ndarray, i: int, clo: int, chi: int) -> None:
    x = slice(clo, chi + 1)
    fac1 = 1.0 / lhs[2][i, x]
    lhs[3][i, x] = fac1 * lhs[3][i, x]
    lhs[4][i, x] = fac1 * lhs[4][i, x]
    rm[i, x] = fac1[..., None] * rm[i, x]
    lhs[2][i + 1, x] = lhs[2][i + 1, x] - lhs[1][i + 1, x] * lhs[3][i, x]
    lhs[3][i + 1, x] = lhs[3][i + 1, x] - lhs[1][i + 1, x] * lhs[4][i, x]
    rm[i + 1, x] = rm[i + 1, x] - (lhs[1][i + 1, x])[..., None] * rm[i, x]
    lhs[1][i + 2, x] = lhs[1][i + 2, x] - lhs[0][i + 2, x] * lhs[3][i, x]
    lhs[2][i + 2, x] = lhs[2][i + 2, x] - lhs[0][i + 2, x] * lhs[4][i, x]
    rm[i + 2, x] = rm[i + 2, x] - (lhs[0][i + 2, x])[..., None] * rm[i, x]


def _sp_finish_chunk(lhs: np.ndarray, rm: np.ndarray, i: int, clo: int, chi: int) -> None:
    """Rows gn-2 / gn-1 tail, plus the first back-substitution row."""
    x = slice(clo, chi + 1)
    fac1 = 1.0 / lhs[2][i, x]
    lhs[3][i, x] = fac1 * lhs[3][i, x]
    rm[i, x] = fac1[..., None] * rm[i, x]
    lhs[2][i + 1, x] = lhs[2][i + 1, x] - lhs[1][i + 1, x] * lhs[3][i, x]
    rm[i + 1, x] = rm[i + 1, x] - (lhs[1][i + 1, x])[..., None] * rm[i, x]
    fac2 = 1.0 / lhs[2][i + 1, x]
    rm[i + 1, x] = fac2[..., None] * rm[i + 1, x]
    rm[i, x] = rm[i, x] - lhs[3][i, x][..., None] * rm[i + 1, x]


def _sp_back_chunk(lhs: np.ndarray, rm: np.ndarray, i: int, clo: int, chi: int) -> None:
    x = slice(clo, chi + 1)
    rm[i, x] = (
        rm[i, x]
        - lhs[3][i, x][..., None] * rm[i + 1, x]
        - lhs[4][i, x][..., None] * rm[i + 2, x]
    )


def _pack_rows(lhs, rm, rows, clo, chi, ncomp) -> np.ndarray:
    x = slice(clo, chi + 1)
    pieces = []
    for r in rows:
        for b in range(5):
            pieces.append(lhs[b][r, x][None])
        pieces.append(np.moveaxis(rm[r, x], -1, 0))
    return np.concatenate(pieces, axis=0)


def _unpack_rows(lhs, rm, data, rows, clo, chi, ncomp) -> None:
    x = slice(clo, chi + 1)
    idx = 0
    for r in rows:
        for b in range(5):
            lhs[b][r, x] = data[idx]
            idx += 1
        rm[r, x] = np.moveaxis(data[idx : idx + ncomp], 0, -1)
        idx += ncomp


def _pack_rhs_rows(rm, rows, clo, chi) -> np.ndarray:
    x = slice(clo, chi + 1)
    return np.stack([rm[r, x] for r in rows])


def _unpack_rhs_rows(rm, data, rows, clo, chi) -> None:
    x = slice(clo, chi + 1)
    for k, r in enumerate(rows):
        rm[r, x] = data[k]


def _dim_slice(dim: int, s: slice):
    out: list = [slice(None)] * 3
    out[dim] = s
    return tuple(out)


# ---------------------------------------------------------------------------
# node program factory
# ---------------------------------------------------------------------------

def make_dhpf_node(
    bench: str,
    shape: tuple[int, int, int],
    niter: int,
    pgrid: tuple[int, int],
    options: Optional[DhpfOptions] = None,
    functional: bool = True,
    checkpoint: Optional[CheckpointStore] = None,
):
    """Build the per-rank callable for the dHPF-style code.

    With ``checkpoint``, each rank snapshots its local ``u`` tile into the
    shared store after every iteration and, on (re)start, resumes from the
    latest iteration all ranks completed — the recovery path of the chaos
    harness (see ``repro.parallel.checkpoint``).
    """
    opt = options or DhpfOptions()
    decomp = BlockDecomp2D(shape, pgrid, ghost=opt.ghost)

    def node(rank: Rank):
        tile = _Tile(rank, bench, shape, decomp, opt, functional)
        start = 0
        if checkpoint is not None:
            start = checkpoint.latest_complete(rank.size)
            if start > 0 and functional:
                tile.u = checkpoint.restore(start, rank.rank)
        for it in range(start, niter):
            tile.step()
            if checkpoint is not None:
                checkpoint.save(it + 1, rank.rank, tile.u if functional else None)
        out = {"rank": rank.rank, "t": rank.t}
        if functional:
            own = tile.u[
                :, tile.yb.own_slice(), tile.zb.own_slice()
            ]
            out["u_own"] = own.copy()
            out["lo"] = (0, tile.yb.lo, tile.zb.lo)
            out["checksum"] = float(np.sum(np.abs(own)))
        return out

    return node, decomp
