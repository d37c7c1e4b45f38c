"""Serial SP pseudo-application (scalar pentadiagonal ADI).

One timestep = compute_rhs → x_solve → y_solve → z_solve → add, exactly
the phase structure of NPB2.3-serial SP (§3 of the paper).  The parallel
strategies in :mod:`repro.parallel` reuse the same :mod:`.ops` functions on
local tiles; their results are verified against this class.
"""

from __future__ import annotations

import numpy as np

from . import ops


class SPSolver:
    """Serial reference SP solver on an ``nx x ny x nz`` grid."""

    def __init__(self, shape: tuple[int, int, int]):
        if min(shape) < 7:
            raise ValueError("SP needs at least 7 points per dimension")
        self.shape = tuple(shape)
        self.u = ops.init_field(self.shape)
        self.forcing = self._build_forcing()
        self.steps_taken = 0

    def _build_forcing(self) -> np.ndarray:
        # forcing that nearly balances the initial rhs (90%), so the state
        # evolves smoothly instead of sitting at a fixed point
        return -0.9 * ops.compute_rhs(self.u)

    # -- phases ------------------------------------------------------------
    def compute_rhs(self) -> np.ndarray:
        return ops.compute_rhs(self.u, self.forcing)

    def adi_step(self) -> None:
        rhs = self.compute_rhs()
        ops.sp_sweep(self.u, rhs, axis=0)  # x_solve
        ops.sp_sweep(self.u, rhs, axis=1)  # y_solve
        ops.sp_sweep(self.u, rhs, axis=2)  # z_solve
        ops.add(self.u, rhs)
        self.steps_taken += 1

    def run(self, niter: int) -> None:
        for _ in range(niter):
            self.adi_step()

    # -- verification ---------------------------------------------------------
    def residual_norms(self) -> np.ndarray:
        """RMS of rhs per component — the NAS-style verification values."""
        rhs = self.compute_rhs()
        inner = rhs[2:-2, 2:-2, 2:-2]
        n = inner[..., 0].size
        return np.sqrt(np.sum(inner**2, axis=(0, 1, 2)) / n)

    def checksum(self) -> float:
        return float(np.sum(np.abs(self.u)))
