"""Serial BT pseudo-application (block tridiagonal 5x5 ADI).

Identical phase structure to SP; the difference — as §3 of the paper puts
it — is that BT solves block-tridiagonal systems of 5x5 blocks where SP
solves scalar pentadiagonal systems.
"""

from __future__ import annotations

import numpy as np

from . import ops


class BTSolver:
    """Serial reference BT solver on an ``nx x ny x nz`` grid."""

    def __init__(self, shape: tuple[int, int, int]):
        if min(shape) < 7:
            raise ValueError("BT needs at least 7 points per dimension")
        self.shape = tuple(shape)
        self.u = ops.init_field(self.shape)
        self.forcing = -0.9 * ops.compute_rhs(self.u)
        self.steps_taken = 0

    # -- phases ----------------------------------------------------------
    def compute_rhs(self) -> np.ndarray:
        return ops.compute_rhs(self.u, self.forcing)

    def adi_step(self) -> None:
        rhs = self.compute_rhs()
        ops.bt_sweep(self.u, rhs, axis=0)  # x_solve
        ops.bt_sweep(self.u, rhs, axis=1)  # y_solve
        ops.bt_sweep(self.u, rhs, axis=2)  # z_solve
        ops.add(self.u, rhs)
        self.steps_taken += 1

    def run(self, niter: int) -> None:
        for _ in range(niter):
            self.adi_step()

    # -- verification -------------------------------------------------------
    def residual_norms(self) -> np.ndarray:
        rhs = self.compute_rhs()
        inner = rhs[2:-2, 2:-2, 2:-2]
        n = inner[..., 0].size
        return np.sqrt(np.sum(inner**2, axis=(0, 1, 2)) / n)

    def checksum(self) -> float:
        return float(np.sum(np.abs(self.u)))
