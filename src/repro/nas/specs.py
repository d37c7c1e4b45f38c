"""The paper-kernel table: which kernel, at which size, on how many ranks.

The paper evaluates one fixed set of kernels (Figs 4.1–6.1, ``exact_rhs``,
SP/BT ``compute_rhs``, §8).  This module is the only place that set is
written down; ``repro.check.targets``, ``python -m repro.eval`` (``cost``,
``diffstats``, ``proc``, ``serve --prewarm nas``) and the test suites all
read their ``(source, nprocs, params)`` from it.  It also owns the two
helpers every bitwise comparison over the table shares: deterministic input
seeding (:func:`seed_init`) and the strict equality check
(:func:`bitwise_identical`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import kernels
from .classes import CLASSES


@dataclass
class KernelSpec:
    """One row of the table: a kernel at a size on a rank count, with the
    scalars and input seeding its runs use."""

    key: str  # stable short id consumers select by
    name: str  # display name (carries the size)
    nprocs: int
    params: dict
    scalars: dict
    source: Any = None  # Fortran source text, or None with `build`
    build: Callable[[], Any] | None = None  # () -> parsed Subroutine
    class_s: bool = False  # part of the NAS class-S guard set
    pipelined: bool = False  # analysis-only: codegen rejects its comm
    #: name -> (last-axis index, offset) added to the seeded array (e.g.
    #: lift the energy component of `u` so sqrt(energy - kinetic) is real)
    seed_bias: dict = field(default_factory=dict)

    def program(self):
        """What ``compile_kernel`` takes: the source text, or the built
        subroutine for kernels that need a transformation first."""
        return self.build() if self.build is not None else self.source

    def compile(self, backend: str = "vector"):
        from ..codegen import compile_kernel

        return compile_kernel(
            self.program(), nprocs=self.nprocs, params=self.params,
            backend=backend,
        )


def fig61_subroutine():
    """Figure 6.1 (x_solve_cell) with its leaf routines inlined, its
    statements numbered from 1 whatever the process parsed before."""
    from ..frontend import parse_source
    from ..ir.stmt import reset_sids
    from ..transform import inline_calls

    reset_sids()
    prog = parse_source(kernels.BT_SOLVE_CELL)
    for leaf in ("matvec_sub", "matmul_sub", "binvcrhs"):
        inline_calls(prog, "x_solve_cell", leaf)
    return prog.get("x_solve_cell")


def all_specs() -> list[KernelSpec]:
    """Every row of the table: each paper kernel at its figure's size, the
    NAS class-S rows (``class_s=True`` marks the guard set), and Figure
    5.1's line solves (``pipelined=True``: selected, verified and costed,
    never run — the code generator rejects their pipelined communication)."""
    s = CLASSES["S"].problem_size
    lhsy_scalars = {"c2": 0.5, "dy3": 0.1, "c1c5": 0.2, "dtty1": 0.3, "dtty2": 0.4}
    rhs_scalars = {"c1": 0.3, "c2": 0.2}
    sp_rhs_scalars = {"c1c2": 0.7, "c2": 0.2, "dt": 0.015}
    return [
        KernelSpec("fig4.1", "fig4.1 lhsy n=17", 4, {"n": 17},
                   dict(lhsy_scalars, n=17), source=kernels.LHSY_SP),
        KernelSpec("fig4.2", "fig4.2 compute_rhs n=13", 8, {"n": 13},
                   dict(rhs_scalars, n=13), source=kernels.COMPUTE_RHS_BT),
        KernelSpec("exact-rhs", "exact_rhs n=17", 4, {"n": 17}, {"n": 17},
                   source=kernels.EXACT_RHS_SP),
        KernelSpec("fig6.1", "fig6.1 x_solve_cell n=13", 4, {"n": 13},
                   {"n": 13}, build=fig61_subroutine),
        KernelSpec("sp-exact-rhs-s", "sp exact_rhs class S", 4, {"n": s},
                   {"n": s}, source=kernels.EXACT_RHS_SP),
        KernelSpec("sp-rhs-s", "sp compute_rhs class S", 4, {"n": s},
                   dict(sp_rhs_scalars, n=s),
                   source=kernels.COMPUTE_RHS_SP, class_s=True,
                   seed_bias={"u": (4, 20.0)}),
        KernelSpec("bt-rhs-s", "bt compute_rhs class S", 8, {"n": s},
                   dict(rhs_scalars, n=s),
                   source=kernels.COMPUTE_RHS_BT, class_s=True),
        KernelSpec("fig5.1", "fig5.1 y_solve", 4, {"n": 17, "m": 0}, {},
                   source=kernels.Y_SOLVE_SP, pipelined=True),
        KernelSpec("fig5.1-variant", "fig5.1 y_solve (variant)", 4,
                   {"n": 17, "m": 0}, {}, source=kernels.Y_SOLVE_SP_VARIANT,
                   pipelined=True),
        KernelSpec("sp-class-s", "NAS SP y_solve, class S", 4,
                   {"n": s, "m": 0}, {}, source=kernels.Y_SOLVE_SP,
                   pipelined=True),
    ]


def kernel_specs() -> list[KernelSpec]:
    """The rows that compile and run (everything but the pipelined ones)."""
    return [entry for entry in all_specs() if not entry.pipelined]


def kernel_spec(key: str) -> KernelSpec:
    """The table row (compiled or pipelined) with this ``key``."""
    for entry in all_specs():
        if entry.key == key:
            return entry
    raise KeyError(key)


def seed_init(ck, seed_bias: dict | None = None) -> Callable:
    """Deterministic full-array seeding, identical across backends/ranks.

    Values live in [1, 2) so reciprocal-style kernels never divide by
    anything near zero.
    """
    proto = ck.make_arrays()
    seeds = {}
    for name in sorted(proto):
        # crc32, not hash(): str hashes are randomised per interpreter
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        seeds[name] = rng.random(proto[name].data.shape) + 1.0
        if seed_bias and name in seed_bias:
            idx, off = seed_bias[name]
            seeds[name][..., idx] += off

    def init(rid, A):
        for name, data in seeds.items():
            A[name].data[:] = data

    return init


def bitwise_identical(a, b) -> bool:
    """Strict equality of two results: per-rank lists of array dicts (the
    mpi shape) or two shared array dicts (the shmem shape).  A missing
    rank, a missing or extra array, or one differing byte is a mismatch."""
    if isinstance(a, dict) or isinstance(b, dict):
        return (
            isinstance(a, dict) and isinstance(b, dict)
            and a.keys() == b.keys()
            and all(a[n].data.tobytes() == b[n].data.tobytes() for n in a)
        )
    return len(a) == len(b) and all(
        bitwise_identical(x, y) for x, y in zip(a, b)
    )
