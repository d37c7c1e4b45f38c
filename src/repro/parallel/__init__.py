"""Parallel SP/BT implementations on the simulated runtime — the three
versions compared in §8's tables:

- :mod:`.handmpi` — the hand-written MPI strategy: diagonal
  **multipartitioning** (perfect load balance in every sweep; modeled
  schedule — see DESIGN.md substitutions).
- :mod:`.dhpf` — the dHPF-compiled strategy: 2D BLOCK distribution over
  (y, z), LOCALIZE-style replicated reciprocal computation, local x solve,
  **coarse-grain pipelined** y/z wavefront solves with pipelined
  write-backs, and §7 availability elimination of the anti-pipeline read.
  Runs both *functionally* (real numpy, verified == serial) and as a work
  model.
- :mod:`.pgi` — the pghpf strategy: 1D BLOCK over z, local x/y solves, and
  a full **copy-transpose** before and after the z line solve.

:func:`run_parallel` is the single entry point used by examples and the
benchmark harness.
"""

from .api import RunResult, run_parallel
from .checkpoint import CheckpointStore
from .decomp import BlockDecomp1D, BlockDecomp2D

__all__ = [
    "RunResult",
    "run_parallel",
    "BlockDecomp1D",
    "BlockDecomp2D",
    "CheckpointStore",
]
