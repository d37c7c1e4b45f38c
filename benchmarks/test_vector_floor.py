"""Vector-backend floor: the wall-clock ratios CI holds.

The vector backend's node programs must stay well ahead of the scalar
backend's on the same seeded inputs: >= 4x on NAS SP ``compute_rhs`` at
class S (tracked runs sit far above; BENCH_PR4.json), and >= 15x on
Fig 6.1 ``x_solve_cell``, whose recurrence loop the planner sinks into
N-d boxes (~40x sunk, 4.6x before sinking), as on Fig 4.1 ``lhsy`` and
``exact_rhs``, whose NEW arrays the planner expands along the sunk loops
(~36x and ~43x expanded, 4.2x and 4.3x per j loop) — a planner that
silently falls back to per-point loops fails the floor.
Best of two runs per backend; the results must also agree bitwise.
Everything else about speed is ``bench/``'s job
(``python3 bench/run.py --workload kernels-S``).
"""

import time

import pytest

from repro.nas.specs import bitwise_identical, kernel_spec, seed_init

#: ``repro.nas.specs`` key -> minimum scalar / vector run-time ratio
FLOORS = {"sp-rhs-s": 4.0, "fig6.1": 15.0, "fig4.1": 15.0, "exact-rhs": 15.0}


def _best_of_two(spec, backend):
    ck = spec.compile(backend)
    init = seed_init(ck, spec.seed_bias)
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        results = ck.run(spec.scalars, init=init)
        best = min(best, time.perf_counter() - t0)
    return best, results


@pytest.mark.parametrize("key", sorted(FLOORS))
def test_vector_backend_holds_its_floor_over_scalar(key):
    spec = kernel_spec(key)
    scalar_s, scalar_results = _best_of_two(spec, "scalar")
    vector_s, vector_results = _best_of_two(spec, "vector")
    assert bitwise_identical(scalar_results, vector_results)
    assert scalar_s >= FLOORS[key] * vector_s, (
        f"{spec.name}: scalar {scalar_s * 1e3:.1f} ms / vector "
        f"{vector_s * 1e3:.1f} ms = {scalar_s / vector_s:.1f}x "
        f"(need >= {FLOORS[key]:.0f}x)"
    )
