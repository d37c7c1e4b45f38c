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

A coverage floor rides along: the differential fuzzer's programs on seeds
0-59, compiled lenient with the vector backend, must keep at least
:data:`FUZZ_VECTOR_STMTS` statements with a vector level — most of them
in lone innermost loops, so a planner that silently sends those to the
scalar backend fails here rather than only in the timings.

Everything else about speed is ``bench/``'s job
(``python3 bench/run.py --workload kernels-S``).
"""

import time

import pytest

from repro.nas.specs import bitwise_identical, kernel_spec, seed_init

#: ``repro.nas.specs`` key -> minimum scalar / vector run-time ratio
FLOORS = {"sp-rhs-s": 4.0, "fig6.1": 15.0, "fig4.1": 15.0, "exact-rhs": 15.0}

#: statements with a vector level over fuzz seeds 0-59 (all 85 of them
#: when the floor was set)
FUZZ_SEEDS = 60
FUZZ_VECTOR_STMTS = 85


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


def test_fuzz_corpus_keeps_its_vector_statements():
    from repro.codegen import compile_kernel
    from repro.compile import cache_disabled
    from repro.eval.fuzz import gen_spec

    total = 0
    with cache_disabled():
        for seed in range(FUZZ_SEEDS):
            spec = gen_spec(seed)
            ck = compile_kernel(spec.render(), spec.nprocs, strict=False)
            ck.python_source("mpi")  # fills vector_report
            total += sum(len(r.vector_sids) for r in ck.vector_report.values())
    assert total >= FUZZ_VECTOR_STMTS, (
        f"{total} statements keep a vector level on fuzz seeds "
        f"0-{FUZZ_SEEDS - 1} (need >= {FUZZ_VECTOR_STMTS})"
    )
