"""Plan-cache smoke guard: warm compiles must be dramatically cheap.

The headline claim of the compilation-service refactor is that a warm
plan-cache hit replays a recorded compilation instead of redoing
analysis: for the NAS SP ``compute_rhs`` kernel at class S the warm
path must be at least 10x faster than the cold path and the replayed
kernel must be bitwise-identical to the cold one.  The cache lives in a
pytest tmpdir so the guard is hermetic — no state leaks between CI runs
or into the developer's ``~/.cache``.
"""

import gc
import time

import pytest

from repro.compile import PlanCache, PlanCacheConfig, use_cache
from repro.nas.classes import CLASSES
from repro.nas.specs import kernel_spec

#: floor enforced in CI; observed ratios are far higher (see BENCH_PR7.json)
MIN_SPEEDUP = 10.0


@pytest.fixture
def plan_cache(tmp_path):
    cache = PlanCache(PlanCacheConfig(directory=str(tmp_path / "plans")))
    with use_cache(cache):
        yield cache


def _sp_rhs_spec():
    spec = kernel_spec("sp-rhs-s")
    assert spec.params == {"n": CLASSES["S"].problem_size}
    return spec


def test_warm_compile_at_least_10x_faster(plan_cache):
    spec = _sp_rhs_spec()

    # a full collection of earlier tests' objects can land in either timed
    # window (a generation-2 pass took 36 ms of a 42 ms warm compile on a
    # 2-core host)
    gc.collect()
    t0 = time.perf_counter()
    cold = spec.compile("vector")
    cold_s = time.perf_counter() - t0

    gc.collect()
    t0 = time.perf_counter()
    warm = spec.compile("vector")
    warm_s = time.perf_counter() - t0

    stats = plan_cache.stats
    assert stats.misses >= 1 and stats.hits >= 1, stats.as_dict()
    assert warm_s * MIN_SPEEDUP < cold_s, (
        f"warm {warm_s * 1e3:.1f}ms vs cold {cold_s * 1e3:.1f}ms "
        f"(need >= {MIN_SPEEDUP}x)"
    )

    # the replayed kernel is the cold kernel, bit for bit
    for target in ("mpi", "shmem"):
        assert cold.python_source(target) == warm.python_source(target)


def test_warm_hit_survives_lru_clear(plan_cache):
    spec = _sp_rhs_spec()
    cold = spec.compile("vector")
    plan_cache.clear_lru()  # force the disk tier

    gc.collect()
    t0 = time.perf_counter()
    warm = spec.compile("vector")
    warm_s = time.perf_counter() - t0

    assert plan_cache.stats.disk_hits >= 1
    assert warm_s < 5.0  # disk replay, not recompilation
    assert cold.python_source("mpi") == warm.python_source("mpi")
