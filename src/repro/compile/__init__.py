"""Compilation-as-a-service: staged pipeline, plan cache, batch driver.

- :mod:`repro.compile.key` — content-addressed :class:`PlanKey` over
  (canonical source, params, nprocs, backend, strictness, compiler
  fingerprint), with staged parse/analysis/kernel digests.
- :mod:`repro.compile.cache` — two-tier :class:`PlanCache` (in-process
  LRU over a self-validating on-disk store).
- :mod:`repro.compile.pipeline` — the explicit parse → analyze → codegen
  stages behind :func:`repro.codegen.compile_kernel`, with serializable
  per-stage artifacts and warm-hit diagnostic replay.
- :mod:`repro.compile.pool` — :class:`CompilePool`, the supervised
  persistent worker pool (retry/backoff, quarantine, backpressure) — the
  one driver of compile workers.
- :mod:`repro.compile.driver` — jobs, outcomes, and :func:`compile_many`
  (one batch on a transient pool).
- :mod:`repro.compile.service` — :class:`CompileService`
  (submit/poll/collect).
- :mod:`repro.compile.serve` — the ``python -m repro.eval serve``
  subcommand (job files, ``--prewarm nas``, SIGTERM drain); imported by
  the CLI only.
- :mod:`repro.compile.chaos` — the compile service as a subject of the
  one chaos runner (:mod:`repro.eval.chaos`, ``python -m repro.eval
  chaos --service``): its fault-free reference, its six fault injectors,
  and the multi-process cache hammer.
"""

from .cache import (
    PlanCache,
    PlanCacheConfig,
    PlanCacheStats,
    active_cache,
    cache_disabled,
    default_cache_dir,
    scratch_cache,
    set_active_cache,
    use_cache,
)
from .key import PlanKey, canonicalize_source, compiler_fingerprint

__all__ = [
    "PlanCache",
    "PlanCacheConfig",
    "PlanCacheStats",
    "PlanKey",
    "active_cache",
    "cache_disabled",
    "canonicalize_source",
    "compiler_fingerprint",
    "default_cache_dir",
    "scratch_cache",
    "set_active_cache",
    "use_cache",
    # driver/pool/service are imported lazily to keep
    # `import repro.compile` light; see the submodules
    "compile_many",
    "CompileJob",
    "CompileOutcome",
    "CompilePool",
    "CompileQuarantined",
    "CompileService",
    "PoolConfig",
    "ServiceOverloaded",
]

_POOL_NAMES = (
    "CompilePool", "CompileQuarantined", "PoolConfig", "ServiceOverloaded",
)


def __getattr__(name):
    if name in ("compile_many", "CompileJob", "CompileOutcome"):
        from . import driver

        return getattr(driver, name)
    if name in _POOL_NAMES:
        from . import pool

        return getattr(pool, name)
    if name == "CompileService":
        from .service import CompileService

        return CompileService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
