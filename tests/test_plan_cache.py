"""Plan cache: key invalidation matrix, warm/cold identity, corruption.

The content-addressed plan cache must treat every semantically
significant compile input as part of the key (source tokens, params,
nprocs, distribution layout, backend, strictness, compiler fingerprint)
while ignoring presentation (whitespace, comments, identifier case,
numeric spelling, line continuations).  A warm hit must be
observationally identical to a cold compile: bitwise-identical node
programs and executed arrays, identical diagnostics replayed into the
caller's sink.  Corrupt on-disk entries must be detected, evicted, and
recompiled transparently.
"""

import os

import numpy as np
import pytest

from repro.codegen import compile_kernel
from repro.compile import (
    PlanCache,
    PlanCacheConfig,
    PlanKey,
    active_cache,
    canonicalize_source,
    use_cache,
)
from repro.diag import DiagnosticSink

SRC = """
      subroutine k(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx), b(0:nx)
chpf$ processors procs(4)
chpf$ template t(0:nx)
chpf$ align a(i) with t(i)
chpf$ align b(i) with t(i)
chpf$ distribute t(block) onto procs
      do i = 1, n - 1
         a(i) = b(i-1) + 1.0
      enddo
      end
"""

#: same tokens as SRC: comments, blank lines, case, spacing, and
#: continuation differ — none of which may change the plan key
SRC_INSIGNIFICANT = """
c felt cute, might delete later
      SUBROUTINE K(N)
      INTEGER N, I
      PARAMETER (NX = 15)
      DOUBLE PRECISION A(0:NX), B(0:NX)
chpf$ processors procs(4)
chpf$ template t(0:nx)
chpf$ align a(i) with t(i)
chpf$ align b(i) with t(i)
chpf$ distribute t(block) onto procs

      DO I = 1, N - 1
         A(I) = B(I-1) +
     &          1.0
      ENDDO
      END
"""

#: the constant changed: semantically different, must miss
SRC_SIGNIFICANT = SRC.replace("+ 1.0", "+ 2.0")

#: layout changed (block -> cyclic): must miss even though the
#: executable statements are identical
SRC_LAYOUT = SRC.replace("t(block)", "t(cyclic)")


@pytest.fixture
def cache(tmp_path):
    c = PlanCache(PlanCacheConfig(directory=str(tmp_path / "plans")))
    with use_cache(c):
        yield c


def _key(source=SRC, nprocs=4, params=None, backend="vector", strict=True,
         fingerprint="fp0"):
    return PlanKey.for_source(
        source, nprocs, params if params is not None else {"n": 8},
        backend=backend, strict=strict, fingerprint=fingerprint,
    )


# ---------------------------------------------------------------------------
# key derivation
# ---------------------------------------------------------------------------

class TestPlanKey:
    def test_insignificant_edits_share_key(self):
        assert canonicalize_source(SRC) == canonicalize_source(SRC_INSIGNIFICANT)
        assert _key().kernel_digest == _key(SRC_INSIGNIFICANT).kernel_digest

    def test_numeric_spelling_is_insignificant(self):
        assert _key(SRC.replace("1.0", "1.0d0")).kernel_digest == \
            _key(SRC.replace("1.0", "1.0e0")).kernel_digest

    def test_significant_edit_misses(self):
        assert _key().kernel_digest != _key(SRC_SIGNIFICANT).kernel_digest

    def test_layout_edit_misses(self):
        assert _key().kernel_digest != _key(SRC_LAYOUT).kernel_digest
        # and the layout signature is visible on the key
        assert "cyclic" in _key(SRC_LAYOUT).layout
        assert "cyclic" not in _key().layout

    def test_params_miss(self):
        assert _key().kernel_digest != _key(params={"n": 9}).kernel_digest

    def test_nprocs_miss(self):
        assert _key().kernel_digest != _key(nprocs=2).kernel_digest

    def test_backend_miss(self):
        assert _key().kernel_digest != _key(backend="scalar").kernel_digest

    def test_strict_flag_miss(self):
        assert _key().kernel_digest != _key(strict=False).kernel_digest

    def test_fingerprint_miss(self):
        assert _key().kernel_digest != _key(fingerprint="fp1").kernel_digest

    def test_backend_shares_analysis_but_not_kernel(self):
        vec, sca = _key(), _key(backend="scalar")
        assert vec.analysis_digest == sca.analysis_digest
        assert vec.parse_digest == sca.parse_digest
        assert vec.kernel_digest != sca.kernel_digest

    def test_params_change_analysis_not_parse(self):
        a, b = _key(), _key(params={"n": 9})
        assert a.parse_digest == b.parse_digest
        assert a.analysis_digest != b.analysis_digest


# ---------------------------------------------------------------------------
# behavioral hit/miss + warm identity
# ---------------------------------------------------------------------------

def _delta(cache, before: dict) -> dict:
    """Counter changes since *before* (a ``cache.stats.as_dict()``)."""
    now = cache.stats.as_dict()
    return {k: now[k] - before[k] for k in now if k != "hit_rate"}


class TestWarmIdentity:
    def test_insignificant_edit_hits(self, cache):
        compile_kernel(SRC, 4, {"n": 8})
        before = cache.stats.as_dict()
        compile_kernel(SRC_INSIGNIFICANT, 4, {"n": 8})
        d = _delta(cache, before)
        assert d["hits"] == 1 and d["misses"] == 0

    def test_significant_edit_misses(self, cache):
        compile_kernel(SRC, 4, {"n": 8})
        before = cache.stats.as_dict()
        compile_kernel(SRC_SIGNIFICANT, 4, {"n": 8})
        assert _delta(cache, before)["misses"] >= 1

    def test_warm_kernel_bitwise_identical(self, cache):
        cold = compile_kernel(SRC, 4, {"n": 8})
        warm = compile_kernel(SRC, 4, {"n": 8})
        assert warm is not cold  # fresh object, not an alias
        for target in ("mpi", "shmem"):
            assert cold.python_source(target) == warm.python_source(target)

        def init(_rid, A):
            for name in sorted(A):
                rng = np.random.default_rng(7)
                A[name].data[:] = rng.random(A[name].data.shape)

        ra = cold.run({"n": 8}, init=init)
        rb = warm.run({"n": 8}, init=init)
        for A, B in zip(ra, rb):
            for name in A:
                assert A[name].data.tobytes() == B[name].data.tobytes()

    def test_warm_hit_does_not_alias_cache(self, cache):
        a = compile_kernel(SRC, 4, {"n": 8})
        b = compile_kernel(SRC, 4, {"n": 8})
        c = compile_kernel(SRC, 4, {"n": 8})
        assert b is not c and b.sub is not c.sub
        # mutating one warm kernel cannot poison later hits
        b._sources["mpi"] = "tampered"
        d = compile_kernel(SRC, 4, {"n": 8})
        assert d.python_source("mpi") == a.python_source("mpi")

    def test_lenient_diagnostics_replay(self, cache):
        src = SRC.replace("b(i-1)", "b(i*i)")  # non-affine: degrades
        s_cold = DiagnosticSink(strict=False)
        cold = compile_kernel(src, 4, {"n": 4}, strict=False, sink=s_cold)
        s_warm = DiagnosticSink(strict=False)
        warm = compile_kernel(src, 4, {"n": 4}, strict=False, sink=s_warm)
        as_tuples = lambda sink: [
            (d.severity, d.code, d.message, d.pass_name)
            for d in sink.diagnostics
        ]
        assert as_tuples(s_cold) == as_tuples(s_warm)
        assert any(d.code == "I-FALLBACK" for d in s_warm.diagnostics)
        assert cold.python_source("mpi") == warm.python_source("mpi")
        assert cold.degraded_nests == warm.degraded_nests

    def test_explicit_budget_bypasses_reads(self, cache):
        from repro.isets import IsetBudget

        compile_kernel(SRC, 4, {"n": 8})
        before = cache.stats.as_dict()
        budget = IsetBudget()
        compile_kernel(SRC, 4, {"n": 8}, budget=budget)
        d = _delta(cache, before)
        assert d["hits"] == 0  # the caller is observing analysis cost
        assert d["puts"] == 0  # budget-shaped artifacts must not be cached
        assert budget.ops > 0 or budget.peak_disjuncts > 0

    def test_budget_compile_does_not_poison_default(self, cache):
        from repro.isets import IsetBudget

        # a tiny budget trips and degrades; a later default compile must
        # not warm-hit that degraded artifact
        tiny = IsetBudget(max_ops=1)
        sink = DiagnosticSink(strict=False)
        compile_kernel(SRC, 4, {"n": 8}, strict=False, sink=sink, budget=tiny)
        k = compile_kernel(SRC, 4, {"n": 8}, strict=False)
        assert k.budget.tripped is None

    def test_compile_errors_are_not_cached(self, cache):
        bad = SRC.replace("a(i) = b(i-1) + 1.0", "goto 10")
        for _ in range(2):
            with pytest.raises(Exception, match="GOTO"):
                compile_kernel(bad, 4, {"n": 8})
        assert cache.stats.hits == 0
        assert cache.stats.puts == 0

    def test_scalar_backend_reuses_analysis_tier(self, cache):
        compile_kernel(SRC, 4, {"n": 8}, backend="vector")
        before = cache.stats.as_dict()
        compile_kernel(SRC, 4, {"n": 8}, backend="scalar")
        d = _delta(cache, before)
        # kernel tier misses (different backend) but the backend-agnostic
        # analysis artifact hits
        assert d["hits"] >= 1 and d["misses"] >= 1


# ---------------------------------------------------------------------------
# disk tier: validation, corruption, eviction
# ---------------------------------------------------------------------------

class TestDiskTier:
    def test_disk_hit_after_lru_clear(self, cache):
        compile_kernel(SRC, 4, {"n": 8})
        cache.clear_lru()
        before = cache.stats.as_dict()
        compile_kernel(SRC, 4, {"n": 8})
        d = _delta(cache, before)
        assert d["disk_hits"] >= 1 and d["lru_hits"] == 0

    def test_corrupt_entry_detected_evicted_recompiled(self, cache):
        cold = compile_kernel(SRC, 4, {"n": 8})
        # corrupt every on-disk entry (bit rot in the payload)
        root = cache.config.directory
        n_corrupted = 0
        for dirpath, _dirs, files in os.walk(root):
            for name in files:
                if not name.endswith(".plan"):
                    continue
                path = os.path.join(dirpath, name)
                blob = bytearray(open(path, "rb").read())
                blob[-1] ^= 0xFF
                open(path, "wb").write(bytes(blob))
                n_corrupted += 1
        assert n_corrupted >= 1
        cache.clear_lru()
        before = cache.stats.as_dict()
        warm = compile_kernel(SRC, 4, {"n": 8})  # transparent recompile
        d = _delta(cache, before)
        assert d["corrupt_evictions"] >= 1
        assert d["disk_hits"] == 0
        # the recompile re-parses, so statement ids embedded in the node
        # program may renumber — compare behavior, not text
        ra = cold.run({"n": 8})
        rb = warm.run({"n": 8})
        for A, B in zip(ra, rb):
            for name in A:
                assert A[name].data.tobytes() == B[name].data.tobytes()
        # the recompile rewrote valid entries: next lookup hits disk again
        cache.clear_lru()
        before = cache.stats.as_dict()
        compile_kernel(SRC, 4, {"n": 8})
        assert _delta(cache, before)["disk_hits"] >= 1

    def test_truncated_entry_is_corrupt(self, cache):
        compile_kernel(SRC, 4, {"n": 8})
        root = cache.config.directory
        for dirpath, _dirs, files in os.walk(root):
            for name in files:
                if name.endswith(".plan"):
                    path = os.path.join(dirpath, name)
                    blob = open(path, "rb").read()
                    open(path, "wb").write(blob[: len(blob) // 2])
        cache.clear_lru()
        before = cache.stats.as_dict()
        compile_kernel(SRC, 4, {"n": 8})
        assert _delta(cache, before)["corrupt_evictions"] >= 1

    def test_disk_byte_budget_evicts_oldest(self, tmp_path):
        cache = PlanCache(PlanCacheConfig(
            directory=str(tmp_path / "tiny"), max_disk_bytes=4096,
        ))
        for i in range(8):
            cache.put(f"{i:02d}" + "e" * 62, os.urandom(2048))
        assert cache.bytes_on_disk() <= 4096 + 2048  # newest entries kept
        assert cache.stats.disk_evictions >= 1

    def test_memory_only_cache(self):
        cache = PlanCache(PlanCacheConfig(directory=None))
        with use_cache(cache):
            compile_kernel(SRC, 4, {"n": 8})
            before = cache.stats.as_dict()
            compile_kernel(SRC, 4, {"n": 8})
            assert _delta(cache, before)["lru_hits"] == 1
        assert cache.bytes_on_disk() == 0


# ---------------------------------------------------------------------------
# environment kill switch / scoping
# ---------------------------------------------------------------------------

class TestScoping:
    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE", "off")
        assert active_cache() is None

    def test_env_directory_override(self, monkeypatch, tmp_path):
        from repro.compile import default_cache_dir

        monkeypatch.setenv("REPRO_PLAN_CACHE", str(tmp_path / "here"))
        assert default_cache_dir() == str(tmp_path / "here")

    def test_use_cache_restores_previous(self, tmp_path):
        from repro.compile import cache_disabled

        a = PlanCache(PlanCacheConfig(directory=None))
        with use_cache(a):
            assert active_cache() is a
            with cache_disabled():
                assert active_cache() is None
            assert active_cache() is a


# ---------------------------------------------------------------------------
# differential: paper kernel + fuzz sample, cold vs warm
# ---------------------------------------------------------------------------

class TestDifferential:
    def test_paper_kernel_cold_vs_warm(self, cache):
        from repro.nas import kernels

        cold = compile_kernel(kernels.LHSY_SP, 4, {"n": 9})
        warm = compile_kernel(kernels.LHSY_SP, 4, {"n": 9})
        for target in ("mpi", "shmem"):
            assert cold.python_source(target) == warm.python_source(target)
        assert cold.vector_report.keys() == warm.vector_report.keys()

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_fuzz_sample_cold_vs_warm(self, cache, seed):
        from repro.eval.fuzz import gen_spec

        spec = gen_spec(seed)
        source = spec.render()
        s_cold = DiagnosticSink(strict=False)
        cold = compile_kernel(
            source, spec.nprocs, strict=False, sink=s_cold
        )
        s_warm = DiagnosticSink(strict=False)
        warm = compile_kernel(
            source, spec.nprocs, strict=False, sink=s_warm
        )
        assert cold.python_source("mpi") == warm.python_source("mpi")
        assert cold.python_source("shmem") == warm.python_source("shmem")
        assert [
            (d.severity, d.code, d.message) for d in s_cold.diagnostics
        ] == [
            (d.severity, d.code, d.message) for d in s_warm.diagnostics
        ]


# ---------------------------------------------------------------------------
# cross-process races: vanished files, a removed directory, hammering
# ---------------------------------------------------------------------------

class TestCrossProcessRaces:
    def test_budget_enforcement_tolerates_vanished_entries(
        self, tmp_path, monkeypatch,
    ):
        """A concurrent evictor may unlink an entry between
        our listing and our unlink — the bytes are gone either way, not
        an error."""
        cache = PlanCache(PlanCacheConfig(
            directory=str(tmp_path / "d"), max_disk_bytes=1024,
        ))
        digest = "ab" * 32
        cache.put(digest, b"x" * 500)
        ghost = os.path.join(
            str(tmp_path / "d"), "de", "ad" * 31 + ".plan"
        )
        stale = cache._disk_entries() + [(ghost, 4096, 0.0)]
        monkeypatch.setattr(cache, "_disk_entries", lambda: stale)
        cache._enforce_disk_budget()  # must not raise on the ghost
        monkeypatch.undo()
        assert cache.get(digest) is not None  # survivor intact

    def test_removed_directory_is_a_plain_miss(self, tmp_path):
        """Deleting the cache directory is how the disk tier is dropped:
        the next get is a plain miss (not an IO error, not corruption),
        the next put recreates the directory, and a fresh cache on the
        same path reads that entry back."""
        import shutil

        root = str(tmp_path / "d")
        cache = PlanCache(PlanCacheConfig(directory=root, max_lru_entries=0))
        digest = "cd" * 32
        cache.put(digest, b"payload")
        shutil.rmtree(root)
        assert cache.get(digest) is None
        assert cache.stats.misses == 1
        assert cache.stats.io_errors == 0
        assert cache.stats.corrupt_evictions == 0
        cache.put(digest, b"payload")
        assert os.path.isdir(root)
        fresh = PlanCache(PlanCacheConfig(directory=root))
        assert fresh.get(digest) == b"payload"
        assert fresh.stats.disk_hits == 1

    def test_get_tolerates_file_vanishing_midway(self, tmp_path):
        """An entry unlinked between listing and open is a miss, not an
        exception."""
        cache = PlanCache(PlanCacheConfig(
            directory=str(tmp_path / "d"), max_lru_entries=0,
        ))
        digest = "ef" * 32
        cache.put(digest, b"payload")

        def hook(op, d):
            if op == "disk_get":
                os.unlink(cache._path(d))

        cache.fault_hook = hook
        assert cache.get(digest) is None
        cache.fault_hook = None

    def test_multiprocess_hammer_never_reads_torn_bytes(self, tmp_path):
        """Concurrent writers, readers and evictors on one directory: every read returns the exact expected bytes or a miss,
        and no tmp files leak."""
        from repro.compile.chaos import run_cache_hammer

        res = run_cache_hammer(
            str(tmp_path / "h"), processes=3, iters=25, seed=7,
        )
        assert res["ok"]
        assert res["corrupt_reads"] == 0
        assert res["stray_tmp"] == 0
        assert res["puts"] > 0 and res["gets"] > 0 and res["hits"] > 0
