"""Differential fuzzer: fixed-seed corpus smoke plus unit tests for the
generator, checker, and shrinker."""

from repro.eval.fuzz import (
    FuzzResult,
    check_malformed,
    check_spec,
    gen_spec,
    run_fuzz,
    shrink,
)


class TestGenerator:
    def test_deterministic_per_seed(self):
        a, b = gen_spec(13), gen_spec(13)
        assert a == b
        assert a.render() == b.render()

    def test_seeds_differ(self):
        sources = {gen_spec(s).render() for s in range(12)}
        assert len(sources) > 8  # corpus is actually diverse

    def test_rendered_source_parses(self):
        from repro.frontend import parse_source

        for s in range(8):
            prog = parse_source(gen_spec(s).render())
            assert prog.units

    def test_smoke_seeds_draw_the_wavefront_shape(self):
        """CI's `fuzz --seeds 20` must reach the loop-sinking planner: one
        of its seeds ends in a recurrence along a collapsed dimension, and
        a 2-d seed that does not draw the shape keeps its 2x2 grid.  The
        same seed draws lhsy's NEW-array shape after the recurrence, so
        the smoke reaches the expansion of NEW arrays too."""
        assert [s for s in range(20) if gen_spec(s).wave is not None] == [1]
        spec = gen_spec(1)
        source = spec.render()
        wave = spec.nests[-1].stmts[0]
        assert spec.wave == 0 and wave.rhs.startswith(f"{wave.lhs}(i - 1, j)")
        assert "!hpf$ processors p(4)" in source
        assert f"distribute {wave.lhs}(*, block)" in source
        assert gen_spec(14).two_d and "p(2, 2)" in gen_spec(14).render()

        from repro.codegen import compile_kernel

        ck = compile_kernel(source, spec.nprocs)
        ck.python_source()
        *_, wave_report, private_report = ck.vector_report.values()
        assert wave_report.sequential == ("i",)
        assert spec.private is not None and private_report.expanded == ("t",)

    def test_smoke_seeds_draw_the_accumulator_and_a_swapped_nest(self):
        """The corpus smoke reaches both shapes with streams of their own:
        a scalar accumulator read by a later nest, which the soundness
        screen refuses to partition, and a 2-d nest that runs ``do i``
        outside ``do j`` beside nests in the usual order."""
        from repro.codegen import compile_kernel

        assert [s for s in range(15) if gen_spec(s).accum] == [0, 3, 5, 8]
        spec = gen_spec(3)
        ck = compile_kernel(spec.render(), spec.nprocs, strict=False)
        assert any("scalar 'acc'" in d.message for d in ck.fallback_diagnostics)
        swapped = [s for s in range(15) if any(n.swap for n in gen_spec(s).nests)]
        assert swapped == [1]
        source = gen_spec(1).render()
        assert "      do i = 2, n - 1\n         do j = 2, n - 1" in source
        assert "      do j = 1, n\n         do i = 1, n" in source

    def test_wildcard_grid_shape_specializes_away_from_canonical(self):
        """Every other program pins `processors p(N)` with N ranks, so
        selection and specialization run at the same count.  The wildcard
        shape leaves the extent open: selection runs at the canonical 2
        ranks and is specialized to 3 or 4 — in CI's 60-seed corpus too."""
        import hashlib

        from repro.distrib.layout import canonical_nprocs
        from repro.frontend import parse_source

        assert any(
            sp.wild and sp.nprocs != 2 for sp in map(gen_spec, range(60))
        )
        spec = gen_spec(11)
        source = spec.render()
        assert spec.wild and "!hpf$ processors p(*)" in source
        sub = next(iter(parse_source(source).units.values()))
        assert canonical_nprocs(sub) == 2 and spec.nprocs == 3
        assert check_spec(spec) is None
        # the shape has a random stream of its own: a seed that does not
        # draw it renders as it did before the shape existed
        plain = gen_spec(7)
        assert not plain.wild and not plain.two_d
        assert hashlib.sha256(plain.render().encode()).hexdigest() == (
            "e1cfe31d4c56c7eba4271cf810ce8e887b978ae46d33eb59002824461c5f032c"
        )


class TestCorpus:
    def test_fixed_seed_corpus_passes(self):
        """The CI smoke invariant: no uncaught exception from
        compile_kernel(strict=False), all backends bitwise-identical."""
        result = run_fuzz(15, do_shrink=False)
        assert isinstance(result, FuzzResult)
        assert result.passed, result.summary()
        assert result.ok == 15
        # the corpus must actually exercise the degradation machinery
        assert result.degraded > 0
        assert result.strict_ok > 0

    def test_malformed_sources_fail_typed(self):
        for seed in range(6):
            failure = check_malformed(seed)
            assert failure is None, failure


class TestShrinker:
    def test_shrink_keeps_failure_shape(self):
        # shrinking a passing spec is a no-op fixed point: every variant
        # also passes, so the original comes back
        spec = gen_spec(3)
        assert check_spec(spec) is None
        assert shrink(spec, "mismatch") == spec

    def test_shrink_reduces_failing_spec(self):
        # drop one nest at a time from a multi-nest spec and verify the
        # shrinker explores strictly smaller variants
        spec = gen_spec(7)
        smaller = shrink(spec, "__no_such_kind__")
        total = sum(len(n.stmts) for n in smaller.nests)
        assert total <= sum(len(n.stmts) for n in spec.nests)


_GROUPING_SCRIPT = """
import hashlib
from repro.codegen import compile_kernel
from repro.compile import use_cache
from repro.eval.fuzz import gen_spec

h = hashlib.sha256()
with use_cache(None):
    for seed in (20, 25, 43, 128):
        spec = gen_spec(seed)
        for strict in (True, False):
            try:
                ck = compile_kernel(spec.render(), spec.nprocs, strict=strict)
                out = [ck.python_source("mpi"), ck.python_source("shmem")]
                out += [d.format() for d in ck.sink.diagnostics]
            except Exception as exc:
                out = [type(exc).__name__, str(exc)]
            h.update(repr((seed, strict, out)).encode())
print(h.hexdigest())
"""


def test_cp_grouping_does_not_depend_on_the_hash_seed():
    """§5 grouping picks each group's CP from a *set* of surviving choice
    keys — tuples of names and ``None``, hashed per interpreter (and per
    address) — so the winner must come from an ordered walk: on these
    seeds a set-order pick changed CP, I-FALLBACK reason or strict verdict
    from one process to the next."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    env["PYTHONPATH"] = src
    digests = [
        subprocess.run(
            [sys.executable, "-c", _GROUPING_SCRIPT], env=env, check=True,
            capture_output=True, text=True, timeout=300,
        ).stdout.strip()
        for _ in range(2)
    ]
    assert digests[0] and digests[0] == digests[1]
