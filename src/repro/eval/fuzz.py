"""Differential fuzzing for the graceful-degradation pipeline.

Generates seeded random mini-Fortran+HPF programs, compiles each with
``compile_kernel(strict=False)`` under both node-code backends, executes the
kernels on the virtual machine (message-passing and shared-memory targets),
and compares every array bitwise against the serial reference interpreter.

Invariants enforced per seed:

1. **No uncaught exception escapes lenient compilation** of a well-formed
   program — constructs the analyses cannot handle must degrade with an
   ``I-FALLBACK`` diagnostic, not crash.
2. **Bitwise agreement**: the shared-memory run reproduces the serial
   arrays exactly; the message-passing run reproduces every distributed
   array exactly on its owners.  Both the scalar and vector backends must
   agree (they are compared to the same reference).
3. **Strict and lenient give one verdict**: ``strict=True`` compiles iff
   the lenient compile carries no ``I-FALLBACK`` (a ``W-BUDGET`` trip —
   strict is not metered — is the one exception); what it refuses, it
   refuses with a *typed* error (``CompileError`` / ``CodegenUnsupported``
   / ``ValueError``), never an internal crash; and a strict kernel that
   compiles is executed and compared bitwise like the lenient one.
4. **Malformed sources** (random mutations of well-formed programs) raise a
   single :class:`~repro.diag.CompileError` from the lenient pipeline, with
   every collected syntax diagnostic carrying a source position.

Failures are shrunk at the spec level (drop nests, then statements, then
arrays, then simplify subscripts) before being reported, so the
reproduction attached to a :class:`FuzzFailure` is close to minimal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

_ARRAY_NAMES = ("a", "b", "c", "d")

#: share of the 2-d programs (themselves a fifth of all seeds) that end in
#: a wavefront nest; at 0.5 the CI smoke's 20 seeds draw it once (seed 1)
WAVE_SHARE = 0.5

#: share of the 1-d programs that leave the grid extent to the compiler
#: (``processors p(*)``), so CP selection runs at the canonical count 2
#: and is specialized to a target of 2, 3 or 4 ranks
GRID_SHARE = 0.15


# ---------------------------------------------------------------------------
# program specs (the shrinkable representation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArraySpec:
    name: str
    dist: "str | None"  # "block" | "cyclic" | None (undistributed)
    rank: int = 1


@dataclass(frozen=True)
class StmtSpec:
    """``lhs(lhs_sub) = rhs`` inside a nest.  ``cond`` wraps it in an IF."""

    lhs: str
    lhs_sub: str
    rhs: str
    cond: "str | None" = None


@dataclass(frozen=True)
class NestSpec:
    stmts: "tuple[StmtSpec, ...]"
    lo: str = "1"
    hi: str = "n"
    #: maximum |offset| used by any subscript (shrinks the iteration range)
    pad: int = 0


@dataclass(frozen=True)
class ProgramSpec:
    seed: int
    n: int
    nprocs: int
    two_d: bool
    arrays: "tuple[ArraySpec, ...]"
    nests: "tuple[NestSpec, ...]"
    pre: "tuple[str, ...]" = ()  # scalar assignments before the first nest
    with_call: bool = False      # append a helper unit + CALL
    #: 2-d wavefront shape: the array axis (0 = ``i``, 1 = ``j``) that a
    #: recurrence runs along.  That axis is collapsed (``*``) on every
    #: array and the other one spread over a 1-d grid — a distributed
    #: carried dimension would pipeline its communication, which code
    #: generation rejects before the vectoriser sees the nest.
    wave: "int | None" = None
    #: 1-d wildcard grid: ``processors p(*)`` sized by ``nprocs`` alone
    wild: bool = False

    def render(self) -> str:
        n, lines = self.n, []
        lines.append("      program fz")
        lines.append(f"      parameter (n = {n})")
        shape = "(n, n)" if self.two_d else "(n)"
        decls = ", ".join(f"{a.name}{shape}" for a in self.arrays)
        lines.append(f"      real {decls}")
        if any(p.startswith("m =") for p in self.pre):
            lines.append("      integer m")
        if self.two_d and self.wave is None:
            lines.append("!hpf$ processors p(2, 2)")
        elif self.wild:
            lines.append("!hpf$ processors p(*)")
        else:
            lines.append(f"!hpf$ processors p({self.nprocs})")
        for a in self.arrays:
            if a.dist is None:
                continue
            if self.wave is not None:
                fmt = f"(*, {a.dist})" if self.wave == 0 else f"({a.dist}, *)"
            else:
                fmt = f"({a.dist}, {a.dist})" if self.two_d else f"({a.dist})"
            lines.append(f"!hpf$ distribute {a.name}{fmt} onto p")
        for p in self.pre:
            lines.append(f"      {p}")
        for nest in self.nests:
            if self.two_d:
                lines.append(f"      do j = {nest.lo}, {nest.hi}")
                lines.append(f"         do i = {nest.lo}, {nest.hi}")
                pad = "            "
            else:
                lines.append(f"      do i = {nest.lo}, {nest.hi}")
                pad = "         "
            for s in nest.stmts:
                asg = f"{s.lhs}({s.lhs_sub}) = {s.rhs}"
                if s.cond is not None:
                    lines.append(f"{pad}if ({s.cond}) then")
                    lines.append(f"{pad}   {asg}")
                    lines.append(f"{pad}endif")
                else:
                    lines.append(f"{pad}{asg}")
            if self.two_d:
                lines.append("         enddo")
            lines.append("      enddo")
        if self.with_call:
            first = self.arrays[0].name
            lines.append(f"      call bump({first}, n)")
        lines.append("      end")
        if self.with_call:
            lines.append("")
            lines.append("      subroutine bump(x, m)")
            lines.append("      real x(m)")
            lines.append("      do i = 1, m")
            lines.append("         x(i) = x(i) + 1.0")
            lines.append("      enddo")
            lines.append("      end")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _gen_subscript(rng: random.Random, var: str, allow_nonaffine: bool) -> "tuple[str, int]":
    """A subscript expression plus the boundary pad it requires."""
    r = rng.random()
    if allow_nonaffine and r < 0.12:
        k = rng.choice((2, 3))
        return f"mod({k}*{var}, n) + 1", 0
    if r < 0.55:
        return var, 0
    if r < 0.70:
        return f"{var} - 1", 1
    if r < 0.85:
        return f"{var} + 1", 1
    return str(rng.randint(1, 3)), 0


def _gen_rhs(
    rng: random.Random,
    readable: "list[ArraySpec]",
    rmw: "str | None",
    two_d: bool,
) -> "tuple[str, int]":
    """A random arithmetic expression; returns ``(text, pad)``."""
    terms: list[str] = []
    pad = 0
    if rmw is not None:
        sub = "i, j" if two_d else "i"
        terms.append(f"{rmw}({sub})")
    for _ in range(rng.randint(1, 3 - len(terms))):
        r = rng.random()
        if r < 0.25 or not readable:
            terms.append(rng.choice(("1.5", "0.25", "i * 0.5", "2.0")))
        else:
            arr = rng.choice(readable)
            si, p1 = _gen_subscript(rng, "i", allow_nonaffine=True)
            if two_d:
                sj, p2 = _gen_subscript(rng, "j", allow_nonaffine=False)
                terms.append(f"{arr.name}({si}, {sj})")
                pad = max(pad, p1, p2)
            else:
                terms.append(f"{arr.name}({si})")
                pad = max(pad, p1)
    op = rng.choice((" + ", " + ", " * "))
    return op.join(terms), pad


def gen_spec(seed: int) -> ProgramSpec:
    """One seeded random mini-Fortran+HPF program."""
    rng = random.Random(seed)
    two_d = rng.random() < 0.2
    n = rng.randint(6, 10)
    nprocs = 4 if two_d else rng.choice((2, 4))
    narr = rng.randint(2, min(4, len(_ARRAY_NAMES)))
    arrays: list[ArraySpec] = []
    for name in _ARRAY_NAMES[:narr]:
        r = rng.random()
        if two_d:
            dist = None if r < 0.2 else "block"
        else:
            dist = None if r < 0.2 else ("block" if r < 0.7 else "cyclic")
        arrays.append(ArraySpec(name, dist, rank=2 if two_d else 1))
    with_call = (not two_d) and rng.random() < 0.10

    pre: list[str] = []
    nests: list[NestSpec] = []
    written: set[str] = set()
    for _ in range(rng.randint(1, 3)):
        stmts: list[StmtSpec] = []
        pad = 0
        # arrays already written by earlier nests are good read sources
        readable = [a for a in arrays if a.name in written] or arrays[:1]
        targets = rng.sample(arrays, k=min(rng.randint(1, 2), len(arrays)))
        for tgt in targets:
            # read/write sets stay disjoint within a nest, except pure
            # same-element read-modify-write on the target itself
            rmw = tgt.name if rng.random() < 0.25 else None
            srcs = [a for a in readable if a.name != tgt.name]
            rhs, p1 = _gen_rhs(rng, srcs, rmw, two_d)
            lsub, p2 = _gen_subscript(rng, "i", allow_nonaffine=rng.random() < 0.3)
            if two_d:
                jsub, p3 = _gen_subscript(rng, "j", allow_nonaffine=False)
                lsub = f"{lsub}, {jsub}"
                p2 = max(p2, p3)
            cond = None
            if rng.random() < 0.15:
                if rng.random() < 0.5 or not srcs:
                    cond = f"i .gt. {rng.randint(1, 3)}"
                else:
                    csub = "i, j" if two_d else "i"
                    cond = f"{rng.choice(srcs).name}({csub}) .lt. 0.75"
            stmts.append(StmtSpec(tgt.name, lsub, rhs, cond))
            written.add(tgt.name)
            pad = max(pad, p1, p2)
        lo = str(1 + pad)
        hi = "n" if pad == 0 else f"n - {pad}"
        # occasionally make the trip count a runtime scalar (degrades)
        if not two_d and rng.random() < 0.12 and pad == 0:
            pre_val = rng.randint(3, n)
            if not any(p.startswith("m =") for p in pre):
                pre.append(f"m = {pre_val}")
            hi = "m"
        nests.append(NestSpec(tuple(stmts), lo, hi, pad))
    wave = None
    if two_d:
        # drawn from a stream of its own, so the programs that do not take
        # the shape render exactly as they did before it existed
        wrng = random.Random(f"{seed}:wave")
        if wrng.random() < WAVE_SHARE:
            wave = wrng.randrange(2)
            tgt = wrng.choice([a for a in arrays if a.dist] or arrays).name
            back = f"{tgt}(i - 1, j)" if wave == 0 else f"{tgt}(i, j - 1)"
            others = [a.name for a in arrays if a.name != tgt]
            term = f"{wrng.choice(others)}(i, j)" if wrng.random() < 0.5 else "1.5"
            nests.append(NestSpec(
                (StmtSpec(tgt, "i, j", f"{back} * 0.5 + {term}"),),
                "2", "n - 1", 1,
            ))
    wild = False
    if not two_d:
        # its own stream again: every other seed renders as before
        grng = random.Random(f"{seed}:grid")
        if grng.random() < GRID_SHARE:
            wild = True
            nprocs = grng.choice((2, 3, 4))
    return ProgramSpec(
        seed, n, nprocs, two_d, tuple(arrays), tuple(nests), tuple(pre),
        with_call, wave, wild,
    )


# ---------------------------------------------------------------------------
# differential execution
# ---------------------------------------------------------------------------

@dataclass
class FuzzFailure:
    seed: int
    kind: str          # 'compile' | 'mismatch' | 'strict' | 'malformed'
    detail: str
    source: str
    spec: "ProgramSpec | None" = None


@dataclass
class FuzzResult:
    seeds: int = 0
    ok: int = 0
    degraded: int = 0      # seeds where at least one I-FALLBACK fired
    strict_ok: int = 0     # seeds strict compilation accepted (and ran)
    malformed: int = 0
    failures: "list[FuzzFailure]" = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.seeds} seeds, {self.ok} ok, "
            f"{len(self.failures)} failures",
            f"  degraded (>=1 I-FALLBACK): {self.degraded}",
            f"  lenient clean (none):      {self.ok - self.degraded}",
            f"  strict compiled and ran:   {self.strict_ok}",
            f"  malformed sources checked: {self.malformed}",
        ]
        for f in self.failures[:10]:
            lines.append(f"  FAIL seed {f.seed} [{f.kind}]: {f.detail}")
            lines.append("    " + "\n    ".join(f.source.splitlines()))
        return "\n".join(lines)


def _serial_reference(source: str) -> "dict[str, np.ndarray]":
    from ..frontend import parse_source
    from ..ir.interp import Interpreter

    prog = parse_source(source)
    main = prog.main or next(iter(prog.units.values()))
    frame = Interpreter(prog).run(main.name)
    out = {}
    for name, val in frame.values.items():
        if hasattr(val, "data"):
            out[name] = np.asarray(val.data).copy()
    return out


def _shmem_mismatch(kernel, shared, ref, label: str) -> "str | None":
    for name, want in ref.items():
        if name in kernel.private_arrays:
            continue
        got = np.asarray(shared[name].data)
        if not np.array_equal(got, want):
            return (
                f"{label} mismatch on {name!r}: "
                f"got {got.tolist()} want {want.tolist()}"
            )
    return None


def _mpi_mismatch(kernel, ranks, ref, label: str) -> "str | None":
    # every distributed array must be exact on its owners (non-owned
    # elements are scratch by the SPMD contract)
    for name, want in ref.items():
        if not kernel.ctx.is_distributed(name):
            continue
        merged = np.zeros_like(want)
        for rid, arrays in enumerate(ranks):
            coords = kernel.grid.delinearize(rid)
            arr = arrays[name]
            for el in kernel.ctx.owned_elements(name, coords):
                merged[arr._index(el)] = arr.data[arr._index(el)]
        if not np.array_equal(merged, want):
            return (
                f"{label} owner mismatch on {name!r}: "
                f"got {merged.tolist()} want {want.tolist()}"
            )
    return None


def _check_backend(
    spec: ProgramSpec, source: str, ref, backend: str,
    process: bool = False, strict: bool = False,
):
    """Compile with one backend, leniently or strictly, and compare both
    targets against the serial reference.  Returns ``(kernel, detail)``:
    *detail* is a failure string or None.

    With ``process=True`` the same node programs are also executed on the
    supervised real-process backend (both targets) and compared — the
    executor joins the differential matrix alongside the two codegen
    backends."""
    from ..codegen.spmd import compile_kernel

    kernel = compile_kernel(source, spec.nprocs, strict=strict, backend=backend)
    label = f"strict {backend}" if strict else backend
    # shared-memory target: the final shared arrays must match exactly
    shared = kernel.run_shmem({})
    detail = _shmem_mismatch(kernel, shared, ref, f"{label}/shmem")
    if detail is None:
        ranks = kernel.run({})
        detail = _mpi_mismatch(kernel, ranks, ref, f"{label}/mpi")
    if detail is None and process:
        from ..runtime import procexec

        shared = procexec.run_kernel(kernel, {}, target="shmem", timeout=60.0)
        detail = _shmem_mismatch(kernel, shared, ref, f"{label}/shmem/process")
        if detail is None:
            ranks = procexec.run_kernel(kernel, {}, target="mpi", timeout=60.0)
            detail = _mpi_mismatch(kernel, ranks, ref, f"{label}/mpi/process")
    return kernel, detail


def check_spec(
    spec: ProgramSpec, process: bool = False, tally: "FuzzResult | None" = None
) -> "tuple[str, str] | None":
    """Differentially test one spec.  Returns ``(kind, detail)`` on failure;
    a spec that passes is counted into *tally* (``degraded`` /
    ``strict_ok``) when one is given."""
    from ..codegen.spmd import CodegenUnsupported
    from ..diag import W_BUDGET, CompileError

    source = spec.render()
    try:
        ref = _serial_reference(source)
    except Exception as exc:  # generator bug, not a compiler bug
        return "compile", f"serial reference failed: {type(exc).__name__}: {exc}"
    for backend in ("scalar", "vector"):
        try:
            lenient, detail = _check_backend(
                spec, source, ref, backend, process=process
            )
        except Exception as exc:
            return (
                "compile",
                f"lenient {backend} raised {type(exc).__name__}: {exc}",
            )
        if detail is not None:
            return "mismatch", detail
        fallbacks = lenient.sink.fallbacks()
        refusal = None
        try:
            _, detail = _check_backend(
                spec, source, ref, backend, process=process, strict=True
            )
        except (CompileError, CodegenUnsupported, ValueError) as exc:
            refusal = f"{type(exc).__name__}: {exc}"
        except Exception as exc:
            return (
                "strict",
                f"strict {backend} raised untyped {type(exc).__name__}: {exc}",
            )
        if detail is not None:
            return "mismatch", detail
        if refusal is None and fallbacks and not lenient.sink.by_code(W_BUDGET):
            return (
                "strict",
                f"strict {backend} compiled what lenient degrades "
                f"({fallbacks[0].message})",
            )
        if refusal is not None and not fallbacks:
            return (
                "strict",
                f"strict {backend} refused ({refusal}) what lenient "
                "compiles with no I-FALLBACK",
            )
    if tally is not None:
        # one analysis serves both backends: the last pair speaks for the seed
        tally.degraded += bool(fallbacks)
        tally.strict_ok += refusal is None
    return None


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------

def _spec_variants(spec: ProgramSpec):
    """Strictly-smaller candidate specs, largest reductions first."""
    if spec.with_call:
        yield replace(spec, with_call=False)
    for i in range(len(spec.nests)):
        if len(spec.nests) > 1:
            yield replace(spec, nests=spec.nests[:i] + spec.nests[i + 1:])
    for i, nest in enumerate(spec.nests):
        for j in range(len(nest.stmts)):
            if len(nest.stmts) > 1:
                smaller = replace(nest, stmts=nest.stmts[:j] + nest.stmts[j + 1:])
                yield replace(
                    spec, nests=spec.nests[:i] + (smaller,) + spec.nests[i + 1:]
                )
        for j, s in enumerate(nest.stmts):
            if s.cond is not None:
                smaller = replace(
                    nest,
                    stmts=nest.stmts[:j] + (replace(s, cond=None),) + nest.stmts[j + 1:],
                )
                yield replace(
                    spec, nests=spec.nests[:i] + (smaller,) + spec.nests[i + 1:]
                )
    if spec.pre:
        used = any(n.hi == "m" for n in spec.nests)
        if not used:
            yield replace(spec, pre=())


def shrink(spec: ProgramSpec, kind: str, process: bool = False) -> ProgramSpec:
    """Greedy spec-level shrink: keep any smaller spec that still fails the
    same way (same failure *kind*; details may drift as the program shrinks)."""
    current = spec
    for _ in range(40):  # bounded — each accepted step strictly shrinks
        for cand in _spec_variants(current):
            res = check_spec(cand, process=process)
            if res is not None and res[0] == kind:
                current = cand
                break
        else:
            return current
    return current


# ---------------------------------------------------------------------------
# malformed corpus
# ---------------------------------------------------------------------------

def _mutate_source(rng: random.Random, source: str) -> str:
    lines = source.splitlines()
    k = rng.randint(1, 2)
    for _ in range(k):
        op = rng.randrange(5)
        i = rng.randrange(len(lines))
        if op == 0 and lines[i].strip():      # truncate a line mid-token
            cut = rng.randrange(max(1, len(lines[i]) - 1))
            lines[i] = lines[i][:cut]
        elif op == 1:                          # delete one character
            if lines[i]:
                j = rng.randrange(len(lines[i]))
                lines[i] = lines[i][:j] + lines[i][j + 1:]
        elif op == 2:                          # drop a whole line (enddo/end…)
            lines.pop(i)
            if not lines:
                lines = [""]
        elif op == 3:                          # inject a garbage token
            lines[i] = lines[i] + " )("
        else:                                  # unbalance parentheses
            lines[i] = lines[i].replace(")", "", 1)
    return "\n".join(lines) + "\n"


def check_malformed(seed: int) -> "FuzzFailure | None":
    """Invariant 4: lenient compilation of a mutated source either still
    succeeds or raises one typed CompileError whose syntax diagnostics all
    carry a source position."""
    from ..codegen.spmd import CodegenUnsupported, compile_kernel
    from ..diag import E_LEX, E_PARSE, CompileError

    rng = random.Random(seed ^ 0x5FDE_ECA9)
    spec = gen_spec(seed)
    source = _mutate_source(rng, spec.render())
    try:
        compile_kernel(source, spec.nprocs, strict=False)
        return None  # mutation kept the program well-formed
    except CompileError as exc:
        for d in exc.diagnostics:
            if d.code in (E_LEX, E_PARSE) and d.span is None:
                return FuzzFailure(
                    seed, "malformed",
                    f"syntax diagnostic without source position: {d.format()}",
                    source,
                )
        return None
    except (CodegenUnsupported, ValueError):
        return None  # typed rejection is acceptable
    except Exception as exc:
        return FuzzFailure(
            seed, "malformed",
            f"lenient compile crashed with {type(exc).__name__}: {exc}",
            source,
        )


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_fuzz(
    seeds: int,
    start_seed: int = 0,
    malformed_every: int = 5,
    progress=None,
    do_shrink: bool = True,
    process: bool = False,
) -> FuzzResult:
    """Fuzz ``seeds`` well-formed programs (and one mutated source per
    ``malformed_every`` seeds) through the differential harness.

    ``process=True`` adds the supervised real-process executor to the
    backend matrix: every well-formed program also runs on forked OS
    workers (both targets) and must match the serial reference bitwise.

    Runs with the plan cache disabled: fuzz sources are throwaway
    one-offs, and churning the user's on-disk store with thousands of
    never-again-seen plans would evict entries that matter."""
    from ..compile import cache_disabled

    result = FuzzResult()
    with cache_disabled():
        return _run_fuzz_inner(
            seeds, start_seed, malformed_every, progress, do_shrink,
            process, result,
        )


def _run_fuzz_inner(
    seeds, start_seed, malformed_every, progress, do_shrink, process, result
) -> FuzzResult:
    for seed in range(start_seed, start_seed + seeds):
        result.seeds += 1
        spec = gen_spec(seed)
        res = check_spec(spec, process=process, tally=result)
        if res is not None:
            kind, detail = res
            small = shrink(spec, kind, process=process) if do_shrink else spec
            result.failures.append(
                FuzzFailure(seed, kind, detail, small.render(), small)
            )
        else:
            result.ok += 1
        if malformed_every and seed % malformed_every == 0:
            result.malformed += 1
            bad = check_malformed(seed)
            if bad is not None:
                result.failures.append(bad)
        if progress is not None and (seed - start_seed + 1) % 50 == 0:
            progress(
                f"{seed - start_seed + 1}/{seeds} seeds, "
                f"{len(result.failures)} failures"
            )
    return result


def register(sub) -> None:
    """Add the ``fuzz`` subcommand."""
    p = sub.add_parser("fuzz", help="differential fuzzer")
    p.add_argument("--seeds", type=int, default=300,
                   help="number of random programs to generate")
    p.add_argument("--start-seed", type=int, default=0,
                   help="first seed (corpus is deterministic per seed)")
    p.add_argument("--no-shrink", action="store_true",
                   help="report failures unshrunk (faster)")
    p.add_argument("--process", action="store_true",
                   help="add the real-process executor to the differential "
                        "backend matrix")
    p.set_defaults(run=run)


def run(args) -> int:
    """Fuzz ``--seeds`` programs; exit 1 on any mismatch or escape."""
    result = run_fuzz(
        args.seeds,
        start_seed=args.start_seed,
        progress=lambda msg: print(f"  [fuzz] {msg}", flush=True),
        do_shrink=not args.no_shrink,
        process=args.process,
    )
    print(result.summary())
    return 0 if result.passed else 1
