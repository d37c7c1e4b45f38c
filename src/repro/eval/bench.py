"""Performance benchmark harness: ``python -m repro.eval bench``.

Measures, for each compiled paper kernel and the NAS class-S targets:

- compile time (analysis + code emission) per backend,
- end-to-end wall-clock of the generated node programs under the
  ``scalar`` and ``vector`` backends (same seeded inputs),
- bitwise identity of every array on every rank across the two backends
  (the vectorizer's correctness contract),
- how many loops each kernel vectorized (from ``CompiledKernel.vector_report``).

Also runs the functional dHPF class-S SP/BT solvers (5 timesteps, 12^3,
NPB-style verification against the pinned reference residuals), a
class-W (36^3) vector-only smoke of the heaviest kernel — a size the
scalar backend cannot touch in reasonable time — and reports the iset
operation cache hit rates accumulated over all the compiles.

Results are printed as a table and optionally written as JSON
(``--bench-out BENCH_PR4.json``).  ``--min-speedup X`` turns the run
into a CI guard: exit nonzero if any measured kernel's vector speedup
falls below X.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: class S is the 12^3 NAS problem size; class W is 36^3
CLASS_S = 12
CLASS_W = 36

#: bumped whenever the BENCH_*.json layout changes shape
SCHEMA_VERSION = 2


@dataclass
class KernelResult:
    """One kernel measured under both backends."""

    name: str
    nprocs: int
    compile_scalar_s: float
    compile_vector_s: float
    scalar_s: float
    vector_s: float
    identical: bool
    vector_loops: int
    total_loops: int
    #: plan-cache view of this row's compiles: {"mode": off|cold|warm,
    #: plus hit/miss/put deltas when a cache was in play}
    cache: dict | None = None

    @property
    def speedup(self) -> float:
        return self.scalar_s / self.vector_s if self.vector_s > 0 else float("inf")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "nprocs": self.nprocs,
            "compile_scalar_s": round(self.compile_scalar_s, 4),
            "compile_vector_s": round(self.compile_vector_s, 4),
            "scalar_s": round(self.scalar_s, 4),
            "vector_s": round(self.vector_s, 4),
            "speedup": round(self.speedup, 2),
            "identical": self.identical,
            "vector_loops": self.vector_loops,
            "total_loops": self.total_loops,
            "cache": self.cache,
        }


@dataclass
class KernelSpec:
    name: str
    nprocs: int
    params: dict
    scalars: dict
    source: Any = None  # Fortran source text, or None with `build`
    build: Callable[[], Any] | None = None  # () -> parsed Subroutine
    class_s: bool = False  # part of the NAS class-S guard set
    #: name -> (last-axis index, offset) added to the seeded array (e.g.
    #: lift the energy component of `u` so sqrt(energy - kinetic) is real)
    seed_bias: dict = field(default_factory=dict)

    def compile(self, backend: str):
        from ..codegen import compile_kernel

        src = self.build() if self.build is not None else self.source
        return compile_kernel(
            src, nprocs=self.nprocs, params=self.params, backend=backend
        )


def _fig61_subroutine():
    from ..frontend import parse_source
    from ..nas import kernels
    from ..transform import inline_calls

    prog = parse_source(kernels.BT_SOLVE_CELL)
    for leaf in ("matvec_sub", "matmul_sub", "binvcrhs"):
        inline_calls(prog, "x_solve_cell", leaf)
    return prog.get("x_solve_cell")


def kernel_specs() -> list[KernelSpec]:
    """The benchmarked kernel set: each paper kernel at its figure's size,
    plus the NAS class-S guard rows (``class_s=True``)."""
    from ..nas import kernels

    lhsy_scalars = {"c2": 0.5, "dy3": 0.1, "c1c5": 0.2, "dtty1": 0.3, "dtty2": 0.4}
    rhs_scalars = {"c1": 0.3, "c2": 0.2}
    sp_rhs_scalars = {"c1c2": 0.7, "c2": 0.2, "dt": 0.015}
    return [
        KernelSpec("fig4.1 lhsy n=17", 4, {"n": 17},
                   dict(lhsy_scalars, n=17), source=kernels.LHSY_SP),
        KernelSpec("fig4.2 compute_rhs n=13", 8, {"n": 13},
                   dict(rhs_scalars, n=13), source=kernels.COMPUTE_RHS_BT),
        KernelSpec("exact_rhs n=17", 4, {"n": 17}, {"n": 17},
                   source=kernels.EXACT_RHS_SP),
        KernelSpec("fig6.1 x_solve_cell n=13", 4, {"n": 13}, {"n": 13},
                   build=_fig61_subroutine),
        KernelSpec("sp exact_rhs class S", 4, {"n": CLASS_S}, {"n": CLASS_S},
                   source=kernels.EXACT_RHS_SP),
        KernelSpec("sp compute_rhs class S", 4, {"n": CLASS_S},
                   dict(sp_rhs_scalars, n=CLASS_S),
                   source=kernels.COMPUTE_RHS_SP, class_s=True,
                   seed_bias={"u": (4, 20.0)}),
        KernelSpec("bt compute_rhs class S", 8, {"n": CLASS_S},
                   dict(rhs_scalars, n=CLASS_S),
                   source=kernels.COMPUTE_RHS_BT, class_s=True),
    ]


def _seed_init(ck, seed_bias: dict | None = None) -> Callable:
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


def _run_backend(spec: KernelSpec, backend: str, repeat: int, warm: bool = False):
    """Compile + run one backend; returns (compile_s, best_run_s, results, ck).

    With ``warm`` an untimed compile runs first so the timed one measures
    the plan cache's warm path."""
    if warm:
        spec.compile(backend)
    t0 = time.perf_counter()
    ck = spec.compile(backend)
    compile_s = time.perf_counter() - t0
    init = _seed_init(ck, spec.seed_bias)
    best = float("inf")
    results = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        results = ck.run(spec.scalars, init=init)
        best = min(best, time.perf_counter() - t0)
    return compile_s, best, results, ck


def _bitwise_identical(res_a, res_b) -> bool:
    for A, B in zip(res_a, res_b):
        for name in sorted(A):
            if A[name].data.tobytes() != B[name].data.tobytes():
                return False
    return True


def bench_kernel(
    spec: KernelSpec,
    repeat: int = 1,
    cache_mode: str = "off",
    plan_cache=None,
) -> KernelResult:
    """Measure one kernel under both backends (best of *repeat* runs) and
    check the bitwise-identical-arrays contract.

    ``cache_mode='warm'`` times the plan cache's warm path (an untimed
    populate compile precedes each timed one); ``'cold'`` times misses
    against an empty hermetic cache; ``'off'`` (default) bypasses the
    cache entirely.  ``plan_cache`` supplies the row's hit/miss deltas.
    """
    warm = cache_mode == "warm"
    before = plan_cache.stats.snapshot() if plan_cache is not None else None
    cs, ts, res_s, _ = _run_backend(spec, "scalar", repeat, warm=warm)
    cv, tv, res_v, ck = _run_backend(spec, "vector", repeat, warm=warm)
    reports = list(ck.vector_report.values())
    nvec = sum(1 for r in reports if r.status == "vector")
    cache_info: dict | None = {"mode": cache_mode}
    if plan_cache is not None:
        cache_info.update(plan_cache.stats.delta(before))
    return KernelResult(
        name=spec.name,
        nprocs=spec.nprocs,
        compile_scalar_s=cs,
        compile_vector_s=cv,
        scalar_s=ts,
        vector_s=tv,
        identical=_bitwise_identical(res_s, res_v),
        vector_loops=nvec,
        total_loops=len(reports),
        cache=cache_info,
    )


def bench_dhpf_class_s() -> list[dict]:
    """Functional dHPF SP/BT class-S runs with NPB-style verification."""
    from ..nas.bt import BTSolver
    from ..nas.sp import SPSolver
    from ..nas.verify import VERIFY_GRID, VERIFY_STEPS, verify
    from ..parallel.api import run_parallel

    out = []
    for bench, solver_cls in (("sp", SPSolver), ("bt", BTSolver)):
        t0 = time.perf_counter()
        result = run_parallel(
            bench, "dhpf", 4, VERIFY_GRID, VERIFY_STEPS,
            functional=True, record_trace=False,
        )
        wall = time.perf_counter() - t0
        solver = solver_cls(VERIFY_GRID)
        solver.u = result.u
        verified = verify(bench, solver.residual_norms(), solver.checksum())
        out.append({
            "bench": bench,
            "strategy": "dhpf",
            "nprocs": 4,
            "grid": list(VERIFY_GRID),
            "steps": VERIFY_STEPS,
            "wall_s": round(wall, 3),
            "checksum": solver.checksum(),
            "npb_verified": verified,
        })
    return out


def bench_class_w_smoke(repeat: int = 1, cache_mode: str = "off") -> dict:
    """Class-W (36^3) vector-only run of the heaviest compiled kernel.

    The scalar backend needs tens of minutes at this size; the vector
    backend makes it a smoke test — which is the point of the exercise.
    """
    from ..nas import kernels

    # nx must be overridden along with n: it sizes the arrays and the
    # distribution template (the declared default is the class-S 12)
    spec = KernelSpec(
        "bt compute_rhs class W", 8, {"n": CLASS_W, "nx": CLASS_W},
        {"n": CLASS_W, "c1": 0.3, "c2": 0.2}, source=kernels.COMPUTE_RHS_BT,
    )
    compile_s, run_s, _, ck = _run_backend(
        spec, "vector", repeat, warm=cache_mode == "warm"
    )
    reports = list(ck.vector_report.values())
    return {
        "name": spec.name,
        "nprocs": spec.nprocs,
        "backend": "vector",
        "compile_s": round(compile_s, 3),
        "run_s": round(run_s, 3),
        "vector_loops": sum(1 for r in reports if r.status == "vector"),
        "total_loops": len(reports),
        "cache": {"mode": cache_mode},
    }


@dataclass
class BenchReport:
    kernels: list[KernelResult] = field(default_factory=list)
    dhpf: list[dict] = field(default_factory=list)
    class_w: dict | None = None
    iset_cache: dict | None = None
    cache_mode: str = "off"
    plan_cache: dict | None = None

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kernels": [k.as_dict() for k in self.kernels],
            "dhpf_class_s": self.dhpf,
            "class_w_smoke": self.class_w,
            "iset_cache": self.iset_cache,
            "cache_mode": self.cache_mode,
            "plan_cache": self.plan_cache,
        }

    def format(self) -> str:
        lines = ["Backend benchmark (scalar vs vector node programs):", ""]
        hdr = (f"  {'kernel':28s} {'ranks':>5s} {'compile':>8s} {'scalar':>8s} "
               f"{'vector':>8s} {'speedup':>8s} {'vec/loops':>9s} {'bitwise':>8s}")
        lines.append(hdr)
        for k in self.kernels:
            lines.append(
                f"  {k.name:28s} {k.nprocs:5d} {k.compile_vector_s:7.2f}s "
                f"{k.scalar_s:7.3f}s {k.vector_s:7.3f}s {k.speedup:7.1f}x "
                f"{k.vector_loops:4d}/{k.total_loops:<4d} "
                f"{'OK' if k.identical else 'DIFF':>8s}"
            )
        if self.dhpf:
            lines.append("")
            lines.append("Functional dHPF class-S runs (NPB-style verification):")
            for d in self.dhpf:
                lines.append(
                    f"  {d['bench']:4s} {d['grid'][0]}^3 x{d['steps']} steps on "
                    f"{d['nprocs']} ranks: {d['wall_s']:.2f}s, "
                    f"{'VERIFIED' if d['npb_verified'] else 'FAILED'}"
                )
        if self.class_w:
            w = self.class_w
            lines.append("")
            lines.append(
                f"Class-W smoke: {w['name']} ({w['backend']}): "
                f"compile {w['compile_s']:.1f}s, run {w['run_s']:.2f}s, "
                f"{w['vector_loops']}/{w['total_loops']} loops vectorized"
            )
        if self.iset_cache:
            c = self.iset_cache
            lines.append("")
            lines.append(
                "iset op caches: "
                f"constraint {c['constraint_hits']}/{c['constraint_hits'] + c['constraint_misses']} "
                f"hits ({c['constraint_hit_rate']:.1%}), "
                f"emptiness {c['empty_hits']}/{c['empty_hits'] + c['empty_misses']} "
                f"hits ({c['empty_hit_rate']:.1%})"
            )
        if self.plan_cache:
            p = self.plan_cache
            lines.append("")
            lines.append(
                f"plan cache ({self.cache_mode}): "
                f"{p['hits']} hits ({p['lru_hits']} lru / {p['disk_hits']} disk), "
                f"{p['misses']} misses, {p['puts']} puts, "
                f"{p['disk_entries']} entries / {p['bytes_on_disk']} bytes on disk"
            )
        return "\n".join(lines)


def run_bench(
    repeat: int = 1,
    only: str | None = None,
    skip_dhpf: bool = False,
    skip_class_w: bool = False,
    progress: Callable[[str], None] | None = None,
    cache_mode: str = "off",
) -> BenchReport:
    """Run the benchmark suite; *only* filters kernels by substring.

    ``cache_mode`` selects how compile times interact with the plan
    cache: ``'off'`` (default) disables it, ``'cold'`` measures misses
    against a fresh hermetic cache, ``'warm'`` measures hits after an
    untimed populate pass.  Cold and warm runs use a temporary cache
    directory, never the user's ``~/.cache/repro-plans``.
    """
    from ..compile import PlanCache, PlanCacheConfig, cache_disabled, use_cache
    from ..isets import cache_stats, reset_caches

    if cache_mode not in ("off", "cold", "warm"):
        raise ValueError(f"unknown cache mode {cache_mode!r}")
    reset_caches()
    report = BenchReport(cache_mode=cache_mode)
    if cache_mode == "off":
        plan_cache = None
        cache_ctx = cache_disabled()
    else:
        plan_cache = PlanCache(PlanCacheConfig(
            directory=tempfile.mkdtemp(prefix="repro-bench-plans-")
        ))
        cache_ctx = use_cache(plan_cache)
    with cache_ctx:
        for spec in kernel_specs():
            if only and only not in spec.name:
                continue
            if progress:
                progress(f"benchmarking {spec.name} ({cache_mode}) ...")
            report.kernels.append(bench_kernel(
                spec, repeat=repeat, cache_mode=cache_mode,
                plan_cache=plan_cache,
            ))
        if not skip_dhpf and not only:
            if progress:
                progress("running functional dHPF class-S (sp, bt) ...")
            report.dhpf = bench_dhpf_class_s()
        if not skip_class_w and not only:
            if progress:
                progress("class-W vector smoke ...")
            report.class_w = bench_class_w_smoke(
                repeat=1, cache_mode=cache_mode
            )
    report.iset_cache = cache_stats().as_dict()
    if plan_cache is not None:
        report.plan_cache = plan_cache.as_dict()
    return report


def check_guards(report: BenchReport, min_speedup: float) -> list[str]:
    """CI guard: failures for identity breaks, verify failures, slow vectors."""
    problems = []
    for k in report.kernels:
        if not k.identical:
            problems.append(f"{k.name}: scalar/vector results differ bitwise")
        if k.speedup < min_speedup:
            problems.append(
                f"{k.name}: vector speedup {k.speedup:.1f}x < required "
                f"{min_speedup:.1f}x"
            )
    for d in report.dhpf:
        if not d["npb_verified"]:
            problems.append(f"dhpf {d['bench']} class S: NPB verification failed")
    return problems


def write_json(report: BenchReport, path: str) -> None:
    """Persist a bench report (``--bench-out``) atomically.

    The payload lands in a temp file first and ``os.replace`` publishes
    it, so a crashed or interrupted bench run can never leave a torn
    JSON behind; ``schema_version`` stamps the layout for consumers.
    """
    payload = json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    atomic_write_text(path, payload)


def atomic_write_text(path: str, payload: str) -> None:
    """Write *payload* to *path* via temp file + ``os.replace``."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
