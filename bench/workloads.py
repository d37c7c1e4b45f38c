"""The four workloads and the operations of their user journey.

A workload is a set of kernels (its *input*) and a *route* through the
same journey — source → cold compile → warm compile → first run →
steady-state run — so every workload reports the same end-to-end
metrics.  Each function here is one operation, runs inside a sample
child (see ``sampling.run_child``) and calls the public API of the layer
it exercises; everything it returns is plain data for the pipe.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
from dataclasses import dataclass

import numpy as np

from repro.check import kernel_cost, validate_against_trace
from repro.codegen import compile_kernel
from repro.compile import PlanCache, PlanCacheConfig, use_cache
from repro.compile.service import CompileService
from repro.frontend import parse_source
from repro.ir.stmt import reset_sids
from repro.nas import kernels as nas_kernels
from repro.nas.classes import CLASSES
from repro.runtime import VirtualMachine, procexec
from repro.transform import inline_calls

from reference import sha256_array
from sampling import (
    BATCH_BELOW_S,
    SIZING_PASSES,
    Timing,
    Tracer,
    batch_size,
    fastest_pass,
    peak_rss_kb,
)

CLASS_S = CLASSES["S"].problem_size
CLASS_W = CLASSES["W"].problem_size
DEFAULT_SEED = 1

#: wall-clock guard on one process-executor call; never reached when healthy
PROC_TIMEOUT_S = 120.0
#: an operation this long is sampled once per round, not several times
LONG_OP_S = 0.5


class Tally:
    """Operations attempted and the ones that failed, for ``fail_share``:
    compiles, runs, ticket outcomes, output checks, leak probes."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def attempt(self, problems=()) -> None:
        """Record one operation; *problems* non-empty means it failed."""
        self.attempted += 1
        self.problems.extend(problems)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "problems": self.problems}


@dataclass(frozen=True)
class Kernel:
    """One compilable input: source text, entry point, rank count, sizes."""

    name: str
    source: str
    entry: str
    nprocs: int
    params: dict
    scalars: dict
    #: leaf routines inlined into ``entry`` before compiling; the result
    #: is a ``Subroutine``, which never enters the plan cache
    inline: tuple = ()
    lift_energy: bool = False
    #: the interpreter is too slow at this size: other seeds are checked
    #: against ``reference.numpy_compute_rhs_sp`` instead
    transcribed: bool = False

    @property
    def cacheable(self) -> bool:
        return not self.inline

    def compile_input(self):
        """What ``compile_kernel`` receives: the text, or for a call tree
        the entry unit with its leaves inlined."""
        if not self.inline:
            return self.source
        # compile_kernel numbers the statements of a text afresh; IR keeps
        # the ids its parse gave it, which end up in the emitted code
        reset_sids()
        prog = parse_source(self.source)
        for leaf in self.inline:
            inline_calls(prog, self.entry, leaf)
        return prog.get(self.entry)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kernels: tuple
    #: executor and codegen target of the run side:
    #: "vm-mpi" | "vm-shmem" | "proc-shmem"
    route: str
    #: kernels are compiled as one batch through ``CompileService``;
    #: ``tickets`` is the submission order (indices into ``kernels``)
    service: bool = False
    tickets: tuple = ()


def _sp_rhs(name: str, source: str, n: int, nprocs: int, **kw) -> Kernel:
    return Kernel(
        name, source, "compute_rhs", nprocs, {"n": n, "nx": n},
        {"c1c2": 0.7, "c2": 0.2, "dt": 0.015, "n": n}, lift_energy=True, **kw,
    )


_SP_WILDCARD = nas_kernels.scaled(nas_kernels.COMPUTE_RHS_SP)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "kernels-S",
            "four small paper kernels on the VM: compile-dominated, run side "
            "light except the scalar wavefront of x_solve_cell",
            (
                Kernel("lhsy-17@4", nas_kernels.LHSY_SP, "lhsy", 4, {"n": 17},
                       {"c2": 0.5, "dy3": 0.1, "c1c5": 0.2, "dtty1": 0.3,
                        "dtty2": 0.4, "n": 17}),
                Kernel("exact_rhs-17@4", nas_kernels.EXACT_RHS_SP, "exact_rhs",
                       4, {"n": 17}, {"n": 17}),
                Kernel("exact_rhs-S@4", nas_kernels.EXACT_RHS_SP, "exact_rhs",
                       4, {"n": CLASS_S}, {"n": CLASS_S}),
                Kernel("x_solve_cell-13@4", nas_kernels.BT_SOLVE_CELL,
                       "x_solve_cell", 4, {"n": 13}, {"n": 13},
                       inline=("matvec_sub", "matmul_sub", "binvcrhs")),
            ),
            route="vm-mpi",
        ),
        Workload(
            "rhs-W-vm",
            "SP compute_rhs class W on 4 VM threads: guard binding under the "
            "GIL dominates the first run, sim hand-offs the steady run",
            (_sp_rhs("sp_rhs-W@4", nas_kernels.COMPUTE_RHS_SP, CLASS_W, 4,
                     transcribed=True),),
            route="vm-mpi",
        ),
        Workload(
            "rhs-W-proc",
            "same source on 2 real processes (shmem): every call forks a gang "
            "that rebinds guards, so only procexec changes show here",
            (_sp_rhs("sp_rhs-W@2", _SP_WILDCARD, CLASS_W, 2, transcribed=True),),
            route="proc-shmem",
        ),
        Workload(
            "sweep-svc",
            "rank sweep through CompileService(workers=2): pool, single-flight "
            "and cache writes cold, disk tier warm; runs on 16/8/4 VM threads",
            tuple(
                _sp_rhs(f"sp_rhs-S@{p}", _SP_WILDCARD, CLASS_S, p)
                for p in (16, 8, 4)
            ),
            route="vm-shmem",
            service=True,
            tickets=(0, 0, 1, 1, 2, 2),
        ),
    )
}


# ---------------------------------------------------------------------------
# compile side
# ---------------------------------------------------------------------------

def open_cache(directory: str) -> PlanCache:
    """A fresh ``PlanCache`` object on *directory*: nothing in its LRU,
    so a hit is served by the disk tier."""
    return PlanCache(PlanCacheConfig(directory=directory))


def node_sha(ck) -> str:
    """Fingerprint of both emitted node programs."""
    text = ck.python_source("mpi") + ck.python_source("shmem")
    return hashlib.sha256(text.encode()).hexdigest()


def compile_cold(kernel: Kernel, cache_dir: str, keep_kernel: bool = False) -> dict:
    """Source → ``CompiledKernel`` against an empty plan cache."""
    with Tracer() as tr, use_cache(open_cache(cache_dir)):
        with tr.span("compile_cold"):
            ck = compile_kernel(kernel.compile_input(), kernel.nprocs, kernel.params)
    out = {"timing": {kernel.name: tr.timings("compile_cold")}, "maxrss_kb": peak_rss_kb(),
           "node_sha": {kernel.name: node_sha(ck)}, "attempted": 1, "problems": []}
    if keep_kernel:
        out["pickled"] = pickle.dumps(ck, protocol=pickle.HIGHEST_PROTOCOL)
    return out


def compile_warm(workload: Workload, cache_dirs: dict, passes: dict,
                 target_s: float) -> dict:
    """One timed batch of warm compiles per cacheable kernel; the sample
    is the time per pass.  Each pass opens a fresh ``PlanCache`` on the
    populated directory, so it pays read, validate, unpickle and
    diagnostic replay — in steady state: one untimed pass per kernel
    comes first, because a fresh child's first replay is ten times dearer
    (lazy imports, empty intern tables).

    The batch is long (*target_s*) on purpose.  Unpickling a plan fills
    the collector's youngest generation a dozen times, so every sixth or
    seventh pass at class W pays a full collection of 12 ms on top of its
    own 8 ms; batches of a few passes hold one such collection or none,
    and their fast decile flips between the two.

    ``passes`` carries the batch sizes fixed by the run's first warm
    sample; kernels missing from it are sized here, before timing."""
    tally, sized = Tally(), dict(passes)
    with Tracer() as tr:
        for kernel in workload.kernels:
            if not kernel.cacheable:
                continue

            def one_pass(kernel=kernel):
                cache = open_cache(cache_dirs[kernel.name])
                with use_cache(cache):
                    compile_kernel(kernel.source, kernel.nprocs, kernel.params)
                return cache.stats.disk_hits

            one_pass()  # untimed: lazy imports and intern tables of a fresh child
            if kernel.name not in sized:
                sized[kernel.name] = batch_size(fastest_pass(one_pass), target_s)
            with tr.span("compile_warm", kernel=kernel.name):
                for _ in range(sized[kernel.name]):
                    hits = one_pass()
            tally.attempt(
                [] if hits else [f"{kernel.name}: warm compile missed the disk tier"]
            )
    timing = {
        name: [tr.timings("compile_warm", kernel=name)[0].per_pass(sized[name])]
        for name in sized
    }
    return {"timing": timing, "passes": sized, "maxrss_kb": peak_rss_kb(),
            **tally.as_dict()}


def service_batch(workload: Workload, cache_dir: str) -> dict:
    """The workload's tickets through a new ``CompileService(workers=2)``
    on *cache_dir*: submitted at once, then collected.  Timed from before
    the service starts to the last ``collect``; shutdown is outside.  The
    service-level spans cost a dozen clock reads, so they are always on.
    On a populated *cache_dir* no worker is forked and the work is this
    process's own, so the caller pins that sample child like any other."""
    with Tracer(workload.name) as tr:
        with tr.span("service.batch"):
            with tr.span("service.start"):
                svc = CompileService(workers=2, cache=open_cache(cache_dir))
            try:
                tickets = []
                for idx in workload.tickets:
                    k = workload.kernels[idx]
                    with tr.span("service.submit", kernel=k.name):
                        tickets.append(
                            svc.submit(k.source, k.nprocs, k.params, label=k.name))
                outcomes = []
                for ticket in tickets:
                    with tr.span("service.collect", kernel=ticket.job.label):
                        outcomes.append(svc.collect(ticket, timeout=PROC_TIMEOUT_S))
                stats = svc.stats()
            except BaseException:
                svc.shutdown(cancel_queued=True)
                raise
        with tr.span("service.shutdown"):
            svc.shutdown()
    maxrss_kb = peak_rss_kb()  # the workers are reaped
    tally = Tally()
    for o in outcomes:
        tally.attempt(
            [] if o.error is None
            else [f"ticket {o.job.label}: {type(o.error).__name__}: {o.error}"]
        )
    tally.attempt(_leaks())
    shas = {o.job.label: node_sha(o.kernel) for o in outcomes if o.kernel is not None}
    return {
        "timing": {"batch": tr.timings("service.batch")},
        "start": tr.timings("service.start")[0], "stats": stats, "spans": tr.spans,
        "cached": sum(1 for o in outcomes if o.cached), "maxrss_kb": maxrss_kb,
        "node_sha": shas, **tally.as_dict(),
    }


def service_warm(workload: Workload, cache_dir: str, passes: int) -> dict:
    """One batch of *passes* warm service batches in a row, each through
    a new service over the populated *cache_dir*; the sample is the time
    per service batch (see ``compile_warm`` for why one long batch)."""
    taken = [service_batch(workload, cache_dir) for _ in range(passes)]
    timings = [got["timing"]["batch"][0] for got in taken]
    wall = sum(t.wall for t in timings)
    return {
        "timing": {"batch": [Timing(
            sum(t.norm for t in timings) / passes, wall / passes,
            sum(t.wall * t.slowdown for t in timings) / wall)]},
        "cached": min(got["cached"] for got in taken),
        "maxrss_kb": taken[-1]["maxrss_kb"],
        "node_sha": taken[-1]["node_sha"],
        "attempted": sum(got["attempted"] for got in taken),
        "problems": [p for got in taken for p in got["problems"]],
    }


# ---------------------------------------------------------------------------
# run side
# ---------------------------------------------------------------------------

def fresh_kernel(kernel: Kernel, cache_dir: str | None, pickled: bytes | None):
    """A kernel object no one has run: a warm replay from the plan cache,
    or for an uncacheable call tree the same unpickle a replay performs."""
    if pickled is not None:
        return pickle.loads(pickled)
    cache = open_cache(cache_dir)
    with use_cache(cache):
        ck = compile_kernel(kernel.source, kernel.nprocs, kernel.params)
    if cache.stats.hits < 1:
        raise RuntimeError(f"{kernel.name}: warm replay missed the plan cache")
    return ck


def run_route(ck, kernel: Kernel, inputs: dict, route: str, vm=None):
    """One pass of *ck* on *route* from the seeded *inputs*."""

    def fill(arrays):
        for name, data in inputs.items():
            arrays[name].data[:] = data

    if route == "vm-mpi":
        return ck.run(kernel.scalars, init=lambda rid, A: fill(A), vm=vm)
    if route == "vm-shmem":
        return ck.run_shmem(kernel.scalars, init=fill)
    if route == "proc-mpi":
        return procexec.run_kernel(
            ck, kernel.scalars, init=lambda rid, A: fill(A), target="mpi",
            timeout=PROC_TIMEOUT_S,
        )
    if route == "proc-shmem":
        return procexec.run_kernel(
            ck, kernel.scalars, init=fill, target="shmem", timeout=PROC_TIMEOUT_S
        )
    raise ValueError(f"unknown route {route!r}")


def owned_index(ck, name: str, rank: int, arr) -> tuple:
    """Open-mesh index of the elements of *name* that *rank* owns, from
    ``Layout.owner_coords_of`` one array dimension at a time (ownership
    of an aligned, distributed dimension does not depend on the others)."""
    layout = ck.ctx.layout(name)
    coords = ck.grid.delinearize(rank)
    base = list(arr.lower)
    axes = [np.arange(extent) for extent in arr.data.shape]
    for d, g in layout.distributed_array_dims():
        axes[d] = np.array([
            v - arr.lower[d]
            for v in range(arr.lower[d], arr.lower[d] + arr.data.shape[d])
            if layout.owner_coords_of(base[:d] + [v] + base[d + 1:])[g] == coords[g]
        ], dtype=np.intp)
    return np.ix_(*axes)


def comparable_outputs(ck, route: str, result) -> dict:
    """The arrays a route's result can be held to: on "mpi" the owned
    elements of each distributed array, assembled over the ranks; on
    "shmem" the shared arrays.  NEW/private arrays are per-rank scratch."""
    out = {}
    if route.endswith("shmem"):
        for name, arr in result.items():
            if name not in ck.private_arrays:
                out[name] = arr.data
        return out
    for name in result[0]:
        if name in ck.private_arrays or not ck.ctx.is_distributed(name):
            continue
        merged = None
        for rank, arrays in enumerate(result):
            arr = arrays[name]
            if merged is None:
                merged = np.zeros_like(arr.data)
            index = owned_index(ck, name, rank, arr)
            merged[index] = arr.data[index]
        out[name] = merged
    return out


def check_outputs(tally: Tally, ck, kernel: Kernel, route: str, result,
                  expected: dict) -> None:
    """Bitwise comparison of a route's result with the reference hashes,
    one tallied check per array."""
    for name, data in comparable_outputs(ck, route, result).items():
        tally.attempt(
            [] if sha256_array(data) == expected[name]
            else [f"{kernel.name}: {route} output {name!r} differs from the reference"]
        )


def _leaks() -> list[str]:
    """Live children or shared-memory segments this process still owns
    (one leak probe; empty when clean)."""
    problems = []
    if multiprocessing.active_children():
        problems.append(f"leaked children: {multiprocessing.active_children()}")
    if procexec.leaked_segments():
        problems.append(f"leaked segments: {procexec.leaked_segments()}")
    return problems


def run_sample(kernel: Kernel, route: str, inputs: dict, expected: dict,
               cache_dir: str | None, pickled: bytes | None,
               plan: tuple | None, batches: int, target_s: float,
               with_comm: bool) -> dict:
    """First run and steady-state runs of one kernel on one route.

    The first run is timed on a kernel object fresh from a warm replay
    (it pays guard binding, box covers and ``exec`` of the node program)
    and doubles as the warm-up pass; steady samples follow on the same
    object.  *plan* is ``(passes per batch, samples per round)`` as the
    run's first sample of this kernel fixed it; without one it is fixed
    here from the fastest of the first steady passes: *batches* batches
    sized to *target_s*, or a single sample if one pass takes ``LONG_OP_S``.
    Outputs are checked outside the timers.  With
    *with_comm* a traced VM "mpi" pass then counts the bytes moved and
    holds the static cost model to the trace."""
    tally = Tally()
    with Tracer() as tr:
        ck = fresh_kernel(kernel, cache_dir, pickled)
        tally.attempt()
        with tr.span("first_run"):
            result = run_route(ck, kernel, inputs, route)
        tally.attempt()
        check_outputs(tally, ck, kernel, route, result, expected)

        # a pass drops the previous pass's arrays before it starts, so that
        # it allocates into the memory they freed: held alive, every pass of
        # SP compute_rhs class W pays fresh pages (16 ms against 11 ms) and
        # repeats three times worse from one child to the next
        def one_pass():
            nonlocal result
            result = None
            result = run_route(ck, kernel, inputs, route)

        if plan is None:
            with tr.span("run") as sizing:
                one_pass()
            seconds = sizing["end"] - sizing["start"]
            if seconds < BATCH_BELOW_S:
                seconds = min(seconds, fastest_pass(one_pass, SIZING_PASSES - 1))
            plan = (batch_size(seconds, target_s), 1 if seconds >= LONG_OP_S else batches)
            if plan[0] == 1:  # not batched: that pass is already a sample
                tally.attempt()
            else:
                sizing["name"] = "sizing"
        passes, batches = plan
        while sum(r["name"] == "run" for r in tr.spans) < batches:
            with tr.span("run"):
                for _ in range(passes):
                    one_pass()
            tally.attempt()
        check_outputs(tally, ck, kernel, route, result, expected)

    out = {"first": tr.timings("first_run")[0], "maxrss_kb": peak_rss_kb(),
           "steady": [t.per_pass(passes) for t in tr.timings("run")], "plan": plan}
    if with_comm:
        vm = VirtualMachine(ck.nprocs, record_trace=True)
        traced = run_route(ck, kernel, inputs, "vm-mpi", vm=vm)
        tally.attempt()
        check_outputs(tally, ck, kernel, "vm-mpi", traced, expected)
        validation = validate_against_trace(kernel_cost(ck), vm.trace)
        tally.attempt(
            [f"{kernel.name}: static cost != trace: {m}" for m in validation.mismatches]
        )
        out["comm_bytes"] = vm.trace.total_bytes()
        out["comm_msgs"] = vm.trace.total_messages()
    tally.attempt(_leaks())
    return {**out, **tally.as_dict()}
