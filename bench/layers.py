"""The traced run: spans around the calls into each layer, and the
per-layer metrics derived from them.

Everything here is measured from the benchmark's own files, by timing or
counting around a public function of the layer; nothing inside ``repro``
is instrumented.  End-to-end numbers never come from this run.

The compile of each kernel is driven stage by stage in the order of
``repro.compile.pipeline.build_kernel`` — ``reset_sids`` → ``stage_parse``
→ ``stage_select`` → ``stage_specialize`` → ``stage_codegen`` →
``python_source`` ×2, with the artifact pickling and cache writes of
``cached_compile`` in between — and the emitted node programs must equal
``compile_kernel``'s byte for byte, so the decomposition measures the
same program.
"""

from __future__ import annotations

import cProfile
import dataclasses
import json
import os
import pickle
import pstats
import subprocess
import sys

import numpy as np

from repro.check import kernel_cost, verify_kernel
from repro.codegen import compile_kernel
from repro.compile import PlanKey, use_cache
from repro.compile.driver import CompileJob, compile_many
from repro.compile.pipeline import (
    KernelArtifact,
    ParseArtifact,
    stage_codegen,
    stage_parse,
    stage_select,
    stage_specialize,
)
from repro.diag import DiagnosticSink
from repro.ir.stmt import reset_sids
from repro.ir.visit import walk_stmts
from repro.isets import cache_stats, new_epoch
from repro.nas import kernels as nas_kernels
from repro.nas.sp import SPSolver
from repro.parallel.api import run_parallel
from repro.runtime import IBM_SP2, ProcessExecutor, VirtualMachine

import reference
import workloads as wl
from sampling import Tracer, run_child, self_times, settle

#: (name, unit), in report order; ``BENCHMARK.json`` lists the same names
PER_LAYER = (
    ("frontend.parse_ms", "ms"), ("frontend.stmts", "count"),
    ("cp.select_s", "s"), ("cp.select_calls", "count"),
    ("comm.specialize_s", "s"), ("comm.specialize_calls", "count"),
    ("comm.events", "count"), ("comm.msgs", "count"), ("comm.bytes", "B"),
    ("isets.intern_misses", "count"), ("isets.empty_misses", "count"),
    ("isets.empty_hit_rate", "ratio"),
    ("codegen.build_s", "s"), ("codegen.emit_ms", "ms"),
    ("codegen.node_bytes", "B"), ("codegen.vector_loops", "count"),
    ("codegen.total_loops", "count"), ("codegen.bind_guards_s", "s"),
    ("codegen.guard_points", "count"),
    ("check.verify_s", "s"), ("check.cost_ms", "ms"), ("check.pred_time_us", "us"),
    ("key.digest_ms", "ms"), ("cache.put_ms", "ms"), ("cache.get_disk_ms", "ms"),
    ("cache.get_lru_ms", "ms"), ("cache.unpickle_ms", "ms"),
    ("cache.kernel_kb", "KB"), ("cache.hit_rate", "ratio"),
    ("pool.start_ms", "ms"), ("pool.batch_cold_s", "s"), ("pool.batch_warm_ms", "ms"),
    ("pool.worker_busy_share", "ratio"), ("pool.forks", "count"),
    ("pool.coalesced", "count"), ("pool.retries", "count"), ("pool.failed", "count"),
    ("driver.batch_cold_s", "s"),
    ("sim.spawn_ms", "ms"), ("sim.pingpong_us", "us"), ("sim.barrier_us", "us"),
    ("proc.spawn_ms", "ms"), ("proc.pingpong_us", "us"), ("proc.barrier_us", "us"),
    ("run.p1_ms", "ms"), ("run.vm_mpi_ms", "ms"), ("run.vm_shmem_ms", "ms"),
    ("run.proc_mpi_ms", "ms"), ("run.proc_shmem_ms", "ms"), ("run.overhead_x", "x"),
    ("parallel.solve_sp_s", "s"), ("parallel.model_time_ms", "ms"),
    ("parallel.model_vs_hand_x", "x"),
    ("trace.overhead_x", "x"),
)

#: the span each stage metric sums (normalised self time, over the
#: workload's kernels)
STAGE_SPANS = {
    "frontend.parse_ms": ("frontend.parse", 1e3),
    "cp.select_s": ("cp.select", 1.0),
    "comm.specialize_s": ("comm.specialize", 1.0),
    "codegen.build_s": ("codegen.build", 1.0),
    "codegen.emit_ms": ("codegen.emit", 1e3),
    "codegen.bind_guards_s": ("codegen.bind_guards", 1.0),
    "check.verify_s": ("check.verify", 1.0),
    "check.cost_ms": ("check.cost", 1e3),
    "key.digest_ms": ("key.digest", 1e3),
    "cache.put_ms": ("cache.put", 1e3),
    "cache.get_disk_ms": ("cache.get_disk", 1e3),
    "cache.get_lru_ms": ("cache.get_lru", 1e3),
    "cache.unpickle_ms": ("cache.unpickle", 1e3),
    "parallel.solve_sp_s": ("parallel.solve_sp", 1.0),
    "driver.batch_cold_s": ("driver.batch", 1.0),
}

#: timed passes of a route in the route matrix (fastest counts)
ROUTE_PASSES = 3
#: round trips / barriers per communication microbenchmark
MICRO_ITERS = 200
#: timesteps of the functional SP solve and of the modelled class-A run
SOLVE_STEPS = 2


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


# ---------------------------------------------------------------------------
# one kernel, stage by stage (runs in a sample child)
# ---------------------------------------------------------------------------

def staged_compile(kernel: wl.Kernel, tracer: Tracer, cache_dir: str | None,
                   profile: bool = False):
    """``build_kernel``'s stages under spans.  With *profile* the two
    analysis stages run under ``cProfile`` (Python-level calls only) and
    their call counts come back instead of meaningful times."""
    counts = {}

    def profiled(stage, fn, *a):
        if not profile:
            return fn(*a)
        prof = cProfile.Profile(builtins=False, subcalls=False)
        try:
            return prof.runcall(fn, *a)
        finally:
            counts[stage] = pstats.Stats(prof).total_calls

    sink = DiagnosticSink(strict=True)
    cache = wl.open_cache(cache_dir) if cache_dir and kernel.cacheable else None
    with tracer.span("compile"):
        if cache is not None:
            with tracer.span("key.digest"):
                key = PlanKey.for_source(kernel.source, kernel.nprocs, kernel.params)
        with tracer.span("frontend.parse"):
            source = kernel.compile_input()  # a call tree is parsed and inlined here
            new_epoch()
            if isinstance(source, str):
                reset_sids()
            sub = stage_parse(source, sink)
        if cache is not None:
            with tracer.span("cache.put"):
                parse_payload = _dumps(ParseArtifact(sub=sub))
        with tracer.span("cp.select"):
            selection = profiled("cp.select_calls", stage_select, sub, kernel.params)
        if selection is None:
            raise RuntimeError(f"{kernel.name}: no rank-symbolic selection")
        if cache is not None:
            with tracer.span("cache.put"):
                selection_payload = _dumps(selection)
        with tracer.span("comm.specialize"):
            analysis = profiled("comm.specialize_calls", stage_specialize,
                                selection, kernel.nprocs, kernel.params)
        with tracer.span("codegen.build"):
            ck = stage_codegen(analysis, kernel.nprocs, "vector", sink)
        with tracer.span("codegen.emit"):
            ck.python_source("mpi")
            ck.python_source("shmem")
        if cache is not None:
            with tracer.span("cache.put"):
                ck.sink = DiagnosticSink(strict=True, diagnostics=list(sink.diagnostics))
                cache.put(key.kernel_digest, _dumps(KernelArtifact(kernel=ck)))
                cache.put(key.parse_digest, parse_payload)
                cache.put(key.analysis_digest, selection_payload)
    return ck, analysis, counts


def _best(tracer: Tracer, name: str) -> float:
    """Fastest normalised time among the spans called *name*."""
    return min(t.norm for t in tracer.timings(name))


def trace_kernel(workload: wl.Workload, kernel: wl.Kernel, inputs: dict,
                 expected: dict, cold_dir: str | None, scratch_dir: str) -> dict:
    """Every in-process layer measurement of one kernel, compile first so
    it sees the heap a cold compile sees."""
    tally = wl.Tally()
    with Tracer(workload.name, kernel.name) as tracer:
        ck, analysis, _ = staged_compile(kernel, tracer, scratch_dir)
        tally.attempt()
        reports = list(ck.vector_report.values())
        m = {
            "frontend.stmts": sum(1 for _ in walk_stmts(ck.sub.body)),
            "comm.events": sum(len(plan.live_events()) for _, plan in analysis.nest_plans),
            "codegen.node_bytes": len(ck.python_source("mpi").encode())
            + len(ck.python_source("shmem").encode()),
            "codegen.vector_loops": sum(1 for r in reports if r.status == "vector"),
            "codegen.total_loops": len(reports),
        }

        with tracer.span("check.verify"):
            report = verify_kernel(ck)
        tally.attempt([] if report.ok else [f"{kernel.name}: verifier reports errors"])
        with tracer.span("check.cost"):
            cost = kernel_cost(ck)
        m["check.pred_time_us"] = cost.predicted_time(IBM_SP2) * 1e6

        if kernel.cacheable:
            m.update(_cache_probe(kernel, cold_dir, tracer, tally))

        with tracer.span("codegen.bind_guards"):
            m["codegen.guard_points"] = sum(
                len(points)
                for rank in range(ck.nprocs)
                for points in ck.bind_guards(rank).values()
                if points is not None
            )

    # the route matrix, on the kernel whose guards are now bound (a
    # process gang forks after this point and inherits them)
    routes = ["vm-mpi", "vm-shmem"]
    ncpu = os.cpu_count() or 1
    if ck.nprocs <= ncpu:  # never more busy processes than cores
        routes += ["proc-mpi", "proc-shmem"]
        # the stages above ran pinned, beside the one helper that read their
        # CPU; a gang needs every CPU, and a probe that reads every CPU
        os.sched_setaffinity(0, range(ncpu))
    with Tracer(workload.name, kernel.name) as runs:
        for route in routes:
            result = wl.run_route(ck, kernel, inputs, route)  # untimed: exec, box covers
            tally.attempt()
            wl.check_outputs(tally, ck, kernel, route, result, expected)
            for _ in range(ROUTE_PASSES):
                with runs.span(f"route.{route}"):
                    wl.run_route(ck, kernel, inputs, route)

        vm = VirtualMachine(ck.nprocs, record_trace=True)
        wl.run_route(ck, kernel, inputs, "vm-mpi", vm=vm)
        m["comm.msgs"] = vm.trace.total_messages()
        m["comm.bytes"] = vm.trace.total_bytes()
    for route in routes:
        m[f"run.{route.replace('-', '_')}_ms"] = _best(runs, f"route.{route}") * 1e3
    tally.attempt(wl._leaks())
    # no span of the route matrix is nested, so the two lists just join
    return {"metrics": m, "spans": tracer.spans + runs.spans, "node_sha": wl.node_sha(ck),
            **tally.as_dict()}


def _cache_probe(kernel: wl.Kernel, cold_dir: str, tracer: Tracer,
                 tally: wl.Tally) -> dict:
    """Read side of the plan cache, against the directory another process
    (the untraced cold compile) populated."""
    digest = PlanKey.for_source(kernel.source, kernel.nprocs, kernel.params).kernel_digest
    cache = wl.open_cache(cold_dir)
    with tracer.span("cache.get_disk"):
        payload = cache.get(digest)
    with tracer.span("cache.get_lru"):
        cache.get(digest)
    tally.attempt([] if payload else [f"{kernel.name}: plan written by another process not found"])
    if payload:
        with tracer.span("cache.unpickle"):
            pickle.loads(payload)
    front = wl.open_cache(cold_dir)
    with use_cache(front):  # through the front door: disk tier, then LRU
        compile_kernel(kernel.source, kernel.nprocs, kernel.params)
        compile_kernel(kernel.source, kernel.nprocs, kernel.params)
    return {
        "cache.kernel_kb": len(payload or b"") / 1024.0,
        "cache.hits": front.stats.hits, "cache.misses": front.stats.misses,
    }


def profile_kernel(workload: wl.Workload, kernel: wl.Kernel) -> dict:
    """The counts of one cold staged compile that must repeat exactly:
    Python-level calls of the two analysis stages and the iset engine's
    misses (a separate pass: profiling distorts the times)."""
    before = cache_stats().snapshot()
    # the tracer is not entered: nothing here is timed
    _, _, counts = staged_compile(
        kernel, Tracer(workload.name, kernel.name), None, profile=True)
    isets = cache_stats().delta(cache_stats().snapshot(), before)
    counts.update({
        "isets.intern_misses": isets["constraint_misses"],
        "isets.empty_misses": isets["empty_misses"],
        "isets.empty_hits": isets["empty_hits"],
    })
    return {"metrics": counts, "attempted": 1, "problems": []}


def count_kernel(workload: wl.Workload, index: int) -> dict:
    """``profile_kernel`` of the workload's kernel number *index* in a
    fresh interpreter (``run.py --count-only``), which switches off
    address-space randomisation for itself; a fork of the runner cannot.
    With it on, identical traced runs differed by one call in ten
    thousand."""
    done = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
         "--workload", workload.name, "--count-only", str(index)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout)


def single_rank(kernel: wl.Kernel, inputs: dict, expected: dict) -> dict:
    """The same kernel compiled at nprocs = 1: the single-threaded numpy
    floor under every ``run_ms``."""
    tally = wl.Tally()
    p1 = dataclasses.replace(
        kernel, source=nas_kernels.scaled(kernel.source), nprocs=1)
    with use_cache(None):
        ck = compile_kernel(p1.compile_input(), 1, p1.params)
    tally.attempt()
    result = wl.run_route(ck, p1, inputs, "vm-mpi")
    tally.attempt()
    wl.check_outputs(tally, ck, p1, "vm-mpi", result, expected)
    with Tracer() as tracer:
        for _ in range(ROUTE_PASSES):
            with tracer.span("route.p1"):
                wl.run_route(ck, p1, inputs, "vm-mpi")
    return {"metrics": {"run.p1_ms": _best(tracer, "route.p1") * 1e3}, **tally.as_dict()}


# ---------------------------------------------------------------------------
# runtime microbenchmarks and the paper's own evaluation path
# ---------------------------------------------------------------------------

def _noop(rank):
    return None


def _pingpong(rank):
    buf = np.zeros(128)  # 1 KiB
    for _ in range(MICRO_ITERS):
        if rank.rank == 0:
            rank.send(1, buf, tag=7)
            rank.recv(1, tag=8)
        elif rank.rank == 1:
            rank.recv(0, tag=7)
            rank.send(0, buf, tag=8)
    return None


def _barriers(rank):
    for _ in range(MICRO_ITERS):
        rank.barrier(tag=9)
    return None


def runtime_micro(nprocs: int) -> dict:
    """Spawn, 1 KiB round trip and barrier cost of both executors, with
    benchmark-owned node functions: the VM on *nprocs* threads (2 for the
    ping-pong), the process executor always on 2."""

    def vm_run(p, fn):
        VirtualMachine(p, record_trace=False).run(fn)

    def proc_run(p, fn):
        ProcessExecutor(p).run(fn, timeout=wl.PROC_TIMEOUT_S)

    with Tracer() as tracer:
        for layer, run, p in (("sim", vm_run, nprocs), ("proc", proc_run, 2)):
            for _ in range(3):
                with tracer.span(f"{layer}.spawn"):
                    run(p, _noop)
                with tracer.span(f"{layer}.spawn2"):
                    run(2, _noop)
            with tracer.span(f"{layer}.pingpong"):
                run(2, _pingpong)
            with tracer.span(f"{layer}.barrier"):
                run(p, _barriers)
    m = {}
    for layer in ("sim", "proc"):
        spawn, spawn2 = _best(tracer, f"{layer}.spawn"), _best(tracer, f"{layer}.spawn2")
        m[f"{layer}.spawn_ms"] = spawn * 1e3
        m[f"{layer}.pingpong_us"] = max(
            0.0, _best(tracer, f"{layer}.pingpong") - spawn2) / MICRO_ITERS * 1e6
        m[f"{layer}.barrier_us"] = max(
            0.0, _best(tracer, f"{layer}.barrier") - spawn) / MICRO_ITERS * 1e6
    return {"metrics": m, "attempted": 6, "problems": wl._leaks()}


def paper_path(executor: str, nprocs: int) -> dict:
    """``run_parallel``: a functional SP solve at class W on the
    workload's executor, checked against the serial solver, and the
    modelled class-A makespan against the hand-written MPI model
    (Table 8.1's ratio)."""
    tally = wl.Tally()
    shape = (wl.CLASS_W,) * 3
    with Tracer() as tracer, tracer.span("parallel.solve_sp"):
        solved = run_parallel("sp", "dhpf", nprocs, shape, SOLVE_STEPS, functional=True,
                              record_trace=False, executor=executor,
                              timeout=wl.PROC_TIMEOUT_S)
    tally.attempt([] if solved.executor == executor
                  else [f"solve_sp degraded to the {solved.executor} executor"])
    serial = SPSolver(shape)
    serial.run(SOLVE_STEPS)
    tally.attempt([] if np.array_equal(solved.u, serial.u)
                  else ["solve_sp differs from the serial SP solver"])
    class_a = (64, 64, 64)
    dhpf = run_parallel("sp", "dhpf", 16, class_a, SOLVE_STEPS, model=IBM_SP2,
                        record_trace=False)
    hand = run_parallel("sp", "handmpi", 16, class_a, SOLVE_STEPS, model=IBM_SP2,
                        record_trace=False)
    tally.attempt(wl._leaks())
    return {"metrics": {
        "parallel.model_time_ms": dhpf.time * 1e3,
        "parallel.model_vs_hand_x": dhpf.time / hand.time,
    }, "spans": tracer.spans, **tally.as_dict()}


def driver_batch(workload: wl.Workload, cache_dir: str) -> dict:
    """The workload's tickets through the fork-per-job ``compile_many``."""
    jobs = [
        CompileJob(k.source, k.nprocs, k.params, label=k.name)
        for k in (workload.kernels[i] for i in workload.tickets)
    ]
    with Tracer(workload.name) as tracer, tracer.span("driver.batch"):
        outcomes = compile_many(jobs, workers=2, timeout=wl.PROC_TIMEOUT_S,
                                cache=wl.open_cache(cache_dir))
    tally = wl.Tally()
    for o in outcomes:
        tally.attempt([] if o.ok else [f"compile_many {o.job.label}: {o.error}"])
    tally.attempt(wl._leaks())
    return {"spans": tracer.spans, **tally.as_dict()}


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def run_traced(workload: wl.Workload, seed: int, tmp: str, inputs: dict,
               trace_path: str) -> dict:
    """The traced run of one workload; spans go to *trace_path*."""
    expected, problems = reference.reference_hashes(workload, inputs, seed)
    attempted = len(workload.kernels)
    spans: list[dict] = []
    sums: dict[str, float] = {}

    ncpu = os.cpu_count() or 1
    children = 0

    def take(what, fn, pinned=True):
        """One sample child: its metrics are summed over the workload's
        kernels, its spans appended, its failures tallied.  Children that
        fork workers of their own stay unpinned."""
        nonlocal attempted, children
        children += 1
        value, booked = settle(
            run_child(fn, pin=children % ncpu if pinned else None), what, problems)
        attempted += booked
        if value is None:
            return None
        for name, metric in value.get("metrics", {}).items():
            sums[name] = sums.get(name, 0.0) + metric
        offset = len(spans)
        for span in value.get("spans", ()):
            if span["parent"] is not None:
                span["parent"] += offset
            spans.append(span)
        return value

    def new_dir(label):
        d = os.path.join(tmp, label.replace("@", "-"))
        os.makedirs(d, exist_ok=True)
        return d

    # 1. the untraced cold compile, exactly as the journey takes it
    cold_dirs, plain_sha = {}, {}
    untraced_s = 0.0
    if workload.service:
        d = new_dir("svc-untraced")
        got = take("service batch", lambda: wl.service_batch(workload, d), pinned=False)
        cold_dirs = {k.name: d for k in workload.kernels}
    else:
        for k in workload.kernels:
            d = cold_dirs[k.name] = new_dir(f"cold-{k.name}")
            got = take(f"untraced {k.name}", lambda k=k, d=d: wl.compile_cold(k, d))
            if got is not None:
                untraced_s += got["timing"][k.name][0].norm
                plain_sha.update(got["node_sha"])
    batch = got if workload.service else None
    if batch is not None:
        plain_sha = batch["node_sha"]

    # 2. the same compile under spans; then every in-process layer probe
    for k in workload.kernels:
        got = take(
            f"traced {k.name}",
            lambda k=k: trace_kernel(
                workload, k, inputs[k.name], expected[k.name],
                cold_dirs[k.name], new_dir(f"staged-{k.name}")),
        )
        attempted += 1
        if got is not None and got["node_sha"] != plain_sha.get(k.name):
            problems.append(f"{k.name}: the staged compile and compile_kernel "
                            "emit different node programs")
    traced_s = sum(s["norm"] for s in spans if s["name"] == "compile")

    # 3. the service workload: its batch (whose spans are always on), a warm
    # batch, and the same tickets through the fork-per-job driver
    if batch is not None:
        batch_s = batch["timing"]["batch"][0].norm
        sums["pool.start_ms"] = batch["start"].norm * 1e3
        sums["pool.batch_cold_s"] = batch_s
        sums["pool.worker_busy_share"] = traced_s / (2 * batch_s)
        for key in ("forks", "coalesced", "retries", "failed"):
            sums[f"pool.{key}"] = batch["stats"][key]
        untraced_s = traced_s = batch_s  # one and the same batch
        warm = take("warm batch", lambda: wl.service_batch(
            workload, cold_dirs[workload.kernels[0].name]))
        if warm is not None:
            sums["pool.batch_warm_ms"] = warm["timing"]["batch"][0].norm * 1e3
        take("driver batch", lambda: driver_batch(workload, new_dir("driver")),
             pinned=False)

    # 4. call counts, the single-rank floor, runtime microbenchmarks, paper path
    for index, k in enumerate(workload.kernels):
        take(f"count {k.name}", lambda index=index: count_kernel(workload, index))
    floors: dict[tuple, list] = {}
    for k in workload.kernels:  # a rank sweep shares one single-rank kernel
        floors.setdefault((k.source, repr(k.params)), []).append(k)
    for sharing in floors.values():
        k = sharing[0]
        got = take(f"single-rank {k.name}",
                   lambda k=k: single_rank(k, inputs[k.name], expected[k.name]))
        if got is not None:  # ... which is the floor under each of them
            sums["run.p1_ms"] += got["metrics"]["run.p1_ms"] * (len(sharing) - 1)
    take("runtime micro", lambda: runtime_micro(max(k.nprocs for k in workload.kernels)),
         pinned=False)
    process = workload.route.startswith("proc")
    take("paper path", lambda: paper_path(
        "process" if process else "virtual", 2 if process else 4), pinned=not process)

    stage = self_times(spans)
    for metric, (span, scale) in STAGE_SPANS.items():
        sums[metric] = stage.get(span, 0.0) * scale
    hits, misses = sums.pop("isets.empty_hits", 0.0), sums.get("isets.empty_misses", 0.0)
    sums["isets.empty_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    hits, misses = sums.pop("cache.hits", 0.0), sums.pop("cache.misses", 0.0)
    sums["cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    route_ms = sums.get(f"run.{workload.route.replace('-', '_')}_ms", 0.0)
    sums["run.overhead_x"] = route_ms / sums["run.p1_ms"] if sums.get("run.p1_ms") else 0.0
    sums["trace.overhead_x"] = traced_s / untraced_s if untraced_s else 0.0

    with open(trace_path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    return {
        "compile_cold_untraced_s": untraced_s, "compile_cold_traced_s": traced_s,
        "stage_self_s": stage,
        "per_layer": {
            name: {"value": int(sums.get(name, 0)) if unit in ("count", "B")
                   else sums.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER
        },
        "attempted": attempted, "problems": problems,
    }
