#!/usr/bin/env python3
"""One benchmark for the whole user journey:

    python3 bench/run.py --workload <name> --seed <int> [--seconds S] [--trace 0|1]

drives source → cold compile → warm compile → first run → steady-state
run on one of four workloads, checks every output against a reference
that does not come from the compiler, and prints every metric by name
with its unit.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of an untraced run, or with ``--trace 1`` the per-layer metrics of a
separate traced run.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


#: ``personality(2)`` flag: lay the address space out the same way every time
ADDR_NO_RANDOMIZE = 0x0040000


def _switch_off_randomisation() -> bool:
    """Switch address-space randomisation off for whatever this process
    execs next.  False if it is off already or cannot be switched."""
    import ctypes

    personality = ctypes.CDLL(None).personality
    personality.argtypes, personality.restype = [ctypes.c_ulong], ctypes.c_int
    now = personality(0xFFFFFFFF)  # query only
    if now == -1 or now & ADDR_NO_RANDOMIZE:
        return False
    return personality(now | ADDR_NO_RANDOMIZE) != -1


def _hermetic_env() -> None:
    """Re-exec with ``PYTHONHASHSEED=0`` and without ``REPRO_PLAN_CACHE``
    (a ``0`` there wins over ``use_cache`` and silently turns every warm
    compile into a cold one) — and the counting pass without address-space
    randomisation: the dependence analysis memoises by object address, so
    how often it recomputes, hence how many calls a compile makes, moves
    by one in ten thousand with where the heap happens to lie."""
    again = (os.environ.get("PYTHONHASHSEED") != "0"
             or "REPRO_PLAN_CACHE" in os.environ)
    if "--count-only" in sys.argv:
        again |= _switch_off_randomisation()
    if not again:
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("REPRO_PLAN_CACHE", None)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


if __name__ == "__main__":
    _hermetic_env()

sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from repro.compile import set_active_cache  # noqa: E402

import reference  # noqa: E402
import workloads as wl  # noqa: E402
from sampling import (  # noqa: E402
    PROBE_NOMINAL_S,
    Timing,
    Tracer,
    fast_decile,
    peak_rss_kb,
    run_child,
    settle,
    summarize_timings,
)

#: fresh interpreters timed for ``setup_s``
SETUP_SAMPLES = 11
#: a round takes one batch of warm compiles per kernel, this long (for
#: the service, this many warm service batches in a row) ...
WARM_BATCH_S = 0.3
WARM_SERVICE_PASSES = 6
#: ... and in each kernel's run child this many batches of steady runs,
#: each sized to this long
STEADY_BATCHES_PER_ROUND = 6
STEADY_BATCH_S = 0.06
#: a run takes at least this many rounds however long they are
MIN_ROUNDS = 2
#: what ``--quick`` takes instead
QUICK_ROUNDS = 2
QUICK_SETUP_SAMPLES = 2

#: (name, unit) of the gated metrics; ``BENCHMARK.json`` lists the same names
END_TO_END = (
    ("setup_s", "s"),
    ("compile_cold_s", "s"),
    ("compile_warm_ms", "ms"),
    ("first_run_s", "s"),
    ("run_ms", "ms"),
    ("source_to_result_s", "s"),
    ("peak_rss_mb", "MB"),
)


def load_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def set_up(workload: wl.Workload, seed: int, cache_root: str) -> dict:
    """What every run pays before its first operation: seeded inputs and
    an open plan cache (interpreter start and ``import repro`` happened
    above).  ``--setup-only`` times exactly this, in a fresh interpreter."""
    inputs = {k.name: reference.make_inputs(k, seed) for k in workload.kernels}
    # every operation installs its own cache with use_cache; this one only
    # makes sure nothing can ever fall through to ~/.cache/repro-plans
    set_active_cache(wl.open_cache(os.path.join(cache_root, "setup")))
    return inputs


def setup_samples(workload: str, seed: int, samples: int) -> dict:
    """*samples* fresh interpreters running this file with ``--setup-only``,
    one after the other, each timed around the subprocess.  Runs in a
    pinned sample child, so the interpreters inherit the CPU the probe
    reads."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    tally = wl.Tally()
    with Tracer() as tr:
        for _ in range(samples):
            with tr.span("setup") as span:
                code = subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False).returncode
            if code != 0:
                span["name"] = "failed"
            tally.attempt([f"--setup-only exited with {code}"] * bool(code))
    return {"timing": tr.timings("setup"), "maxrss_kb": peak_rss_kb(), **tally.as_dict()}


def environment() -> dict:
    try:
        rev = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=False,
        ).stdout.strip() or None
    except OSError:
        rev = None
    return {
        "git_revision": rev,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# the untraced run
# ---------------------------------------------------------------------------

class Journey:
    """Samples of every operation of one workload, taken round-robin.

    A round takes one sample of each long operation and several batched
    samples of each short one, in fixed order, so every metric's samples
    span the whole run."""

    def __init__(self, workload: wl.Workload, seed: int, inputs: dict, expected: dict,
                 tmp: str):
        self.w = workload
        self.seed = seed
        self.inputs = inputs
        self.expected = expected
        self.tmp = tmp
        # per operation, per kernel: the samples (sampling.Timing)
        self.setup: list[Timing] = []
        self.cold: dict[str, list[Timing]] = {}
        self.warm: dict[str, list[Timing]] = {}
        self.first: dict[str, list[Timing]] = {}
        self.steady: dict[str, list[Timing]] = {}
        #: per operation and kernel, the peak resident set of each sample child
        self.rss_kb: dict[str, list[int]] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.cache_dirs: dict[str, str] = {}  # populated by round 0's cold compiles
        self.pickled: dict[str, bytes] = {}  # uncacheable kernels, for fresh copies
        self.node_sha: dict[str, str] = {}
        self.warm_passes: dict[str, int] = {}
        self.run_plan: dict[str, tuple] = {}  # (passes per batch, samples per round)
        self.comm_bytes: dict[str, int] = {}
        self.rounds = 0
        self.children = 0
        # operations that fork workers of their own: their sample children
        # stay unpinned and their value is a median (sampling.summarize_timings)
        self.gang_compile = workload.service
        self.gang_run = workload.route.startswith("proc")

    # -- bookkeeping -------------------------------------------------------
    def _take(self, what: str, fn, pinned: bool = True):
        """One sample child running operation *what*; a child that fails
        counts as one failed operation and the run goes on.  Single-
        process samples are pinned to the CPUs in turn, so that the probe
        shares the operation's."""
        self.children += 1
        res = run_child(
            fn, pin=self.children % (os.cpu_count() or 1) if pinned else None)
        value, attempted = settle(res, what, self.problems)
        self.attempted += attempted
        if value is not None:
            self.rss_kb.setdefault(what, []).append(value["maxrss_kb"])
        return value

    def _same_program(self, shas: dict) -> None:
        """Every compile of a kernel must emit the same node programs."""
        for name, sha in shas.items():
            self.attempted += 1
            if self.node_sha.setdefault(name, sha) != sha:
                self.problems.append(f"{name}: node program differs between compiles")

    def _cold_dir(self, name: str) -> str:
        return tempfile.mkdtemp(prefix=f"cold-{name.replace('@', '-')}-", dir=self.tmp)

    # -- operations --------------------------------------------------------
    def sample_setup(self, samples: int) -> None:
        got = self._take(
            "set-up", lambda: setup_samples(self.w.name, self.seed, samples))
        if got is not None:
            self.setup += got["timing"]

    def _compile_cold(self) -> None:
        if self.w.service:
            self._service_cold()
            return
        for k in self.w.kernels:
            d = self._cold_dir(k.name)
            keep = k.name not in self.cache_dirs
            got = self._take(
                f"compile_cold {k.name}",
                lambda k=k, d=d, keep=keep: wl.compile_cold(
                    k, d, keep_kernel=keep and not k.cacheable),
            )
            if got is not None:
                self.cold.setdefault(k.name, []).extend(got["timing"][k.name])
                self._same_program(got["node_sha"])
                if "pickled" in got:
                    self.pickled[k.name] = got["pickled"]
            if got is not None and keep:
                self.cache_dirs[k.name] = d
            else:
                shutil.rmtree(d, ignore_errors=True)

    def _service_batches(self, got: dict | None, into: dict, cached: int) -> None:
        if got is None:
            return
        into.setdefault("batch", []).extend(got["timing"]["batch"])
        self._same_program(got["node_sha"])
        self.attempted += 1
        if got["cached"] != cached:
            self.problems.append(
                f"service batch: {got['cached']} tickets served from cache, "
                f"expected {cached}")

    def _service_cold(self) -> None:
        d = self._cold_dir("batch")
        got = self._take(
            "service batch (cold)",
            lambda: wl.service_batch(self.w, d), pinned=False)
        self._service_batches(got, self.cold, cached=0)
        if got is not None and "batch" not in self.cache_dirs:
            # the first cold batch's directory is the populated cache
            self.cache_dirs = {k.name: d for k in self.w.kernels} | {"batch": d}
        else:
            shutil.rmtree(d, ignore_errors=True)

    def _compile_warm(self) -> None:
        if self.w.service:
            if "batch" in self.cache_dirs:  # else no cold batch succeeded yet
                got = self._take(
                    "service batch (warm)",
                    lambda: wl.service_warm(
                        self.w, self.cache_dirs["batch"], WARM_SERVICE_PASSES))
                self._service_batches(got, self.warm, cached=len(self.w.tickets))
            return
        got = self._take(
            "compile_warm",
            lambda: wl.compile_warm(
                self.w, self.cache_dirs, self.warm_passes, WARM_BATCH_S),
        )
        if got is not None:
            self.warm_passes = got["passes"]
            for name, timings in got["timing"].items():
                self.warm.setdefault(name, []).extend(timings)

    def _run(self) -> None:
        for k in self.w.kernels:
            if k.name not in self.cache_dirs:
                continue  # its cold compile failed; already counted
            got = self._take(
                f"run {k.name}",
                lambda k=k: wl.run_sample(
                    k, self.w.route, self.inputs[k.name], self.expected[k.name],
                    self.cache_dirs[k.name], self.pickled.get(k.name),
                    self.run_plan.get(k.name), STEADY_BATCHES_PER_ROUND, STEADY_BATCH_S,
                    with_comm=k.name not in self.comm_bytes,
                ),
                pinned=not self.gang_run,
            )
            if got is None:
                continue
            self.run_plan[k.name] = tuple(got["plan"])
            self.first.setdefault(k.name, []).append(got["first"])
            self.steady.setdefault(k.name, []).extend(got["steady"])
            if "comm_bytes" in got:
                self.comm_bytes[k.name] = got["comm_bytes"]

    def round(self) -> None:
        self._compile_cold()
        self._compile_warm()
        self._run()
        self.rounds += 1


def total(samples_by_kernel: dict[str, list[Timing]], scale: float = 1.0,
          gang: bool = False) -> dict:
    """A metric over a workload: per statistic, the sum over its kernels;
    ``n`` is the smallest per-kernel sample count."""
    if not samples_by_kernel or not all(samples_by_kernel.values()):
        raise RuntimeError("an operation produced no sample at all")
    parts = [summarize_timings(s, gang) for s in samples_by_kernel.values()]
    out = {key: scale * sum(p[key] for p in parts)
           for key in ("value", "median", "p90", "wall")}
    out["n"] = min(p["n"] for p in parts)
    return out


def run_journey(args, workload: wl.Workload, tmp: str) -> dict:
    env = environment()
    inputs = set_up(workload, args.seed, tmp)
    expected, ref_problems = reference.reference_hashes(workload, inputs, args.seed)

    journey = Journey(workload, args.seed, inputs, expected, tmp)
    journey.attempted += len(workload.kernels)  # one reference per kernel
    journey.problems += ref_problems
    journey.sample_setup(QUICK_SETUP_SAMPLES if args.quick else SETUP_SAMPLES)
    t0 = time.monotonic()
    while True:
        r0 = time.monotonic()
        journey.round()
        now = time.monotonic()
        if args.quick:
            if journey.rounds >= QUICK_ROUNDS:
                break
        # another round if at least half of it fits into --seconds
        elif journey.rounds >= MIN_ROUNDS and now - t0 + (now - r0) / 2 > args.seconds:
            break
    measured_s = time.monotonic() - t0

    metrics = {
        "setup_s": total({"setup": journey.setup}),
        "compile_cold_s": total(journey.cold, gang=journey.gang_compile),
        "compile_warm_ms": total(journey.warm, 1e3),
        "first_run_s": total(journey.first, gang=journey.gang_run),
        "run_ms": total(journey.steady, 1e3, gang=journey.gang_run),
    }
    metrics["source_to_result_s"] = {
        key: metrics["compile_cold_s"][key] + metrics["first_run_s"][key]
        for key in ("value", "median", "p90", "wall")
    } | {"n": min(metrics["compile_cold_s"]["n"], metrics["first_run_s"]["n"])}
    # the journey's most memory-hungry operation: per operation the median
    # over its sample children (how many numpy temporaries four rank threads
    # hold at once differs from child to child, and the largest of a run's
    # few such readings repeats worse than their median), and the runner itself
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {
        "value": max([own_kb] + [statistics.median(v) for v in journey.rss_kb.values()])
        / 1024.0,
        "max": max([own_kb] + [max(v) for v in journey.rss_kb.values()]) / 1024.0,
        "n": min(len(v) for v in journey.rss_kb.values()),
    }
    journey.attempted += 1
    if len(journey.comm_bytes) != len(workload.kernels):
        journey.problems.append("comm_bytes: not every kernel completed a traced pass")

    # how busy the host was: the calibration loop's slowdown under every
    # timed sample of the run (1.0 = the nominal, uncontended host)
    slowdowns = [t.slowdown for t in journey.setup] + [
        t.slowdown
        for op in (journey.cold, journey.warm, journey.first, journey.steady)
        for samples in op.values() for t in samples
    ]
    env.update(
        loadavg_end=list(os.getloadavg()),
        spin_p10_ms=fast_decile(slowdowns) * PROBE_NOMINAL_S * 1e3,
        spin_excess=sum(slowdowns) / len(slowdowns),
    )
    return {
        "schema": 1,
        "workload": workload.name,
        "seed": args.seed,
        "trace": 0,
        "rounds": journey.rounds,
        "measured_s": measured_s,
        "batch_passes": {
            "compile_warm": journey.warm_passes,
            "run": {k: plan[0] for k, plan in journey.run_plan.items()},
        },
        "env": env,
        "end_to_end": {
            name: dict(metrics[name], unit=unit) for name, unit in END_TO_END
        },
        # exact, but 0 on a workload whose kernels need no messages, which a
        # gated metric may never be; the traced run reports it as comm.bytes
        "comm_bytes": sum(journey.comm_bytes.values()),
        "per_kernel": {
            op: {k: dict(summarize_timings(s, gang), samples=[list(t) for t in s])
                 for k, s in samples.items()}
            for op, samples, gang in (
                ("setup_s", {"setup": journey.setup}, False),
                ("compile_cold_s", journey.cold, journey.gang_compile),
                ("compile_warm_s", journey.warm, False),
                ("first_run_s", journey.first, journey.gang_run),
                ("run_s", journey.steady, journey.gang_run),
            )
        },
        "child_rss_kb": journey.rss_kb,
        "attempted": journey.attempted,
        "problems": journey.problems,
    }


# ---------------------------------------------------------------------------
# hygiene and reporting
# ---------------------------------------------------------------------------

def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_px")}
    except OSError:
        return set()


def files_outside_out() -> set[tuple]:
    """Every source file of the program and of the benchmark, with size
    and mtime: a run may write under ``bench/out`` only (and bytecode)."""
    seen = set()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [
                d for d in dirnames
                if d != "__pycache__" and os.path.join(dirpath, d) != OUT_DIR
            ]
            for name in filenames:
                path = os.path.join(dirpath, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                seen.add((path, st.st_size, st.st_mtime_ns))
    return seen


def hygiene_problems(tmp: str, shm_before: set[str], files_before: set[tuple]) -> list[str]:
    """After the run: no child, no shared-memory segment, no temp
    directory, nothing written outside ``bench/out``, and no thread ever
    started in the runner.  Five probes, tallied as five operations."""
    import multiprocessing
    import threading

    problems = []
    touched = files_outside_out() ^ files_before
    if touched:
        problems.append(
            f"files changed outside bench/out: {sorted({t[0] for t in touched})[:5]}")
    if multiprocessing.active_children():
        problems.append(f"runner has live children: {multiprocessing.active_children()}")
    try:
        os.waitpid(-1, os.WNOHANG)
        problems.append("runner has an unreaped child")
    except ChildProcessError:
        pass
    leaked = shm_segments() - shm_before
    if leaked:
        problems.append(f"leaked shared-memory segments: {sorted(leaked)}")
    if os.path.exists(tmp):
        problems.append(f"temp directory {tmp} not removed")
    if threading.active_count() != 1:
        problems.append(f"runner started threads: {threading.enumerate()}")
    return problems


def print_report(result: dict, section: str) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"rounds={result.get('rounds', '-')}")
    for name, m in result[section].items():
        extra = ""
        if "median" in m:
            extra = f"  median={m['median']:.6g} p90={m['p90']:.6g}"
        if "wall" in m:
            extra += f" wall={m['wall']:.6g}"
        print(f"{name:28s} {m['value']:>14.6g} {m['unit']:<6s}{extra}  n={m.get('n', 1)}")
    if "comm_bytes" in result:
        print(f"{'comm_bytes':28s} {result['comm_bytes']:>14d} B       (exact, not gated)")
    print(f"{'fail_share':28s} {result['fail_share']:>14.6g} ratio "
          f" ({result['failed']} of {result['attempted']})")
    for p in result["problems"]:
        print(f"PROBLEM: {p}")


def main(argv=None) -> int:
    bench = load_benchmark_json()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]),
                    help="how long the rounds measure (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="1: the separate traced run that reports per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help=f"smoke run: {QUICK_ROUNDS} rounds, {QUICK_SETUP_SAMPLES} set-up samples")
    ap.add_argument("--out", default=None, help="where to write the full result JSON")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up (inputs, plan cache) and exit; timed for setup_s")
    ap.add_argument("--count-only", type=int, default=None, metavar="KERNEL",
                    help="print the exact counts of one cold compile of that kernel "
                         "and exit; the traced run starts one such interpreter per kernel")
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate bench/expected.json from the interpreter")
    args = ap.parse_args(argv)

    if args.write_expected:
        reference.write_expected(list(wl.WORKLOADS.values()), wl.DEFAULT_SEED)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    workload = wl.WORKLOADS[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    shm_before = shm_segments()
    files_before = files_outside_out()
    try:
        if args.setup_only:
            set_up(workload, args.seed, tmp)
            return 0
        if args.count_only is not None:
            import layers

            print(json.dumps(
                layers.profile_kernel(workload, workload.kernels[args.count_only])))
            return 0
        if args.trace:
            import layers

            env = environment()
            result = layers.run_traced(
                workload, args.seed, tmp, set_up(workload, args.seed, tmp),
                os.path.join(OUT_DIR, f"trace-{workload.name}-{args.seed}.jsonl"))
            env["loadavg_end"] = list(os.getloadavg())
            result.update(schema=1, workload=workload.name, seed=args.seed,
                          trace=1, env=env)
            section = "per_layer"
        else:
            result = run_journey(args, workload, tmp)
            section = "end_to_end"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result["attempted"] += 5
    result["problems"] += hygiene_problems(tmp, shm_before, files_before)
    result["failed"] = len(result["problems"])
    result["fail_share"] = result["failed"] / result["attempted"]
    result["correct"] = result["failed"] == 0

    out = args.out or os.path.join(
        OUT_DIR, f"result-{workload.name}-{args.seed}{'-trace' if args.trace else ''}.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print_report(result, section)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result[section].items()
        },
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
