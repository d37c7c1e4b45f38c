"""Command-line entry: ``python -m repro.eval <target>``.

Targets: table-8.1, table-8.2, figure-8.1 .. figure-8.4, diffstats,
ablations, chaos, check, bench, fuzz, proc.  See DESIGN.md's
per-experiment index, "Fault model & chaos harness", "Static SPMD
verification" and "Real-process execution & supervision".
"""

from __future__ import annotations

import argparse
import sys

from .diffstats import diff_stats, strip_hpf
from .spacetime import spacetime_figure
from .tables import format_table, table_8_1, table_8_2


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of numbers, got {text!r}"
        ) from None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro.eval")
    ap.add_argument(
        "target",
        choices=["table-8.1", "table-8.2", "figure-8.1", "figure-8.2",
                 "figure-8.3", "figure-8.4", "diffstats", "ablations", "phases",
                 "chaos", "check", "bench", "fuzz", "proc", "serve", "cost",
                 "profile"],
    )
    ap.add_argument("--classes", default="A,B", help="comma list of NAS classes")
    ap.add_argument("--procs", default="4,9,16,25", help="comma list of processor counts")
    ap.add_argument("--nprocs", type=int, default=None,
                    help="processors (default 16 for figures, phases, "
                         "ablations and profile; 4, the class-S grid, for "
                         "chaos)")
    ap.add_argument("--width", type=int, default=100, help="ASCII figure width")
    ap.add_argument("--json", action="store_true", help="emit figure trace as JSON")
    ap.add_argument("--bench", default="sp", choices=["sp", "bt"], help="chaos benchmark")
    ap.add_argument("--strategy", default="dhpf", choices=["dhpf", "handmpi"],
                    help="chaos parallel strategy")
    ap.add_argument("--drop", default=(0.0, 0.05, 0.1, 0.25), type=_float_list,
                    help="chaos: comma list of message drop rates")
    ap.add_argument("--crash-frac", default=(0.5,), type=_float_list,
                    help="chaos: comma list of crash times as fractions of the "
                         "fault-free makespan (empty to skip the crash sweep)")
    ap.add_argument("--seed", type=int, default=1, help="chaos fault-plan seed")
    ap.add_argument("--check-target", default="all",
                    help="check: one named target, or 'all'")
    ap.add_argument("--mutate", default=None,
                    help="check: seed one named compiler bug (or 'all') and "
                         "report whether the verifier catches it")
    ap.add_argument("--min-severity", default="info",
                    choices=["info", "warn", "error"],
                    help="check: report verbosity floor")
    ap.add_argument("--bench-out", default=None, metavar="FILE",
                    help="bench: write results as JSON to FILE")
    ap.add_argument("--repeat", type=int, default=1,
                    help="bench: timing repetitions (best-of)")
    ap.add_argument("--min-speedup", type=float, default=None, metavar="X",
                    help="bench: fail unless every kernel's vector backend is "
                         ">= X times faster than scalar (CI guard)")
    ap.add_argument("--bench-kernel", default=None, metavar="SUBSTR",
                    help="bench: only kernels whose name contains SUBSTR "
                         "(skips the dhpf and class-W phases)")
    ap.add_argument("--skip-dhpf", action="store_true",
                    help="bench: skip the functional dHPF class-S runs")
    ap.add_argument("--skip-class-w", action="store_true",
                    help="bench: skip the class-W vector smoke")
    ap.add_argument("--seeds", type=int, default=None,
                    help="fuzz: number of random programs to generate "
                         "(default 300); chaos --service: number of seeded "
                         "fault scenarios (default 25)")
    ap.add_argument("--start-seed", type=int, default=0,
                    help="fuzz: first seed (corpus is deterministic per seed)")
    ap.add_argument("--no-shrink", action="store_true",
                    help="fuzz: report failures unshrunk (faster)")
    ap.add_argument("--process", action="store_true",
                    help="fuzz: add the real-process executor to the "
                         "differential backend matrix")
    ap.add_argument("--real-process", action="store_true",
                    help="chaos: SIGKILL/SIGSTOP live workers of the "
                         "real-process backend instead of simulated faults")
    ap.add_argument("--service", action="store_true",
                    help="chaos: fault the compile service instead (seeded "
                         "worker kills/stalls, cache corruption, disk "
                         "faults, concurrent writers)")
    ap.add_argument("--timeout", type=float, default=None, metavar="S",
                    help="overall wall-clock budget per run in host seconds "
                         "(chaos/proc; typed ExecutorTimeout on expiry)")
    ap.add_argument("--smoke", action="store_true",
                    help="proc: CI subset (one paper kernel + one NAS "
                         "class-S kernel, vector backend)")
    ap.add_argument("--skip-scalar", action="store_true",
                    help="proc: verify the vector backend only")
    ap.add_argument("--cost-kernel", default=None, metavar="SUBSTR",
                    help="cost: only kernels whose name contains SUBSTR")
    ap.add_argument("--no-validate", action="store_true",
                    help="cost: skip the traced VM runs (report static "
                         "counts only)")
    ap.add_argument("--no-curve", action="store_true",
                    help="cost: skip the 2..25-rank predicted scaling sweep")
    cache_group = ap.add_mutually_exclusive_group()
    cache_group.add_argument("--cold", action="store_true",
                             help="bench: time compiles as plan-cache misses "
                                  "against a fresh hermetic cache")
    cache_group.add_argument("--warm", action="store_true",
                             help="bench: time compiles as plan-cache hits "
                                  "(an untimed populate pass runs first)")
    ap.add_argument("--jobs", default=None, metavar="FILE",
                    help="serve: JSON file with compile jobs (a list of "
                         "{source|kernel, nprocs, params, backend, strict, "
                         "label} objects)")
    ap.add_argument("--serve-out", default=None, metavar="FILE",
                    help="serve: write per-job results as JSON to FILE")
    ap.add_argument("--workers", type=int, default=4,
                    help="serve: compile worker processes in the supervised "
                         "pool (retry/backoff, quarantine, bounded queue, "
                         "graceful SIGTERM drain)")
    ap.add_argument("--prewarm", default=None, choices=["nas"],
                    help="serve: compile the built-in NAS/paper kernel jobs "
                         "(declared grids plus a wildcard-grid rank sweep "
                         "over --procs) instead of reading --jobs")
    ap.add_argument("--profile-class", default="W", choices=["S", "W", "A", "B"],
                    help="profile: NAS class sizing the compiled kernel")
    args = ap.parse_args(argv)
    if args.nprocs is None:
        args.nprocs = 4 if args.target == "chaos" else 16

    classes = tuple(args.classes.split(","))
    procs = tuple(int(p) for p in args.procs.split(","))

    if args.target == "table-8.1":
        print(format_table(
            "Table 8.1 — SP: hand-written MPI vs dHPF vs pghpf (model: IBM SP2)",
            table_8_1(classes, procs),
        ))
    elif args.target == "table-8.2":
        print(format_table(
            "Table 8.2 — BT: hand-written MPI vs dHPF vs pghpf (model: IBM SP2)",
            table_8_2(classes, procs),
        ))
    elif args.target.startswith("figure-"):
        fid = args.target.split("-", 1)[1]
        fig = spacetime_figure(fid, nprocs=args.nprocs)
        if args.json:
            print(fig.to_json())
        else:
            print(fig.ascii(args.width))
            print(f"\nmean idle fraction: {fig.mean_idle():.2%}")
    elif args.target == "phases":
        from .phases import format_phase_table, phase_breakdown

        print(format_phase_table([
            phase_breakdown("sp", "handmpi", args.nprocs),
            phase_breakdown("sp", "dhpf", args.nprocs),
            phase_breakdown("sp", "pgi", args.nprocs),
        ]))
    elif args.target == "chaos":
        from .chaos import crash_sweep, drop_sweep, format_chaos

        if args.service:
            from ..compile.chaos import format_service_chaos, run_service_chaos

            report = run_service_chaos(
                seeds=args.seeds if args.seeds is not None else 25,
                start_seed=args.start_seed,
                progress=lambda msg: print(f"  [chaos] {msg}", flush=True),
            )
            print(format_service_chaos(report))
            return 0 if report.ok else 1
        if args.real_process:
            from .chaos import format_proc_chaos, run_proc_chaos

            results = [
                run_proc_chaos(bench=args.bench, nprocs=args.nprocs, kind=kind,
                               timeout=args.timeout or 300.0)
                for kind in ("kill", "stall")
            ]
            print(format_proc_chaos(results))
            return 0 if all(r.ok for r in results) else 1
        functional = args.strategy == "dhpf"
        kw = dict(bench=args.bench, strategy=args.strategy,
                  nprocs=args.nprocs, functional=functional,
                  timeout=args.timeout)
        print(format_chaos(
            drop_sweep(args.drop, seed=args.seed, **kw),
            f"Chaos: message-drop sweep ({args.bench}/{args.strategy}, "
            f"{args.nprocs} ranks, seed {args.seed})",
        ))
        fracs = args.crash_frac
        if fracs:
            print()
            print(format_chaos(
                crash_sweep(fracs, seed=args.seed, **kw),
                f"Chaos: single-rank crash + checkpoint/restart "
                f"(crash rank 1 at makespan fractions {list(fracs)})",
            ))
    elif args.target == "ablations":
        from .ablations import analysis_ablations, format_ablations, schedule_ablations

        print(format_ablations(schedule_ablations(args.nprocs), analysis_ablations()))
    elif args.target == "check":
        from ..check.diagnostics import Severity
        from ..check.mutate import MUTATIONS, run_mutation
        from ..check.targets import available_targets

        min_sev = Severity[args.min_severity.upper()]
        failed = False
        if args.mutate is not None:
            names = list(MUTATIONS) if args.mutate == "all" else [args.mutate]
            for name in names:
                if name not in MUTATIONS:
                    print(f"unknown mutation {name!r}; known: {', '.join(MUTATIONS)}")
                    return 2
                result = run_mutation(name)
                verdict = "CAUGHT" if result.caught else "MISSED"
                print(f"mutation {name} ({result.description})")
                print(f"  expected {result.expect_code}: {verdict}")
                print("  " + result.report.format(min_sev).replace("\n", "\n  "))
                failed |= not result.caught
        else:
            targets = available_targets()
            names = list(targets) if args.check_target == "all" else [args.check_target]
            for name in names:
                if name not in targets:
                    print(f"unknown target {name!r}; known: {', '.join(targets)}")
                    return 2
                report = targets[name]()
                print(report.format(min_sev))
                failed |= not report.ok
        return 1 if failed else 0
    elif args.target == "diffstats":
        from ..codegen import CodegenUnsupported, compile_kernel
        from ..isets import cache_stats, reset_caches
        from ..nas import kernels

        print("Kernel line-change accounting (§8.1 methodology):")
        for name, src in kernels.PAPER_KERNELS.items():
            serial = strip_hpf(src)
            st = diff_stats(serial, src)
            print(
                f"  {name:15s}: {st.modified:3d} of {st.total_serial_lines:3d} lines "
                f"({st.fraction:5.1%}), {st.directive_lines} directive lines"
            )
        print("paper: SP 147/3152 (4.7%), BT 226/3813 (5.9%)")
        # compile the kernels once to exercise — and then report — the iset
        # operation caches (hash-consed constraints + emptiness memo) and the
        # per-compilation resource budget
        from ..isets import IsetBudget

        import tempfile

        from ..compile import PlanCache, PlanCacheConfig, use_cache

        reset_caches()
        compiles = (
            ("lhsy", kernels.LHSY_SP, 4, {"n": 17}),
            ("compute_rhs", kernels.COMPUTE_RHS_BT, 8, {"n": 13}),
            ("exact_rhs", kernels.EXACT_RHS_SP, 4, {"n": 17}),
        )
        budgets: list[tuple[str, IsetBudget]] = []
        plan_cache = PlanCache(PlanCacheConfig(
            directory=tempfile.mkdtemp(prefix="repro-diffstats-plans-")
        ))
        from ..isets import profiled

        with use_cache(plan_cache):
            with profiled("diffstats compiles (budgeted, cache-bypassing)") as prof:
                for name, src, np_, params in compiles:
                    budget = IsetBudget()
                    budgets.append((name, budget))
                    try:
                        compile_kernel(src, nprocs=np_, params=params, budget=budget)
                    except CodegenUnsupported:
                        pass
            # the budgeted compiles above bypass the cache (an explicit
            # budget is observing analysis cost), so run one cold
            # populate pass, then two warm passes: once against the
            # in-process LRU, once (LRU dropped) against the
            # self-validating disk tier
            for _pass in range(3):
                if _pass == 2:
                    plan_cache.clear_lru()
                for name, src, np_, params in compiles:
                    try:
                        compile_kernel(src, nprocs=np_, params=params)
                    except CodegenUnsupported:
                        pass
        c = cache_stats().as_dict()
        print("\niset operation caches (over the three compiles above):")
        print(
            f"  constraint interning: {c['constraint_hits']} hits / "
            f"{c['constraint_misses']} misses ({c['constraint_hit_rate']:.1%}), "
            f"{c['constraint_cross_hits']} cross-kernel"
        )
        print(
            f"  emptiness memo:       {c['empty_hits']} hits / "
            f"{c['empty_misses']} misses ({c['empty_hit_rate']:.1%}), "
            f"{c['empty_cross_hits']} cross-kernel, "
            f"{c['empty_fast']} interval fast-path"
        )
        print(
            f"  subsumption memo:     {c['subsume_hits']} hits / "
            f"{c['subsume_misses']} misses ({c['subsume_hit_rate']:.1%})"
        )
        print(
            f"  enumeration:          {c['enum_fast']} box fast-path / "
            f"{c['enum_scan']} lattice scans"
        )
        print("\nper-phase compile profile (wall seconds + counter deltas):")
        print("  " + prof.report().replace("\n", "\n  "))
        # counters reset between accounting stages so each section is
        # deterministic in isolation (the traced run below re-derives its
        # plan against warm caches otherwise)
        reset_caches()
        print("\niset resource budgets (weighted ops / peak disjuncts):")
        for name, budget in budgets:
            b = budget.as_dict()
            tripped = b["budget_tripped"] or "no"
            print(
                f"  {name:15s}: ops {b['budget_ops']:6d} / {b['budget_max_ops']}, "
                f"peak disjuncts {b['budget_peak_disjuncts']:3d} / "
                f"{b['budget_max_disjuncts']}, tripped: {tripped}"
            )
        # per-rank cumulative communication counters of one traced run —
        # the measured side of the static cost analyzer's exact-match
        # contract (see `python -m repro.eval cost`)
        from ..runtime.sim import VirtualMachine
        from .bench import _seed_init, kernel_specs

        spec = next(s for s in kernel_specs() if "fig4.2" in s.name)
        ck = compile_kernel(spec.source, nprocs=spec.nprocs, params=spec.params)
        vm = VirtualMachine(spec.nprocs, record_trace=True)
        ck.run(spec.scalars, init=_seed_init(ck, spec.seed_bias), vm=vm)
        print(f"\nper-rank communication counters ({spec.name}, traced run):")
        for st in vm.trace.comm_stats_all():
            print(
                f"  rank {st.rank}: sent {st.sent_messages:3d} msg / "
                f"{st.sent_bytes:6d} B, recv {st.recv_messages:3d} msg / "
                f"{st.recv_bytes:6d} B"
            )
        print(
            f"  total: {vm.trace.total_messages()} messages, "
            f"{vm.trace.total_bytes()} bytes"
        )
        p = plan_cache.as_dict()
        print("\nplan cache (hermetic; cold populate + LRU and disk warm passes):")
        print(
            f"  hits:      {p['hits']} ({p['lru_hits']} lru tier / "
            f"{p['disk_hits']} disk tier)"
        )
        print(f"  misses:    {p['misses']}   puts: {p['puts']}")
        print(
            f"  evictions: {p['lru_evictions']} lru / {p['disk_evictions']} disk / "
            f"{p['corrupt_evictions']} corrupt   io errors: {p['io_errors']}"
        )
        print(
            f"  on disk:   {p['disk_entries']} entries, "
            f"{p['bytes_on_disk']} bytes"
        )
        # the compile-service pool over the same hermetic cache: a warm
        # batch resolves at submission (admission-free, no worker charged)
        from ..compile.driver import CompileJob
        from ..compile.pool import CompilePool, PoolConfig

        pool_jobs = [
            CompileJob(source=src, nprocs=np_, params=params, label=name)
            for name, src, np_, params in compiles
        ]
        with CompilePool(
            PoolConfig(workers=2), cache=plan_cache,
        ) as pool:
            pool.run_batch(pool_jobs)
            s = pool.stats
        print("\ncompile pool (same cache; one warm batch):")
        print(
            f"  submitted: {s.submitted}   warm hits: {s.warm_hits}   "
            f"coalesced: {s.coalesced}   compiled: {s.completed}"
        )
        print(
            f"  queue:     depth {s.queue_depth}, peak {s.peak_queue_depth}"
            f"   rejected: {s.rejected}   cancelled: {s.cancelled}"
        )
        print(
            f"  failures:  {s.failed} failed / {s.retries} retries / "
            f"{s.crashes} crashes / {s.stalls} stalls / "
            f"{s.timeouts} timeouts / {s.quarantined} quarantined "
            f"({s.quarantine_rejections} fast-fail rejections)"
        )
        print(f"  workers:   {s.forks} forks, {s.respawns} respawns")
    elif args.target == "cost":
        from .cost import run_cost

        text, ok = run_cost(
            only=args.cost_kernel,
            validate=not args.no_validate,
            curve=not args.no_curve,
            progress=lambda msg: print(f"  [cost] {msg}", flush=True),
        )
        print(text)
        if not ok:
            print("COST VALIDATION FAILED: static counts diverge from the "
                  "fault-free trace")
            return 1
    elif args.target == "fuzz":
        from .fuzz import run_fuzz

        result = run_fuzz(
            args.seeds if args.seeds is not None else 300,
            start_seed=args.start_seed,
            progress=lambda msg: print(f"  [fuzz] {msg}", flush=True),
            do_shrink=not args.no_shrink,
            process=args.process,
        )
        print(result.summary())
        return 0 if result.passed else 1
    elif args.target == "proc":
        from .procbench import format_proc, run_proc_verify

        report = run_proc_verify(
            only=args.bench_kernel,
            backends=("vector",) if args.skip_scalar else ("vector", "scalar"),
            smoke=args.smoke,
            timeout=args.timeout or 300.0,
            progress=lambda msg: print(f"  [proc] {msg}", flush=True),
        )
        print(format_proc(report))
        return 0 if report.ok else 1
    elif args.target == "profile":
        import tempfile

        from ..codegen import compile_kernel
        from ..compile import PlanCache, PlanCacheConfig, use_cache
        from ..isets import profiled, reset_caches
        from ..nas import kernels as nas_kernels
        from ..nas.classes import CLASSES

        ncls = CLASSES[args.profile_class]
        n = ncls.problem_size
        base = (nas_kernels.COMPUTE_RHS_SP if args.bench == "sp"
                else nas_kernels.COMPUTE_RHS_BT)
        src = nas_kernels.scaled(base)
        params = {"n": n, "nx": n}
        fanout = 9 if args.bench == "sp" else 27
        if fanout == args.nprocs:
            fanout = 4 if args.bench == "sp" else 8
        cache = PlanCache(PlanCacheConfig(
            directory=tempfile.mkdtemp(prefix="repro-profile-plans-")
        ))
        reset_caches()
        label = f"{args.bench} compute_rhs class {ncls.name}"
        with use_cache(cache):
            with profiled(f"{label} @{args.nprocs} ranks (cold)") as cold:
                compile_kernel(src, nprocs=args.nprocs, params=params)
            print(cold.report())
            # The selection tier is keyed without nprocs: a second rank
            # count pays only specialization (comm analysis) + codegen.
            with profiled(
                f"{label} @{fanout} ranks (selection-tier hit)"
            ) as warm:
                compile_kernel(src, nprocs=fanout, params=params)
            print()
            print(warm.report())
    elif args.target == "serve":
        import json
        import signal
        import threading

        from ..compile.driver import CompileJob, prewarm_jobs
        from ..compile.pool import CompilePool, PoolConfig
        from ..nas import kernels as nas_kernels
        from .bench import atomic_write_text

        if args.prewarm:
            specs = [
                {
                    "source": j.source, "nprocs": j.nprocs, "params": j.params,
                    "backend": j.backend, "strict": j.strict, "label": j.label,
                }
                for j in prewarm_jobs(args.prewarm, procs=procs)
            ]
        elif not args.jobs:
            print("serve needs --jobs FILE (a JSON list of job objects; "
                  "each has source or kernel, plus nprocs/params/backend/"
                  "strict/label) or --prewarm nas")
            return 2
        else:
            with open(args.jobs) as fh:
                specs = json.load(fh)
        jobs = []
        for i, spec in enumerate(specs):
            source = spec.get("source")
            if source is None:
                kname = spec.get("kernel")
                source = getattr(nas_kernels, kname, None)
                if source is None:
                    print(f"job {i}: no source and unknown kernel {kname!r}")
                    return 2
            jobs.append(CompileJob(
                source=source,
                nprocs=int(spec.get("nprocs", 4)),
                params=spec.get("params") or {},
                backend=spec.get("backend", "vector"),
                strict=bool(spec.get("strict", True)),
                label=spec.get("label") or spec.get("kernel") or f"job-{i}",
                timeout=spec.get("timeout"),
            ))

        def _report(out):
            status = "ok" if out.ok else f"FAILED ({type(out.error).__name__})"
            how = "cache" if out.cached else "compiled"
            print(f"  [serve] {out.job.describe()}: {status} "
                  f"[{how}, {out.elapsed:.2f}s]", flush=True)

        drainer: list = []

        def _on_term(signum, frame):
            # graceful drain: stop admitting, finish in-flight work,
            # shed the still-queued tail with typed CompileCancelled
            # failures, reap every worker.  run_batch's waiters see
            # the resolutions and return; cancelled jobs count as
            # failures in the exit code.
            print("  [serve] SIGTERM: draining (finishing in-flight, "
                  "cancelling queued)", flush=True)
            t = threading.Thread(
                target=pool.shutdown,
                kwargs={"wait": True, "cancel_queued": True},
                daemon=True,
            )
            t.start()
            drainer.append(t)

        with CompilePool(PoolConfig(
            workers=args.workers, timeout=args.timeout,
        )) as pool:
            prev = signal.signal(signal.SIGTERM, _on_term)
            try:
                outcomes = pool.run_batch(jobs, progress=_report)
            finally:
                signal.signal(signal.SIGTERM, prev)
                if drainer:
                    drainer[0].join(timeout=60.0)
        s = pool.stats
        print(f"  [serve] pool: {s.forks} forks, {s.warm_hits} warm, "
              f"{s.coalesced} coalesced, {s.retries} retries, "
              f"{s.quarantined} quarantined, "
              f"peak queue {s.peak_queue_depth}", flush=True)
        rows = []
        for out in outcomes:
            rows.append({
                "label": out.job.describe(),
                "ok": out.ok,
                "cached": out.cached,
                "shared": out.shared,
                "elapsed_s": round(out.elapsed, 3),
                "error": None if out.error is None else {
                    "type": type(out.error).__name__,
                    "message": str(out.error),
                },
                "diagnostics": len(out.sink.diagnostics),
            })
        if args.serve_out:
            atomic_write_text(
                args.serve_out,
                json.dumps({"jobs": rows}, indent=2, sort_keys=True) + "\n",
            )
            print(f"wrote {args.serve_out}")
        return 0 if all(out.ok for out in outcomes) else 1
    elif args.target == "bench":
        from .bench import check_guards, run_bench, write_json

        report = run_bench(
            repeat=args.repeat,
            only=args.bench_kernel,
            skip_dhpf=args.skip_dhpf,
            skip_class_w=args.skip_class_w,
            progress=lambda msg: print(f"  [bench] {msg}", flush=True),
            cache_mode="cold" if args.cold else "warm" if args.warm else "off",
        )
        print(report.format())
        if args.bench_out:
            write_json(report, args.bench_out)
            print(f"\nwrote {args.bench_out}")
        if args.min_speedup is not None:
            problems = check_guards(report, args.min_speedup)
            if problems:
                for p in problems:
                    print(f"BENCH GUARD FAILED: {p}")
                return 1
            print(f"bench guard passed (all speedups >= {args.min_speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
