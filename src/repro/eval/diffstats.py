"""§8.1's "minimal restructuring" claim: ~5% of lines modified.

The paper: SP changed 147 of 3152 lines (4.7%), BT 226 of 3813 (5.9%) —
mostly added directives, removed cache padding, localized COMMON temps, and
a few interchanged loops.  We reproduce the *measurement methodology* on
our kernel sources: given a serial kernel and its HPF version, count the
changed/added/removed code lines (directive lines count as additions) and
report the fraction.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass

_DIRECTIVE_RE = re.compile(r"^\s*(chpf\$|!hpf\$|c\$hpf)", re.IGNORECASE)


def strip_hpf(source: str) -> str:
    """The serial version of an HPF kernel: directive lines removed."""
    return "\n".join(
        l for l in source.splitlines() if not _DIRECTIVE_RE.match(l)
    )


@dataclass
class DiffStats:
    total_serial_lines: int
    added: int
    removed: int
    directive_lines: int

    @property
    def modified(self) -> int:
        return self.added + self.removed

    @property
    def fraction(self) -> float:
        if self.total_serial_lines == 0:
            return 0.0
        return self.modified / self.total_serial_lines


def diff_stats(serial_source: str, hpf_source: str) -> DiffStats:
    """Count changed lines between a serial and an HPF kernel version."""
    a = [l for l in serial_source.splitlines() if l.strip()]
    b = [l for l in hpf_source.splitlines() if l.strip()]
    directive = sum(1 for l in b if _DIRECTIVE_RE.match(l))
    added = removed = 0
    for line in difflib.unified_diff(a, b, lineterm="", n=0):
        if line.startswith("+++") or line.startswith("---") or line.startswith("@@"):
            continue
        if line.startswith("+"):
            added += 1
        elif line.startswith("-"):
            removed += 1
    return DiffStats(len(a), added, removed, directive)


#: (budget-table label, ``repro.nas.specs`` key) of the instrumented compiles
COMPILES = (("lhsy", "fig4.1"), ("compute_rhs", "fig4.2"), ("exact_rhs", "exact-rhs"))


def register(sub) -> None:
    """Add the ``diffstats`` subcommand."""
    sub.add_parser(
        "diffstats", help="§8.1 line accounting plus compile-side counters"
    ).set_defaults(run=run)


def run(args) -> int:
    """Print the §8.1 line accounting, then the iset, budget, traced-run,
    plan-cache and pool counters of three instrumented compiles — all
    against one throw-away plan cache."""
    from ..codegen import CodegenUnsupported, compile_kernel
    from ..compile import scratch_cache
    from ..compile.driver import CompileJob
    from ..compile.pool import CompilePool, PoolConfig
    from ..isets import IsetBudget, cache_stats, profiled, reset_caches
    from ..nas import kernels
    from ..nas.specs import kernel_spec, seed_init
    from ..runtime.sim import VirtualMachine

    print("Kernel line-change accounting (§8.1 methodology):")
    for name, src in kernels.PAPER_KERNELS.items():
        st = diff_stats(strip_hpf(src), src)
        print(
            f"  {name:15s}: {st.modified:3d} of {st.total_serial_lines:3d} lines "
            f"({st.fraction:5.1%}), {st.directive_lines} directive lines"
        )
    print("paper: SP 147/3152 (4.7%), BT 226/3813 (5.9%)")
    # compile the kernels once to exercise — and then report — the iset
    # operation caches (hash-consed constraints + emptiness memo) and the
    # per-compilation resource budget
    reset_caches()
    compiles = [(label, kernel_spec(key)) for label, key in COMPILES]
    budgets: list[tuple[str, IsetBudget]] = []
    with scratch_cache() as plan_cache:
        with profiled("diffstats compiles (budgeted, cache-bypassing)") as prof:
            for label, spec in compiles:
                budget = IsetBudget()
                budgets.append((label, budget))
                try:
                    compile_kernel(spec.source, nprocs=spec.nprocs,
                                   params=spec.params, budget=budget)
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
            for _label, spec in compiles:
                try:
                    spec.compile()
                except CodegenUnsupported:
                    pass
        p = plan_cache.as_dict()  # before the traced run and the pool hit it
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
        for label, budget in budgets:
            b = budget.as_dict()
            tripped = b["budget_tripped"] or "no"
            print(
                f"  {label:15s}: ops {b['budget_ops']:6d} / {b['budget_max_ops']}, "
                f"peak disjuncts {b['budget_peak_disjuncts']:3d} / "
                f"{b['budget_max_disjuncts']}, tripped: {tripped}"
            )
        # per-rank cumulative communication counters of one traced run —
        # the measured side of the static cost analyzer's exact-match
        # contract (see `python -m repro.eval cost`)
        spec = kernel_spec("fig4.2")
        ck = spec.compile()
        vm = VirtualMachine(spec.nprocs, record_trace=True)
        ck.run(spec.scalars, init=seed_init(ck, spec.seed_bias), vm=vm)
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
        pool_jobs = [
            CompileJob(source=spec.source, nprocs=spec.nprocs,
                       params=spec.params, label=label)
            for label, spec in compiles
        ]
        with CompilePool(PoolConfig(workers=2), cache=plan_cache) as pool:
            pool.run_batch(pool_jobs)
            s = pool.stats
    print("\ncompile pool (same cache; one warm batch):")
    print(
        f"  submitted: {s.submitted}   warm hits: {s.warm_hits}   "
        f"coalesced: {s.coalesced}   compiled: {s.completed}"
    )
    print(
        f"  selection: {s.selects} selected by workers, "
        f"{s.selections_shared} shared"
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
    return 0
