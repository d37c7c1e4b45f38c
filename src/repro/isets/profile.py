"""Compile-time profiling: phase-scoped wall timers with iset-counter
attribution.

The compiler's cost is dominated by symbolic set work (interning,
emptiness proofs, point enumeration), so a useful profile must say *which
phase* spent the sets, not just how many were spent overall.  This module
keeps a stack of named phases; entering a phase snapshots the process-wide
:data:`~repro.isets.core.CACHE_STATS` counters and leaving attributes the
delta (inclusive of children) to that phase.  Phases with the same name
under the same parent accumulate, so per-nest loops collapse into one row.

The profiler is off by default and costs one global ``None`` check per
:func:`phase` entry when inactive, so instrumentation can stay in the hot
paths permanently.  Typical use::

    with profiled("compile") as prof:
        compile_kernel(...)
    print(prof.report())

``python -m repro.eval profile`` drives this over the benchmark kernels,
and ``diffstats`` includes the per-phase table for its instrumented
compiles.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from .core import CACHE_STATS, pool_info

#: counters worth a column in the report (subset of CacheStats slots)
_REPORT_COUNTERS = (
    "constraint_misses",
    "empty_misses",
    "empty_fast",
    "enum_fast",
    "enum_scan",
)


class PhaseStats:
    """One node of the phase tree: inclusive wall time + counter deltas."""

    __slots__ = ("name", "seconds", "calls", "counters", "children", "_t0", "_snap")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.calls = 0
        self.counters: dict[str, int] = {}
        self.children: dict[str, PhaseStats] = {}
        self._t0 = 0.0
        self._snap: dict[str, int] = {}

    def _enter(self) -> None:
        self.calls += 1
        self._t0 = time.perf_counter()
        self._snap = CACHE_STATS.snapshot()

    def _exit(self) -> None:
        self.seconds += time.perf_counter() - self._t0
        after = CACHE_STATS.snapshot()
        for key, value in CACHE_STATS.delta(after, self._snap).items():
            self.counters[key] = self.counters.get(key, 0) + value

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "calls": self.calls,
            "counters": dict(self.counters),
            "children": [c.as_dict() for c in self.children.values()],
        }


class CompileProfile:
    """A profiling session: a tree of :class:`PhaseStats` plus pool state."""

    def __init__(self, name: str = "total"):
        self.root = PhaseStats(name)
        self._stack: list[PhaseStats] = [self.root]

    # -- recording ---------------------------------------------------------
    def _push(self, name: str) -> PhaseStats:
        parent = self._stack[-1]
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = PhaseStats(name)
        node._enter()
        self._stack.append(node)
        return node

    def _pop(self) -> None:
        self._stack.pop()._exit()

    # -- reporting ---------------------------------------------------------
    def as_dict(self) -> dict:
        return {"phases": self.root.as_dict(), "pool": pool_info()}

    def report(self) -> str:
        """Formatted phase tree: wall seconds, self-share, key counters."""
        lines = [
            f"{'phase':<34} {'seconds':>8} {'self':>8} "
            + " ".join(f"{c.replace('constraint_', 'cons_'):>12}" for c in _REPORT_COUNTERS)
        ]

        def walk(node: PhaseStats, depth: int) -> None:
            child_secs = sum(c.seconds for c in node.children.values())
            self_secs = max(node.seconds - child_secs, 0.0)
            label = "  " * depth + node.name
            if node.calls > 1:
                label += f" x{node.calls}"
            lines.append(
                f"{label:<34} {node.seconds:>8.3f} {self_secs:>8.3f} "
                + " ".join(f"{node.counters.get(c, 0):>12}" for c in _REPORT_COUNTERS)
            )
            for child in node.children.values():
                walk(child, depth + 1)

        walk(self.root, 0)
        pool = pool_info()
        stats = CACHE_STATS.as_dict()
        lines.append(
            "pool: "
            f"intern {pool['constraint_intern']}/{pool['constraint_intern_max']}, "
            f"empty {pool['empty_cache']}/{pool['empty_cache_max']}, "
            f"subsume {pool['subsume_cache']}/{pool['subsume_cache_max']}, "
            f"epoch {pool['epoch']}"
        )
        lines.append(
            "hit rates: "
            f"constraint {stats['constraint_hit_rate']:.1%} "
            f"(cross-kernel {stats['constraint_cross_hits']}), "
            f"empty {stats['empty_hit_rate']:.1%} "
            f"(cross-kernel {stats['empty_cross_hits']}, fast-path {stats['empty_fast']}), "
            f"subsume {stats['subsume_hit_rate']:.1%}"
        )
        return "\n".join(lines)


_ACTIVE_PROFILE: CompileProfile | None = None


@contextmanager
def profiled(name: str = "total") -> Iterator[CompileProfile]:
    """Install a :class:`CompileProfile` for the duration of the block."""
    global _ACTIVE_PROFILE
    prev = _ACTIVE_PROFILE
    prof = CompileProfile(name)
    prof.root._enter()
    _ACTIVE_PROFILE = prof
    try:
        yield prof
    finally:
        _ACTIVE_PROFILE = prev
        prof.root._exit()


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Attribute the enclosed work to *name* under the current phase.

    Near-zero cost when no profile is active (one global check); nested
    phases build the report tree, repeated phases accumulate.
    """
    prof = _ACTIVE_PROFILE
    if prof is None:
        yield
        return
    prof._push(name)
    try:
        yield
    finally:
        prof._pop()


def register(sub) -> None:
    """Add the ``profile`` subcommand of ``python -m repro.eval``."""
    p = sub.add_parser("profile", help="per-phase profile of one cold compile")
    p.add_argument("--bench", default="sp", choices=["sp", "bt"],
                   help="whose compute_rhs to compile")
    p.add_argument("--profile-class", default="W", choices=["S", "W", "A", "B"],
                   help="NAS class sizing the compiled kernel")
    p.add_argument("--nprocs", type=int, default=16, help="processors")
    p.set_defaults(run=run)


def run(args) -> int:
    """Profile one cold compile of the chosen ``compute_rhs`` and the guard
    binding its first run pays, then a compile of the same source at a
    second rank count (a selection-tier hit)."""
    from ..codegen import compile_kernel
    from ..compile import scratch_cache
    from ..nas import kernels
    from ..nas.classes import CLASSES
    from . import reset_caches

    ncls = CLASSES[args.profile_class]
    n = ncls.problem_size
    sp = args.bench == "sp"
    src = kernels.scaled(kernels.COMPUTE_RHS_SP if sp else kernels.COMPUTE_RHS_BT)
    params = {"n": n, "nx": n}
    fanout = 9 if sp else 27
    if fanout == args.nprocs:
        fanout = 4 if sp else 8
    reset_caches()
    label = f"{args.bench} compute_rhs class {ncls.name}"
    with scratch_cache():
        with profiled(f"{label} @{args.nprocs} ranks (cold)") as cold:
            kernel = compile_kernel(src, nprocs=args.nprocs, params=params)
            kernel.bind_all_guards()  # what a first run adds: "bind-guards"
        print(cold.report())
        # The selection tier is keyed without nprocs: a second rank
        # count pays only specialization (comm analysis) + codegen.
        with profiled(f"{label} @{fanout} ranks (selection-tier hit)") as warm:
            compile_kernel(src, nprocs=fanout, params=params)
        print()
        print(warm.report())
    return 0
