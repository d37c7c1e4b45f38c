"""Named verification targets for ``python -m repro.eval check``.

Covers the paper kernels (Figures 4.1–6.1, compiled where the code
generator supports them, analysis-level otherwise), the NAS SP/BT
class-S pipelines, and the runnable examples in ``examples/``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import Callable, Optional

from .diagnostics import CheckReport
from .verifier import verify_kernel, verify_source


def _spec_report(key: str, subject: str) -> CheckReport:
    """Verify one ``repro.nas.specs`` entry: compiled where the code
    generator supports it, at analysis level when it is pipelined."""
    from ..nas import specs

    spec = specs.kernel_spec(key)
    if spec.pipelined:
        return verify_source(
            spec.source, spec.nprocs, spec.params, subject=subject)
    return _compiled(spec.program(), spec.nprocs, spec.params, subject)


def _compiled(source, nprocs: int, params: dict, subject: str) -> CheckReport:
    from ..codegen import compile_kernel

    report = verify_kernel(compile_kernel(source, nprocs, params))
    report.subject = subject
    return report


#: a deliberately unanalyzable kernel: the second nest scatters through a
#: non-affine subscript, so lenient compilation degrades it to replicated
#: execution and the check report carries the I-FALLBACK record.
DEGRADED_EXAMPLE = """
      program degrade
      parameter (n = 16)
      real a(n), b(n)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ distribute b(block) onto p
      do i = 1, n
         a(i) = i * 1.0
      enddo
      do i = 1, n
         b(mod(3*i, n) + 1) = a(i)
      enddo
      end
"""


def _degraded(nprocs: int, subject: str) -> CheckReport:
    """Lenient compilation of :data:`DEGRADED_EXAMPLE`; the verifier merges
    the kernel's degradation diagnostics into the report."""
    from ..codegen import compile_kernel

    report = verify_kernel(compile_kernel(DEGRADED_EXAMPLE, nprocs, strict=False))
    report.subject = subject
    return report


def _examples_dir() -> Optional[Path]:
    root = Path(__file__).resolve().parents[3] / "examples"
    return root if root.is_dir() else None


def _example_source(module_file: str) -> Optional[str]:
    """SOURCE string of one example module (loaded without running main)."""
    root = _examples_dir()
    if root is None:
        return None
    path = root / module_file
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)  # examples guard main() behind __main__
    return getattr(mod, "SOURCE", None)


def _example(module_file: str, nprocs: int, params: dict, subject: str) -> CheckReport:
    src = _example_source(module_file)
    if src is None:
        report = CheckReport(subject)
        return report  # examples not shipped: vacuously clean
    return _compiled(src, nprocs, params, subject)


#: check target -> (``repro.nas.specs`` key, report subject)
SPEC_TARGETS = {
    "fig4.1": ("fig4.1", "fig4.1 lhsy"),
    "fig4.2": ("fig4.2", "fig4.2 compute_rhs"),
    "fig5.1": ("fig5.1", "fig5.1 y_solve"),
    "fig5.1-variant": ("fig5.1-variant", "fig5.1 y_solve (variant)"),
    "fig6.1": ("fig6.1", "fig6.1 x_solve_cell (inlined)"),
    "exact-rhs": ("exact-rhs", "exact_rhs"),
    "sp-class-s": ("sp-class-s", "NAS SP y_solve, class S"),
    "bt-class-s": ("bt-rhs-s", "NAS BT compute_rhs, class S"),
}


def available_targets() -> dict[str, Callable[[], CheckReport]]:
    """Named verification targets for ``python -m repro.eval check``:
    the paper kernels, NAS SP/BT class S, and the examples/ sources."""
    targets: dict[str, Callable[[], CheckReport]] = {
        name: (lambda key=key, subject=subject: _spec_report(key, subject))
        for name, (key, subject) in SPEC_TARGETS.items()
    }
    targets["degraded-example"] = lambda: _degraded(
        4, "graceful-degradation example (lenient)")
    if _examples_dir() is not None:
        targets.update({
            "example-quickstart": lambda: _example(
                "quickstart.py", 4, {"n": 16}, "examples/quickstart"),
            "example-heat3d": lambda: _example(
                "heat3d_application.py", 4, {"n": 12}, "examples/heat3d"),
            "example-multipartition": lambda: _example(
                "multipartition_hpf.py", 4, {"n": 12},
                "examples/multipartition"),
        })
    return targets


def register(sub) -> None:
    """Add the ``check`` subcommand."""
    p = sub.add_parser("check", help="static SPMD verification")
    p.add_argument("--check-target", default="all",
                   help="one named target, or 'all'")
    p.add_argument("--mutate", default=None,
                   help="seed one named compiler bug (or 'all') and report "
                        "whether the verifier catches it")
    p.add_argument("--min-severity", default="info",
                   choices=["info", "warn", "error"],
                   help="report verbosity floor")
    p.set_defaults(run=run)


def run(args) -> int:
    """Verify the named targets (or seed the named mutations); exit 1 on
    any error or missed mutation, 2 on an unknown name."""
    from ..diag import Severity
    from .mutate import MUTATIONS, run_mutation

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
