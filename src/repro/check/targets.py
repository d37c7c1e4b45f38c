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

#: class S is the 12^3 NAS problem size
CLASS_S = 12


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


def _fig61(params: dict, subject: str) -> CheckReport:
    """Figure 6.1 (x_solve_cell): inline the leaf routines, then compile."""
    from ..codegen import compile_kernel
    from ..frontend import parse_source
    from ..nas import kernels
    from ..transform import inline_calls

    prog = parse_source(kernels.BT_SOLVE_CELL)
    for leaf in ("matvec_sub", "matmul_sub", "binvcrhs"):
        inline_calls(prog, "x_solve_cell", leaf)
    report = verify_kernel(compile_kernel(prog.get("x_solve_cell"), 4, params))
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


def available_targets() -> dict[str, Callable[[], CheckReport]]:
    """Named verification targets for ``python -m repro.eval check``:
    the paper kernels, NAS SP/BT class S, and the examples/ sources."""
    from ..nas import kernels

    targets: dict[str, Callable[[], CheckReport]] = {
        "fig4.1": lambda: _compiled(kernels.LHSY_SP, 4, {"n": 17}, "fig4.1 lhsy"),
        "fig4.2": lambda: _compiled(
            kernels.COMPUTE_RHS_BT, 8, {"n": 13}, "fig4.2 compute_rhs"),
        "fig5.1": lambda: verify_source(
            kernels.Y_SOLVE_SP, 4, {"n": 17, "m": 0}, subject="fig5.1 y_solve"),
        "fig5.1-variant": lambda: verify_source(
            kernels.Y_SOLVE_SP_VARIANT, 4, {"n": 17, "m": 0},
            subject="fig5.1 y_solve (variant)"),
        "fig6.1": lambda: _fig61({"n": 13}, "fig6.1 x_solve_cell (inlined)"),
        "exact-rhs": lambda: _compiled(
            kernels.EXACT_RHS_SP, 4, {"n": 17}, "exact_rhs"),
        "sp-class-s": lambda: verify_source(
            kernels.Y_SOLVE_SP, 4, {"n": CLASS_S, "m": 0},
            subject="NAS SP y_solve, class S"),
        "bt-class-s": lambda: _compiled(
            kernels.COMPUTE_RHS_BT, 8, {"n": CLASS_S},
            "NAS BT compute_rhs, class S"),
        "degraded-example": lambda: _degraded(
            4, "graceful-degradation example (lenient)"),
    }
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
