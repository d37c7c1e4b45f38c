"""Vector backend tests: the bitwise-identity contract against the scalar
backend on every paper kernel and the NAS class-S targets, loop sinking
(carried loops in Python, every other loop a box dimension), the
statement- and loop-level fallbacks for everything the vectorizer cannot
prove safe, and the guard box-cover machinery it runs on."""

import itertools
import multiprocessing as mp
import os
import pickle
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import CodegenUnsupported, compile_kernel
from repro.codegen.guards import Guards
from repro.isets.box import (
    Box, cover_of_points, cover_of_set, cover_points, volume,
)
from repro.codegen.spmd import CompiledKernel
from repro.comm import analyzer
from repro.compile import cache_disabled
from repro.cp import model
from repro.cp.model import cp_iteration_set
from repro.cp.nest import NestInfo
from repro.distrib import PDIM
from repro.eval.fuzz import (
    _mpi_mismatch, _serial_reference, _shmem_mismatch, gen_spec,
)
from repro.frontend import parse_source
from repro.ir import Assign, DoLoop, walk_stmts
from repro.ir.interp import Interpreter
from repro.isets import ISet, box as iset_box, profiled
from repro.nas import kernels
from repro.nas.specs import KernelSpec, bitwise_identical, kernel_specs, seed_init
from repro.runtime import procexec
from repro.transform import inline_calls

SPECS = {s.name: s for s in kernel_specs()}


# ---------------------------------------------------------------------------
# differential: scalar and vector backends must agree bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SPECS))
def test_backends_bitwise_identical(name):
    spec = SPECS[name]
    results = {}
    for backend in ("scalar", "vector"):
        ck = spec.compile(backend)
        results[backend] = ck.run(
            spec.scalars, init=seed_init(ck, spec.seed_bias))
    assert bitwise_identical(results["scalar"], results["vector"])


def test_class_s_kernels_fully_vectorize():
    """The NAS class-S acceptance rows must not silently degrade to scalar
    loops: every nest vectorizes, as multi-dimensional blocks."""
    for name in ("sp compute_rhs class S", "bt compute_rhs class S"):
        ck = SPECS[name].compile("vector")
        ck.python_source()
        reports = list(ck.vector_report.values())
        assert reports and all(r.status == "vector" for r in reports)
        assert any("3-d block" in r.reason for r in reports)
    sp = SPECS["sp compute_rhs class S"].compile("vector")
    sp.python_source()
    assert sum(
        "4-d block" in r.reason for r in sp.vector_report.values()
    ) == 2  # the forcing copy and the dt scaling


def test_shmem_target_bitwise_identical():
    spec = SPECS["fig4.1 lhsy n=17"]
    out = {}
    for backend in ("scalar", "vector"):
        ck = spec.compile(backend)
        proto = ck.make_arrays()
        rng = np.random.default_rng(7)
        seeds = {n: rng.random(a.data.shape) + 1.0 for n, a in sorted(proto.items())}

        def init(A):
            for n, data in seeds.items():
                A[n].data[:] = data

        out[backend] = ck.run_shmem(spec.scalars, init=init)
    for n in sorted(out["scalar"]):
        assert (
            out["scalar"][n].data.tobytes() == out["vector"][n].data.tobytes()
        ), n


# ---------------------------------------------------------------------------
# fallbacks: everything unprovable must degrade, not miscompile
# ---------------------------------------------------------------------------

_RECURRENCE = """
      subroutine recur(n)
      integer n, j, k
      parameter (nx = 16)
      double precision a(0:nx,0:nx)
      common /fields/ a
chpf$ processors procs(4)
chpf$ template tmpl(0:nx)
chpf$ align a(j,k) with tmpl(k)
chpf$ distribute tmpl(block) onto procs
      do k = 0, n - 1
         do j = 1, n - 1
            a(j,k) = a(j-1,k) + 1.0d0
         enddo
      enddo
      return
      end
"""

#: the same recurrence with no loop around it: no vector level at all
_RECURRENCE_1D = _RECURRENCE.replace(
    "      do k = 0, n - 1\n", "").replace("enddo\n      enddo", "enddo"
).replace("(j,k) =", "(j,3) =").replace("(j-1,k)", "(j-1,3)")

_NONAFFINE = """
      subroutine nonaff(n)
      integer n, j, k
      parameter (nx = 16)
      double precision a(0:nx,0:nx), b(0:nx,0:nx)
      common /fields/ a, b
chpf$ processors procs(4)
chpf$ template tmpl(0:nx)
chpf$ align a(j,k) with tmpl(k)
chpf$ align b(j,k) with tmpl(k)
chpf$ distribute tmpl(block) onto procs
      do k = 0, n - 1
         do j = 1, 3
            a(j*j,k) = b(j,k) + 1.0d0
         enddo
      enddo
      return
      end
"""

_REDUCTION = """
      subroutine redsum(n)
      integer n, j, k
      parameter (nx = 16)
      double precision a(0:nx,0:nx), b(0:nx,0:nx), s
      common /fields/ a, b
chpf$ processors procs(4)
chpf$ template tmpl(0:nx)
chpf$ align a(j,k) with tmpl(k)
chpf$ align b(j,k) with tmpl(k)
chpf$ distribute tmpl(block) onto procs
      do k = 0, n - 1
         s = 0.0d0
         do j = 0, n - 1
            s = s + a(j,k)
            b(j,k) = s
         enddo
      enddo
      return
      end
"""


def _diff_backends(source, scalars, nprocs=4, params=None, strict=True):
    """Compile/run both backends on seeded inputs; return the vector kernel."""
    results = {}
    cks = {}
    for backend in ("scalar", "vector"):
        ck = compile_kernel(
            source, nprocs=nprocs, params=params or dict(scalars),
            backend=backend, strict=strict,
        )
        results[backend] = ck.run(scalars, init=seed_init(ck))
        cks[backend] = ck
    assert bitwise_identical(results["scalar"], results["vector"])
    return cks["vector"]


def test_fallback_carried_flow_recurrence():
    """A first-order recurrence (1-d wavefront) must run as a scalar loop."""
    ck = _diff_backends(_RECURRENCE_1D, {"n": 17})
    reports = list(ck.vector_report.values())
    assert reports and all(r.status == "scalar" for r in reports)
    assert any("dependence" in r.reason for r in reports)


def test_fallback_nonaffine_subscript():
    """A non-affine subscript on a distributed array degrades the nest
    (strict refuses it); the replicated nest stays a scalar loop."""
    with pytest.raises(CodegenUnsupported, match="non-affine subscript"):
        compile_kernel(_NONAFFINE, nprocs=4, params={"n": 17})
    ck = _diff_backends(_NONAFFINE, {"n": 17}, strict=False)
    assert ck.degraded_nests == {0}
    assert all(r.status == "scalar" for r in ck.vector_report.values())


def test_fallback_reduction_mini_loop():
    """A scalar running sum is not expandable (read before written) — both
    statements stay in a scalar mini-loop, bitwise equal to pure scalar."""
    ck = _diff_backends(_REDUCTION, {"n": 17})
    assert all(r.status == "scalar" for r in ck.vector_report.values())
    src = ck.python_source()
    assert "K.do_range(" in src  # the mini-loop is inside the generated code


_MIXED_1D = """
      program mixed
      parameter (n = 12)
      real a(n, n), b(n, n), c(n, n)
!hpf$ processors p(2)
!hpf$ distribute a(*, block) onto p
!hpf$ distribute b(*, block) onto p
!hpf$ distribute c(*, block) onto p
      do j = 1, n
         do i = 1, n
            a(i, j) = i * 0.5 + j * 0.25
            c(i, j) = 1.0 + i * 0.125
         enddo
      enddo
      do i = 2, n
         b(i, 3) = c(i, 3) * 2.0
         a(i, 3) = a(i - 1, 3) * 0.5 + b(i, 3)
         c(i, 3) = b(i, 3) + 1.0
      enddo
      end
"""


def test_lone_loop_keeps_a_recurrence_in_place_between_blocks():
    """A lone loop is a one-level nest: the recurrence on ``a`` cannot be a
    block (it carries a flow dependence on itself), so it runs in place
    as a scalar mini-loop between the two statements that stay blocks —
    bitwise the serial interpreter and the scalar backend on both
    targets, and named by the cost model's advisory."""
    from repro.check.cost import cost_advisories, kernel_cost
    from repro.check import W_SCALAR_WAVEFRONT

    ck = _run_all_ways(_MIXED_1D, 2)
    lone = [s for s in ck.sub.body if isinstance(s, DoLoop)][-1]
    recur = lone.body[1].sid
    report = ck.vector_report[lone.sid]
    assert report.status == "mixed"
    assert report.scalar_sids == (recur,)
    assert len(report.vector_sids) == 2 and recur not in report.vector_sids
    for target in ("mpi", "shmem"):
        src = ck.python_source(target)
        assert "G.boxes(" in src and "G.segments(" not in src
        assert _python_loops(src) == ["i"]  # the mini-loop, under K.guard
    (warning,) = [
        d for d in cost_advisories(kernel_cost(ck), kernel=ck)
        if d.code == W_SCALAR_WAVEFRONT
    ]
    assert f"keeps statements s{recur} in a scalar mini-loop" in warning.message
    assert "carried flow dependence on 'a'" in warning.message


_TOP_IF = """
      program tif
      parameter (n = 8)
      real a(n), b(n), c(n, n)
!hpf$ processors p(2)
!hpf$ distribute a(block) onto p
!hpf$ distribute b(block) onto p
!hpf$ distribute c(*, block) onto p
      do i = 1, n
         a(i) = i * 0.5
      enddo
      if (n .gt. 2) then
         do i = 1, n
            b(i) = a(i) + 1.0
         enddo
         do j = 1, n
            do i = 1, n
               c(i, j) = a(i) + j * 0.25
            enddo
         enddo
      endif
      end
"""


def test_loops_under_a_top_level_if_are_planned_on_their_own_dependences():
    """Loops outside every analyzed nest (under a top-level IF, which a
    lenient compile keeps) have no nest analysis to read dependences
    from: the planner analyzes the loop it plans, and a lone loop and a
    2-d nest there still vectorize, bitwise the scalar backend."""
    ck = _diff_backends(_TOP_IF, {}, nprocs=2, strict=False)
    assert [(r.loop_var, r.status) for r in ck.vector_report.values()] == [
        ("i", "vector"), ("i", "vector"), ("j,i", "vector")]


def test_fallback_partially_vector_inlined_solve():
    """fig 6.1 after inlining: the recurrence loop i is the only Python loop
    of the nest; every statement is a block over k and j (and its own q/r),
    the 5x5 back-substitution running its diagonal q sequentially."""
    ck = SPECS["fig6.1 x_solve_cell n=13"].compile("vector")
    ck.python_source()
    (report,) = ck.vector_report.values()
    assert report.status == "vector"
    assert report.sequential == ("i",)
    assert "2-d/3-d/4-d blocks" in report.reason
    assignments = [
        s.sid for s in ck.sub.statements() if type(s).__name__ == "Assign"]
    assert sorted(report.vector_sids) == sorted(assignments)
    for target in ("mpi", "shmem"):
        src = ck.python_source(target)
        assert "K.guard(" not in src
        loops = re.findall(r"for (\w+) in K\.do_range", src)
        assert len(loops) == 2 and loops[0] == "i" and loops[1].startswith("q")
        for boxes in re.findall(r"G\.boxes\(\d+, \(([^)]*)\)", src):
            assert boxes.startswith("None, None, i,")  # k and j are box dims


# ---------------------------------------------------------------------------
# loop sinking: the carried loop in Python, every other loop a box dimension
# ---------------------------------------------------------------------------

def _wave_source(nloops, carried, offset, form, dist, natural):
    """A small nest of *nloops* loops over ``a``/``b`` (filled by a first
    nest) whose loop at depth *carried* carries a distance-1 dependence.

    *form* ``"one"`` is a self-reference ``a(c) = a(c+offset)`` (flow for
    -1, anti for +1); ``"forward"``/``"backward"`` split it over two
    statements so the carried edge runs with or against textual order.
    The carried dimension is collapsed — a distributed one pipelines its
    communication and never reaches the vectoriser — and the others are
    ``block`` or, for ``"collapsed"``, only the outermost of them is.
    *natural* subscripts are Fortran's (innermost loop on the first axis);
    otherwise the axis order is the loop order."""
    lv = ("k", "j", "i")[3 - nloops:]  # outermost first
    cv = lv[carried]
    axes = tuple(reversed(lv)) if natural else lv

    def ref(name, shift=0):
        subs = (
            f"{v} {'+' if shift > 0 else '-'} 1" if v == cv and shift else v
            for v in axes
        )
        return f"{name}({', '.join(subs)})"

    free = [v for v in lv if v != cv]
    if dist == "collapsed":
        free = free[:1]
    fmt = ", ".join("block" if v in free else "*" for v in axes)
    shape = ", ".join("n" for _ in axes)
    lines = [
        "      program wv",
        "      parameter (n = 8)",
        f"      real a({shape}), b({shape})",
        f"!hpf$ processors p({', '.join('2' for _ in free)})",
        f"!hpf$ distribute a({fmt}) onto p",
        f"!hpf$ distribute b({fmt}) onto p",
    ]

    def nest(body, carried_range):
        pad = "      "
        for v in lv:
            lo, hi = carried_range if v == cv else ("1", "n")
            lines.append(f"{pad}do {v} = {lo}, {hi}")
            pad += "   "
        lines.extend(pad + stmt for stmt in body)
        for _ in lv:
            pad = pad[:-3]
            lines.append(f"{pad}enddo")

    fill = " + ".join(f"{v} * {c}" for v, c in zip(lv, ("0.5", "0.25", "0.125")))
    nest([f"{ref('a')} = {fill}", f"{ref('b')} = 1.0 + {fill}"], ("1", "n"))
    reads = f"{ref('b')} = {ref('a', offset)} + 1.0"
    writes = f"{ref('a')} = {ref('b')} * 0.5"
    if form == "one":
        body = [f"{ref('a')} = {ref('a', offset)} * 0.5 + {ref('b')}"]
    elif (form == "forward") == (offset < 0):
        body = [writes, reads]  # flow forward / anti backward
    else:
        body = [reads, writes]  # flow backward / anti forward
    nest(body, ("2", "n - 1"))
    lines.append("      end")
    return "\n".join(lines) + "\n", 2 ** len(free)


def _python_loops(src):
    return re.findall(r"for (\w+) in K\.do_range", src)


def _run_all_ways(source, nprocs):
    """Both backends on both targets against the serial interpreter, and
    against each other on every array of every rank; returns the vector
    kernel."""
    ref = _serial_reference(source)
    ranks = {}
    for backend in ("scalar", "vector"):
        ck = compile_kernel(source, nprocs, backend=backend)
        assert _shmem_mismatch(ck, ck.run_shmem({}), ref, backend) is None
        ranks[backend] = ck.run({})
        assert _mpi_mismatch(ck, ranks[backend], ref, backend) is None
    assert bitwise_identical(ranks["scalar"], ranks["vector"])
    return ck


_WAVE_CASES = [
    (nloops, carried, offset, form, dist, natural)
    for nloops in (2, 3)
    for carried in range(nloops)
    for offset in (-1, 1)
    for form in ("one", "forward", "backward")
    # with two loops the only other dimension has to stay distributed
    for dist in (("block", "collapsed") if nloops == 3 else ("block",))
    for natural in (True, False)
]


@pytest.mark.parametrize("nloops,carried,offset,form,dist,natural", _WAVE_CASES)
def test_sunk_nest_matrix(nloops, carried, offset, form, dist, natural):
    source, nprocs = _wave_source(nloops, carried, offset, form, dist, natural)
    ck = _run_all_ways(source, nprocs)
    cv = ("k", "j", "i")[3 - nloops:][carried]
    if form == "forward":
        expect = []  # distribution alone keeps a forward carried edge
    elif form == "one" and offset > 0 and carried == nloops - 1:
        expect = []  # innermost-carried anti: box order + full-RHS reads
    else:
        expect = [cv]
    for target in ("mpi", "shmem"):
        src = ck.python_source(target)
        assert _python_loops(src) == expect
        assert "K.guard(" not in src
    reports = list(ck.vector_report.values())
    assert reports and all(r.status == "vector" for r in reports)
    if expect and carried > 0:  # an outer loop sank across the carried one
        assert reports[-1].sequential == (cv,)


def test_sunk_recurrence_under_distributed_outer_loop():
    """The outer loop carries nothing, so it sinks inside the recurrence:
    one box query per j instead of one guard test per point."""
    ck = _diff_backends(_RECURRENCE, {"n": 17})
    (report,) = ck.vector_report.values()
    assert report.status == "vector" and report.sequential == ("j",)
    src = ck.python_source()
    assert _python_loops(src) == ["j"] and "K.guard(" not in src
    assert "G.boxes(3, (None, j,)," in src


_STAR_EDGE = """
      program star
      parameter (n = 8)
      real a(n, n, n), b(n, n, n)
!hpf$ processors p(2)
!hpf$ distribute a(*, *, block) onto p
!hpf$ distribute b(*, *, block) onto p
      do k = 1, n
         do j = 1, n
            do i = 1, n
               a(i, j, k) = i * 0.5 + j * 0.25 + k * 0.125
               b(i, j, k) = 1.0
            enddo
         enddo
      enddo
      do k = 1, n
         do j = 2, n
            do i = 2, n - 1
               a(i, j, k) = a(i - 1, j, k) * 0.5 + b(i, j, k)
               b(i, j, k) = a(9 - i, j - 1, k) + 1.0
            enddo
         enddo
      enddo
      end
"""


def test_forward_edge_does_not_sink_across_a_sequential_loop():
    """The (<, *) counter-example: j carries only a forward cross-statement
    edge, which distribution keeps — but its sink reads row 9-i, so
    moving j inside the sequential i would run some sinks before their
    sources.  j must stay a Python loop; k, which carries nothing, sinks."""
    ck = _run_all_ways(_STAR_EDGE, 2)
    assert _python_loops(ck.python_source()) == ["j", "i"]
    assert list(ck.vector_report.values())[-1].sequential == ("j", "i")


_WAVEFRONT_2D = """
      subroutine wave2(n)
      integer n, i, j
      parameter (nx = 16)
      double precision a(0:nx,0:nx), d(0:nx)
      common /fields/ a, d
chpf$ processors procs(4)
chpf$ distribute d(block) onto procs
      do j = 1, n - 1
         do i = 1, n - 1
            a(i,j) = a(i-1,j) + a(i,j-1)
         enddo
      enddo
      return
      end
"""


def test_true_2d_wavefront_stays_scalar():
    """Both loops carry the recurrence: nothing to sink, nothing to slice.
    (Lenient: a replicated read-modify-write of the undistributed ``a`` is
    not idempotent under shmem, so the nest runs single-writer there.)"""
    ck = _diff_backends(_WAVEFRONT_2D, {"n": 17}, strict=False)
    reports = list(ck.vector_report.values())
    assert reports and all(r.status == "scalar" for r in reports)
    assert _python_loops(ck.python_source()) == ["j", "i"]


def _holed(points):
    """*points* less those with ``p0 + 2 p1`` a multiple of 3: holes in
    every row and column of the first two loops."""
    return frozenset(p for p in points if (p[0] + 2 * p[1]) % 3)


def _cut_holes(guards):
    """Cut :func:`_holed`'s holes into every bound guard of *guards*."""
    for sid, cover in list(guards.items()):
        if cover is not None:
            guards[sid] = cover_of_points(sorted(_holed(cover_points(cover))))


def test_sunk_nest_with_guard_holes():
    """Guards with holes (what a cyclic partition gives) split every cover
    into several boxes.  A cyclic dimension cannot reach the vectoriser
    beside a carried loop — its exists-quantified ownership leaves a
    communication event inside the loop, which code generation rejects as
    pipelined — so the holes are cut into the bound guards of both
    backends instead; they must still agree bit for bit."""
    source, nprocs = _wave_source(3, 2, -1, "one", "block", True)
    ranks = {}
    for backend in ("scalar", "vector"):
        ck = compile_kernel(source, nprocs, backend=backend)
        for rank in range(nprocs):
            _cut_holes(ck.bind_guards(rank))
        ranks[backend] = ck.run({})
    assert bitwise_identical(ranks["scalar"], ranks["vector"])
    sid = max(ck.bind_guards(0))  # the recurrence statement
    assert len(ck.bind_guards(0).boxes(sid, (None, None, 3), 1, 8, 1, 8)) > 1


# ---------------------------------------------------------------------------
# expansion: NEW arrays get one copy per iteration of the loops they sink
# ---------------------------------------------------------------------------

_LHSX = KernelSpec(
    "lhsx", "lhsx n=17", 4, {"n": 17},
    {"c2": 0.5, "dx3": 0.1, "c1c5": 0.2, "dttx1": 0.3, "dttx2": 0.4, "n": 17},
    source=kernels.LHSX_SP,
)

#: the three paper kernels whose NEW arrays the planner expands
_NEW_KERNELS = {
    "fig4.1": (SPECS["fig4.1 lhsy n=17"], ("cv", "rhoq", "ru1")),
    "exact-rhs": (SPECS["exact_rhs n=17"], ("buf", "cuf", "dtemp", "q", "ue")),
    "lhsx": (_LHSX, ("cv", "rhoq", "ru1")),
}


@pytest.mark.parametrize("key", sorted(_NEW_KERNELS))
def test_new_arrays_expand_into_one_nest_of_3d_blocks(key):
    """k, i and j all become box dimensions: one nest plan, one cover
    loop per merge group, the NEW arrays and the scalars feeding them
    expanded, and no guard test or Python loop left."""
    spec, names = _NEW_KERNELS[key]
    ck = spec.compile("vector")
    src = ck.python_source()
    (report,) = ck.vector_report.values()
    assert report.status == "vector" and report.sequential == ()
    assert report.reason == "3-d block"
    assert report.expanded == names
    assert _python_loops(src) == [] and "K.guard(" not in src
    ck.run(spec.scalars, init=seed_init(ck))
    for rank in range(ck.nprocs):
        # distinct box queries per pass: one per merge group, not one per
        # (k, i) iteration and statement
        assert len(ck.bind_guards(rank)._answers) == src.count("G.boxes(")
    assert src.count("G.boxes(") <= 4


def _run_on(ck, executor, target, scalars, init=None):
    """One route: the VM's ``run`` / ``run_shmem``, or
    ``procexec.run_kernel`` on real processes."""
    if executor == "process":
        return procexec.run_kernel(
            ck, scalars, init=init, target=target, timeout=120)
    return (ck.run if target == "mpi" else ck.run_shmem)(scalars, init=init)


@pytest.mark.parametrize("key", sorted(_NEW_KERNELS))
def test_new_kernels_bitwise_every_route(key):
    """Scalar == vector, every array of every rank (the NEW ones too), on
    the VM's two targets and on real processes."""
    spec, _names = _NEW_KERNELS[key]
    out = {}
    for backend in ("scalar", "vector"):
        ck = spec.compile(backend)
        init = seed_init(ck)
        shared = {}

        def init_shared(A, init=init):
            init(0, A)

        for executor in ("virtual", "process"):
            out[backend, executor] = _run_on(
                ck, executor, "mpi", spec.scalars, init)
            shared[executor] = _run_on(
                ck, executor, "shmem", spec.scalars, init_shared)
        out[backend, "shmem"] = [shared["virtual"], shared["process"]]
    for route in ("virtual", "process", "shmem"):
        assert bitwise_identical(out["scalar", route], out["vector", route]), route
    assert bitwise_identical(out["vector", "virtual"], out["vector", "process"])
    assert mp.active_children() == []
    assert procexec.leaked_segments() == []


def test_expanded_final_values_on_a_multi_box_cover():
    """Holes cut into every bound guard along (k, i) split each cover into
    many boxes.  The NEW arrays must still end as the scalar backend
    leaves them — the value of the last admitted (k, i) — on every rank:
    the write-back follows the canonical cover order."""
    spec = SPECS["fig4.1 lhsy n=17"]
    ranks = {}
    for backend in ("scalar", "vector"):
        ck = spec.compile(backend)
        for rank in range(ck.nprocs):
            _cut_holes(ck.bind_guards(rank))
        ranks[backend] = ck.run(spec.scalars, init=seed_init(ck))
    assert bitwise_identical(ranks["scalar"], ranks["vector"])
    cv = next(s.sid for s in walk_stmts(ck.sub.body)
              if isinstance(s, Assign) and s.target_name == "cv")
    assert len(ck.bind_guards(0).boxes(cv, (None,) * 3, 1, 15, 1, 15, 0, 16)) > 1


_UNCOVERED = """
      subroutine uncov(n)
      integer n, i, j, k
      parameter (nx = 16)
      double precision a(0:nx,0:nx,0:nx), t(0:nx)
      common /fields/ a
chpf$ processors procs(2,2)
chpf$ template tmpl(0:nx,0:nx)
chpf$ align a(i,j,k) with tmpl(j,k)
chpf$ align t(j) with tmpl(j,*)
chpf$ distribute tmpl(block, block) onto procs
      do k = 1, n - 2
         do i = 1, n - 2
chpf$ independent, new(t)
            do j = WRANGE
               t(j) = 0.5d0*(i + j) + 0.25d0*k
            enddo
            do j = 1, n - 2
               a(i,j,k) = t(j-1) + t(j+1)
            enddo
         enddo
      enddo
      return
      end
"""


@pytest.mark.parametrize("form", ["covered", "wider-reader", "stale-read"])
def test_uncovered_private_read_stays_unexpanded(form):
    """A NEW array read at an element its writer did not write in the same
    (k, i) iteration — the reader's range one wider than the writer's
    loop, or the reader before the writer — fails the coverage proof: the
    nest keeps the per-j plan, and scalar == vector bitwise on every
    array of every rank.  The covered control expands."""
    source = _UNCOVERED.replace(
        "WRANGE", "1, n - 2" if form == "wider-reader" else "0, n - 1")
    if form == "stale-read":
        lines = source.splitlines()
        w = lines.index(next(l for l in lines if "do j = 0," in l))
        lines[w:w + 6] = lines[w + 3:w + 6] + lines[w:w + 3]
        source = "\n".join(lines) + "\n"
    ck = _diff_backends(source, {"n": 17})
    src = ck.python_source()
    if form == "covered":
        (report,) = ck.vector_report.values()
        assert report.expanded == ("t",) and _python_loops(src) == []
        return
    assert "K.xtemp(" not in src
    assert _python_loops(src) == ["k", "i"]
    assert all(not r.expanded for r in ck.vector_report.values())


_TWO_READERS = """
      subroutine s(n)
      integer n, i, j
      double precision t(0:20), a(0:20), b(0:20)
      do j = 1, 2
         do i = 2, n - 1
            t(i) = 1.0d0
         enddo
         do i = 2, n - 1
            a(i) = t(i)
         enddo
         do i = 1, n
            b(i) = t(i)
         enddo
      enddo
      end
"""


def test_coverage_proofs_are_not_shared_between_fresh_sets():
    """Two unguarded readers with equal dims and offsets but different
    iteration sets each get their own coverage answer from one ``proved``
    memo: their sets are built afresh per query, so a memo keyed by object
    identity could hand the second reader the first one's proof."""
    from types import SimpleNamespace

    from repro.codegen.vectorize import _read_covered
    from repro.isets import LinExpr

    (top,) = parse_source(_TWO_READERS).get("s").body
    nest = NestInfo(top, {"n": 8})
    writer, inside, wider = nest.assignments()
    kernel = SimpleNamespace(
        _symbolic_guards=({}, []), cps={}, params={"n": 8})
    binding = {"j": LinExpr.var("j"), "i": LinExpr.var("i")}
    sunk = {top.sid}
    below = {lp.sid for lp in walk_stmts([top]) if isinstance(lp, DoLoop)}
    proved: dict = {}
    answers = [
        _read_covered(kernel, nest, reader, writer, binding, sunk, below,
                      proved)
        for reader in (inside, wider, inside, wider)
    ]
    assert answers == [True, False, True, False]
    assert len(proved) == 2  # one proof per distinct query, reused


def _fig61_inlined():
    prog = parse_source(kernels.scaled(kernels.BT_SOLVE_CELL))
    for leaf in ("matvec_sub", "matmul_sub", "binvcrhs"):
        inline_calls(prog, "x_solve_cell", leaf)
    return prog


@pytest.mark.parametrize("n", [5, 13, 17])
def test_fig61_bitwise_every_route(n):
    """Figure 6.1 against the serial interpreter: 1, 2 and 4 ranks, both
    targets, on the virtual machine and on real processes."""
    params = {"n": n, "nx": n - 1}
    rng = np.random.default_rng(61)
    lhs0 = rng.random((5, 5, 3, n, n, n)) * 0.05
    for q in range(5):
        lhs0[q, q, 1] += 2.0  # diagonally dominant B blocks
    rhs0 = rng.random((5, n, n, n))

    def seed(A):
        A["lhs"].data[:] = lhs0
        A["rhs"].data[:] = rhs0

    prog = _fig61_inlined()
    serial = compile_kernel(prog.get("x_solve_cell"), 1, params).make_arrays()
    seed(serial)
    Interpreter(prog, params=params).run(
        "x_solve_cell", args=serial, scalars=params)
    want = {name: arr.data for name, arr in serial.items()}

    for nprocs in (1, 2, 4):
        per_rank = {}
        for backend in ("scalar", "vector"):
            ck = compile_kernel(
                _fig61_inlined().get("x_solve_cell"), nprocs, params,
                backend=backend)
            routes = ["virtual", "process"] if backend == "vector" else ["virtual"]
            for executor in routes:
                label = f"{backend}/{executor}@{nprocs}"
                shared = _run_on(ck, executor, "shmem", params, seed)
                assert _shmem_mismatch(ck, shared, want, label) is None
                ranks = _run_on(
                    ck, executor, "mpi", params, lambda rid, A: seed(A))
                assert _mpi_mismatch(ck, ranks, want, label) is None
                per_rank[backend, executor] = ranks
        assert bitwise_identical(
            per_rank["scalar", "virtual"], per_rank["vector", "virtual"])
        assert bitwise_identical(
            per_rank["vector", "virtual"], per_rank["vector", "process"])
    assert mp.active_children() == []
    assert procexec.leaked_segments() == []


_WITH_CALL = """
      subroutine hascall(n)
      integer n, j, k
      parameter (nx = 16)
      double precision a(0:nx,0:nx)
      common /fields/ a
chpf$ processors procs(4)
chpf$ template tmpl(0:nx)
chpf$ align a(j,k) with tmpl(k)
chpf$ distribute tmpl(block) onto procs
      do k = 0, n - 1
         do j = 0, n - 1
            call helper(a(j,k))
         enddo
      enddo
      return
      end
"""


def test_call_statements_rejected_before_vectorization():
    """CALL sites never reach the vectorizer: code generation requires the
    calls to be inlined first (repro.transform.inline_calls)."""
    with pytest.raises(CodegenUnsupported, match="CALL"):
        compile_kernel(_WITH_CALL, nprocs=4, params={"n": 17})


def test_pipelined_wavefront_rejected():
    """True wavefront kernels (pipelined communication) are executed by
    repro.parallel.dhpf, not the node-code backends."""
    with pytest.raises(CodegenUnsupported, match="pipelined"):
        compile_kernel(kernels.Y_SOLVE_SP, nprocs=4, params={"n": 17, "m": 0})


# ---------------------------------------------------------------------------
# guard covers and the cached index-vector helper
# ---------------------------------------------------------------------------

def test_box_cover_exact_and_ordered():
    pts = {(a, b) for a in (0, 1, 2, 5) for b in (0, 1, 2, 7, 8)}
    cover = cover_of_points(sorted(pts))
    # exact: disjoint boxes unioning to the points
    seen = set()
    for a0, a1, b0, b1 in cover:
        for a in range(a0, a1 + 1):
            for b in range(b0, b1 + 1):
                assert (a, b) not in seen
                seen.add((a, b))
    assert seen == pts
    # consecutive rows with identical run structure merge into one block
    assert (0, 2, 0, 2) in cover and (0, 2, 7, 8) in cover
    # per fixed first coordinate, second-coordinate runs ascend (the order
    # the innermost-anti safety argument relies on)
    for a0, a1, _, _ in cover:
        runs = [(b0, b1) for x0, x1, b0, b1 in cover if (x0, x1) == (a0, a1)]
        assert runs == sorted(runs)


def test_guards_boxes_clamped_and_unguarded():
    g = Guards({
        1: cover_of_points(sorted((0, j, k) for j in range(4) for k in range(6))),
        2: None,
    })
    # clamping an exact cover stays exact
    assert g.boxes(1, (0, None, None), 1, 2, 3, 9) == ((1, 2, 3, 5),)
    assert g.boxes(1, (0, None, None), 5, 6, 0, 5) == ()
    # unguarded statements get the whole bounds box
    assert g.boxes(2, (0, None, None), 1, 2, 3, 9) == ((1, 2, 3, 9),)
    # one None position: the maximal runs of admissible values
    assert g.boxes(1, (0, None, 2), 0, 9) == ((0, 3),)


def test_guards_repeated_query_is_one_lookup():
    """A node program repeats its box queries pass after pass: the second
    ask returns the very tuple the first one built."""
    g = Guards({1: cover_of_points(sorted((i, j) for i in range(3) for j in (0, 1, 4)))})
    first = g.boxes(1, (1, None), 0, 9)
    assert first == ((0, 1), (4, 4))
    assert g.boxes(1, (1, None), 0, 9) is first
    assert g.boxes(1, (1, None), 1, 9) == ((1, 1), (4, 4))  # a new query
    assert g.boxes(1, (2, None), 0, 9) is not first


def test_guard_point_tables_are_one_per_share_group():
    """The scalar backend's ``K.guard`` probes one point table per share
    group and rank: the statements of a group hold one cover and share its
    table, enumerated once (a table per statement made scalar first runs
    a quarter slower); groups with different covers have their own."""
    spec = SPECS["fig4.1 lhsy n=17"]
    ck = spec.compile("scalar")
    assert ck.python_source().count("K.guard(") == 8
    members: dict = {}
    for sid, g in ck.guard_plan[0].items():
        if g is not None:
            members.setdefault(g, []).append(sid)
    (a, b, *_), (c, *_) = [m for m in members.values() if len(m) > 1]
    ck.run(spec.scalars, init=seed_init(ck))
    for guards in ck._guard_cache.values():
        assert guards.tables[a] is guards.tables[b]
        assert guards[a] != guards[c]
        assert guards.tables[a] is not guards.tables[c]


def test_pickled_kernel_leaves_bound_guards_behind():
    """Guards are run-time state: a kernel pickled after it ran is the
    bytes it was before, and its copy rebinds and runs bitwise-identically."""
    for name in ("fig4.1 lhsy n=17", "fig4.2 compute_rhs n=13"):
        spec = SPECS[name]
        ck = spec.compile("vector")
        before = pickle.dumps(ck)
        init = seed_init(ck)
        ran = ck.run(spec.scalars, init=init)
        assert ck._guard_cache  # the run did bind guards
        assert pickle.dumps(ck) == before
        copy = pickle.loads(before)
        assert copy._guard_cache == {}
        assert bitwise_identical(ran, copy.run(spec.scalars, init=init))


# -- guards are boxes, bound once ----------------------------------------------

def _oracle_cover(points, tpl, bounds):
    """The answer to ``Guards.boxes`` by definition, as it was computed
    when a bound guard was a set of points: group the points by the fixed
    positions of *tpl*, ``cover_of_points`` the group that matches, clamp."""
    bounds = tuple(int(v) for v in bounds)
    d = len(bounds) // 2
    if any(bounds[2 * l + 1] < bounds[2 * l] for l in range(d)):
        return ()
    if points is None:
        return (bounds,)
    positions = [i for i, v in enumerate(tpl) if v is None]
    fixed = tuple(v for v in tpl if v is not None)
    group = [
        tuple(pt[i] for i in positions) for pt in points
        if tuple(v for i, v in enumerate(pt) if i not in positions) == fixed
    ]
    out = []
    for box in cover_of_points(group):
        clamped = []
        for l in range(d):
            a = max(box[2 * l], bounds[2 * l])
            b = min(box[2 * l + 1], bounds[2 * l + 1])
            if a > b:
                break
            clamped += [a, b]
        else:
            out.append(tuple(clamped))
    return tuple(out)


def _point_guards(ck, rank_id):
    """One rank's guards as enumerated point sets, each statement's
    iteration set rebuilt and bound for that rank: what ``bind_guards``
    returned before guards were boxes."""
    pbind = {PDIM(g): c for g, c in enumerate(ck.grid.delinearize(rank_id))}
    out = {}
    for root, _plan in ck.nest_plans:
        nest = NestInfo(root, ck.params)
        for stmt in walk_stmts([root]):
            if not isinstance(stmt, Assign):
                continue
            scp = ck.cps.get(stmt.sid)
            bounds = nest.bounds_of(stmt)
            if scp is None or scp.cp.is_replicated or bounds is None:
                out[stmt.sid] = None
                continue
            iters = cp_iteration_set(
                scp.cp, nest.dims_of(stmt), bounds.bind(ck.params), ck.ctx)
            out[stmt.sid] = frozenset(
                iters.bind({**ck.params, **pbind}).points())
    return out


_TOP = 4  # box coordinates are drawn from 0.._TOP


@st.composite
def _box_unions_and_queries(draw):
    ndim = draw(st.integers(1, 4))
    extent = st.tuples(st.integers(0, _TOP), st.integers(-1, _TOP))  # hi < lo: empty
    boxes = draw(st.lists(st.tuples(*[extent] * ndim), max_size=6))
    free = draw(st.lists(st.booleans(), min_size=ndim, max_size=ndim).filter(any))
    tpl = tuple(None if f else draw(st.integers(0, _TOP)) for f in free)
    limit = st.integers(-1, _TOP + 1)
    bounds = tuple(draw(limit) for f in free if f for _ in range(2))
    return ndim, boxes, tpl, bounds


@settings(max_examples=300, deadline=None)
@given(_box_unions_and_queries())
def test_box_guards_answer_as_the_point_oracle(case):
    """A union of overlapping, touching, nested and empty boxes read off an
    iteration set's disjuncts is the same set, with the same cover in the
    same order, as the one built from its enumerated points."""
    ndim, boxes, tpl, bounds = case
    dims = [f"d{i}" for i in range(ndim)]
    iters = ISet(dims, [part for b in boxes for part in iset_box(dims, b).parts])
    points = {
        pt for b in boxes
        for pt in itertools.product(*(range(lo, hi + 1) for lo, hi in b))
    }
    assert iters.box_parts() is not None
    bound = cover_of_set(iters)
    assert bound == cover_of_points(sorted(points))
    assert volume(bound) == len(points)
    assert set(cover_points(bound)) == points
    guards = Guards({1: bound})
    assert guards.point_table(1) == points
    assert guards.boxes(1, tpl, *bounds) == _oracle_cover(points, tpl, bounds)


_CYCLIC = """
      subroutine s(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx), b(0:nx)
chpf$ processors p(4)
chpf$ distribute a(cyclic) onto p
chpf$ distribute b(cyclic) onto p
      do i = 0, n - 1
         a(i) = b(i) * 2.0d0
      enddo
      end
"""

_MULTIPARTITION = """
      subroutine s(n)
      integer n, i, j, k
      parameter (nx = 7)
      double precision u(0:nx, 0:nx, 0:nx), v(0:nx, 0:nx, 0:nx)
chpf$ processors p(2, 2)
chpf$ distribute u(multi, multi, multi) onto p
chpf$ distribute v(multi, multi, multi) onto p
      do k = 0, n - 1
         do j = 0, n - 1
            do i = 0, n - 1
               v(i, j, k) = u(i, j, k) * 2.0d0
            enddo
         enddo
      enddo
      end
"""


#: fuzz programs the oracle also runs on, named for the shape each adds
_FUZZ_SEEDS = {
    "fuzz 29 wildcard grid": 29,
    "fuzz 14 2-d grid": 14,
    "fuzz 1 NEW array": 1,
}


def _oracle_subject(name):
    """``(kernel, scalars, init)`` of one oracle subject, compiled cold."""
    if name in SPECS:
        spec = SPECS[name]
        ck = spec.compile("vector")
        return ck, spec.scalars, seed_init(ck, spec.seed_bias)
    if name == "guard holes":
        return compile_kernel(*_wave_source(3, 2, -1, "one", "block", True)), {}, None
    if name in _FUZZ_SEEDS:
        fz = gen_spec(_FUZZ_SEEDS[name])
        return compile_kernel(fz.render(), fz.nprocs, strict=False), {}, None
    n = 16 if name == "cyclic" else 8
    source = _CYCLIC if name == "cyclic" else _MULTIPARTITION
    return compile_kernel(source, 4, params={"n": n}), {"n": n}, None


@pytest.mark.parametrize(
    "name",
    sorted(SPECS) + ["cyclic", "multipartition", "guard holes"] + list(_FUZZ_SEEDS))
def test_bound_guards_and_queries_match_the_point_oracle(name):
    """Every bound guard equals the enumerated iteration set, and every
    box query a node program makes (both targets) gets the tuple the point
    oracle gives — on block guards (integer bounds evaluated off the
    carried plan's boxes), on cyclic and multipartitioned ones (the plan
    carries their sets, bound and covered per rank) and on guards with
    holes cut in by hand — on the kernel as compiled and on its warm
    replay."""
    cold, scalars, init = _oracle_subject(name)
    oracle = {rank: _point_guards(cold, rank) for rank in range(cold.nprocs)}
    boxy = name not in ("cyclic", "multipartition")
    for ck in (cold, pickle.loads(pickle.dumps(cold))):
        # which reading the compiler chose: boxes, or the set itself
        _group, entries = ck.guard_plan
        assert entries
        for entry in entries:
            if boxy:
                assert isinstance(entry, tuple)
                assert all(isinstance(box, Box) for box in entry)
            else:
                assert isinstance(entry, ISet)
        for rank, points in oracle.items():
            guards = ck.bind_guards(rank)
            assert list(guards) == list(points)
            for sid, bound in guards.items():
                if bound is None:
                    assert points[sid] is None
                else:
                    assert volume(bound) == len(points[sid])
                    assert bound == cover_of_points(sorted(points[sid]))
        holes = dict(oracle)
        if name == "guard holes":
            for rank, points in oracle.items():
                holes[rank] = {
                    sid: pts and _holed(pts) for sid, pts in points.items()
                }
                _cut_holes(ck.bind_guards(rank))
        ck.run(scalars, init=init)
        ck.run_shmem(scalars, init=init and (lambda A: init(0, A)))
        asked = 0
        for rank, guards in ck._guard_cache.items():
            for (sid, tpl, bounds), answer in guards._answers.items():
                assert answer == _oracle_cover(holes[rank][sid], tpl, bounds)
                asked += 1
        assert asked


@pytest.mark.parametrize("nprocs", [16, 8, 4])
def test_iteration_sets_are_built_once_per_kernel(nprocs, monkeypatch):
    """The compiler builds the symbolic iteration sets and reads the guard
    plan off them; the artifact carries the plan, so a warm replay's first
    run neither builds an iteration set nor binds one (rebuilding them took
    9 ``cp_iteration_set`` calls and 9 × P ``ISet.bind`` for SP
    compute_rhs), and its guards are the cold kernel's, box for box.  A
    cyclic kernel's plan holds its set, which each rank still binds."""
    spec = SPECS["sp compute_rhs class S"]
    cold = compile_kernel(kernels.scaled(spec.source), nprocs, params=spec.params)
    warm = pickle.loads(pickle.dumps(cold))
    cyclic = pickle.loads(pickle.dumps(
        compile_kernel(_CYCLIC, 4, params={"n": 16})))
    init = seed_init(warm, spec.seed_bias)
    built, bound = [], []
    bind = ISet.bind

    def counted_build(*args):
        built.append(args)
        return cp_iteration_set(*args)

    def counted_bind(self, params):
        bound.append(params)
        return bind(self, params)

    monkeypatch.setattr(analyzer, "cp_iteration_set", counted_build)
    monkeypatch.setattr(model, "cp_iteration_set", counted_build)
    monkeypatch.setattr(ISet, "bind", counted_bind)
    warm.run_shmem(spec.scalars, init=lambda A: init(0, A))
    assert built == [] and bound == []
    assert sorted(warm._guard_cache) == list(range(nprocs))
    cyclic.run_shmem({"n": 16})
    assert built == [] and len(bound) == cyclic.nprocs
    monkeypatch.undo()
    for rank in range(nprocs):
        assert dict(warm.bind_guards(rank)) == dict(cold.bind_guards(rank))


@pytest.mark.parametrize("executor", ["virtual", "process"])
@pytest.mark.parametrize("target", ["mpi", "shmem"])
def test_no_rank_binds_its_own_guards(executor, target, monkeypatch):
    """Guards are bound on the calling thread before the ranks start (rank
    threads share the GIL; a forked worker's bindings die with it): the
    node program's ``K.bind_guards(rank.rank)`` always hits the cache."""
    spec = SPECS["fig4.1 lhsy n=17"]
    ck = pickle.loads(pickle.dumps(spec.compile("vector")))
    caller = (os.getpid(), threading.get_ident())
    bind = CompiledKernel.bind_guards

    def checked(self, rank_id):
        here = (os.getpid(), threading.get_ident())
        assert here == caller or rank_id in self._guard_cache, (
            f"rank {rank_id} bound its guards itself")
        return bind(self, rank_id)

    monkeypatch.setattr(CompiledKernel, "bind_guards", checked)
    init = seed_init(ck)
    _run_on(ck, executor, target, spec.scalars,
            init if target == "mpi" else (lambda A: init(0, A)))
    assert sorted(ck._guard_cache) == list(range(ck.nprocs))
    assert mp.active_children() == [] and procexec.leaked_segments() == []


def test_guard_binding_is_a_profile_phase():
    """The compiler reads the guard plan once, under ``codegen`` as
    ``guard-plan``; binding runs on the calling thread, so the phase
    profiler (whose stack is not thread-safe) can attribute it: one
    evaluation of the plan per rank, under ``bind-guards``."""
    spec = SPECS["fig4.1 lhsy n=17"]
    with cache_disabled(), profiled("compile") as prof:
        cold = spec.compile("vector")
    plan = prof.root.children["codegen"].children["guard-plan"]
    assert plan.calls == 1 and plan.seconds > 0
    ck = pickle.loads(pickle.dumps(cold))
    with profiled("run") as prof:
        ck.run(spec.scalars, init=seed_init(ck))
    phase = prof.root.children["bind-guards"]
    assert phase.calls == ck.nprocs and phase.seconds > 0
    with profiled("again") as prof:
        ck.run(spec.scalars, init=seed_init(ck))
    assert "bind-guards" not in prof.root.children  # every bind a dict hit


def test_arange_cached_views_are_read_only():
    v = CompiledKernel.arange(3, 10)
    assert v.tolist() == list(range(3, 11))
    assert not v.flags.writeable
    w = CompiledKernel.arange(0, 5)
    assert w.base is CompiledKernel.arange(2, 4).base
    # negative lower bounds bypass the cache but stay correct
    assert CompiledKernel.arange(-3, 2).tolist() == [-3, -2, -1, 0, 1, 2]


# ---------------------------------------------------------------------------
# direct indexing: declared lower bounds folded into the emitted subscripts
# ---------------------------------------------------------------------------

#: shapes no paper kernel has — name -> (source, nprocs, a fragment of the
#: vector node program that shows the folded subscript)
_FOLDED = {
    # negative and param-dependent lower bounds
    "lower-bounds": ("""
      program lb
      parameter (n = 8, m = 5)
      double precision a(-2:n), b(1-n:n+1, 0:m), c(1-n:n+1, 0:m)
!hpf$ processors p(2)
!hpf$ distribute b(*, block) onto p
!hpf$ distribute c(*, block) onto p
      do k = -2, n
         a(k) = 0.5d0 * k
      enddo
      do j = 0, m
         do i = 1 - n, n + 1
            b(i, j) = i + 0.25d0 * j
         enddo
      enddo
      do j = 1, m
         do i = 2 - n, n
            c(i, j) = b(i - 1, j - 1) + b(i + 1, j) * a(j - 2)
         enddo
      enddo
      end
""", 2, "A['b'].data[_x1a + (6):_x1b + (7), _x0a + (-1):_x0b]"),
    "stride-2": ("""
      program st
      parameter (n = 16, h = 8)
      double precision a(n), b(h)
!hpf$ processors p(2)
!hpf$ distribute a(block) onto p
!hpf$ distribute b(block) onto p
      do i = 1, n
         a(i) = 0.5d0 * i
      enddo
      do i = 1, h
         b(i) = a(2*i - 1) + 3.0d0 * a(2*i)
      enddo
      end
""", 2, "A['a'].data[2*_x0a + (-2):2*_x0b + (-1):2]"),
    # c(3, j) is one element per j: the i block broadcasts it
    "invariant-element": ("""
      program iv
      parameter (n = 8)
      double precision a(n, n), c(4, n)
!hpf$ processors p(2)
!hpf$ distribute a(block, *) onto p
      do j = 1, n
         do i = 1, 4
            c(i, j) = i + 0.5d0 * j
         enddo
         do i = 1, n
            a(i, j) = 0.25d0 * i
         enddo
      enddo
      do j = 2, n
         do i = 1, n
            a(i, j) = a(i, j - 1) * 0.5d0 + c(3, j)
         enddo
      enddo
      end
""", 2, "+ A['c'].data[2, (j + -1)])"),
    # t expands along k (from 2) and i: its sunk axes count from _b00/_b10
    "new-sunk-from-2": ("""
      program sk
      parameter (n = 12)
      double precision a(0:n,0:n,0:n), t(0:n)
!hpf$ processors p(2,2)
!hpf$ template tm(0:n,0:n)
!hpf$ align a(i,j,k) with tm(j,k)
!hpf$ align t(j) with tm(j,*)
!hpf$ distribute tm(block, block) onto p
      do k = 2, n - 1
         do i = 1, n - 2
!hpf$ independent, new(t)
            do j = 0, n - 1
               t(j) = 0.5d0*(i + j) + 0.25d0*k
            enddo
            do j = 1, n - 2
               a(i,j,k) = t(j-1) + t(j+1)
            enddo
         enddo
      enddo
      end
""", 4, "A['t'].data[_x2a:_x2b + (1)] = _xt_t[_x1b - _b10, _x2a:_x2b + (1), _x0b - _b00]"),
    "scalar-subscript": ("""
      program sc
      parameter (n = 8, ix = 3)
      double precision a(n, n), b(n), c(n)
!hpf$ processors p(2)
!hpf$ distribute a(block, *) onto p
!hpf$ distribute b(block) onto p
!hpf$ distribute c(block) onto p
      do j = 1, n
         do i = 1, n
            a(i, j) = i + 0.5d0 * j
         enddo
      enddo
      do i = 1, n
         b(i) = a(i, ix) * 2.0d0
      enddo
      do i = 1, n - ix
         c(i) = a(i + ix, 2)
      enddo
      end
""", 2, "A['a'].data[_x0a + (-1):_x0b, int(S['ix']) + (-1)]"),
}


class TestFoldedSubscripts:
    """Vector node programs subscript each array's ndarray directly, its
    declared lower bounds folded in at emission; ``rank_node`` checks the
    arrays it is handed against the folded bounds."""

    @pytest.mark.parametrize("key", sorted(_FOLDED))
    def test_bitwise_every_route(self, key):
        """The interpreter, both backends on both VM targets, and the
        vector backend on real processes agree bit for bit."""
        source, nprocs, fragment = _FOLDED[key]
        ck = _run_all_ways(source, nprocs)
        assert fragment in ck.python_source("mpi")
        reports = list(ck.vector_report.values())
        assert reports and all(r.status == "vector" for r in reports)
        assert bitwise_identical(procexec.run_kernel(
            ck, {}, target="mpi", timeout=120), ck.run({}))
        assert bitwise_identical(procexec.run_kernel(
            ck, {}, target="shmem", timeout=120), ck.run_shmem({}))
        assert mp.active_children() == []
        assert procexec.leaked_segments() == []

    def test_sunk_loop_sequential_for_one_reader(self):
        """``c(n - k)`` has stride -1 in the sunk loop k, so that reader
        would run k for itself alone; the expanded temporary is shaped for
        one whole-nest block, so the nest declines and the retry further
        in blocks it."""
        source, nprocs, _ = _FOLDED["new-sunk-from-2"]
        source = source.replace(
            "t(0:n)\n", "t(0:n), c(0:n)\n").replace(
            "t(j-1) + t(j+1)", "t(j-1) + t(j+1) + c(n - k)")
        ck = _run_all_ways(source, nprocs)
        (report,) = ck.vector_report.values()
        assert (report.status, report.expanded) == ("vector", ("t",))
        assert report.loop_var == "i,j,j"  # k stays a Python loop
        assert "A['c'].data[int(((-k) + S['n']))]" in ck.python_source("mpi")

    def test_folded_bounds_are_the_declared_ones(self):
        source, nprocs, _ = _FOLDED["lower-bounds"]
        ck = compile_kernel(source, nprocs)
        ck.python_source()
        assert ck.folded_lower == {"a": (-2,), "b": (-7, 0), "c": (-7, 0)}
        scalar = compile_kernel(source, nprocs, backend="scalar")
        scalar.python_source()
        assert scalar.folded_lower == {}

    @pytest.mark.parametrize("target", ["mpi", "shmem"])
    def test_rank_node_refuses_shifted_lower_bounds(self, target):
        """An array whose lower bounds are not the ones the emitter folded
        raises before any rank runs, instead of reading off by the shift."""
        from repro.ir.interp import FortranArray

        source, nprocs, _ = _FOLDED["lower-bounds"]
        ck = compile_kernel(source, nprocs)
        arrays = [ck.make_arrays() for _ in range(nprocs)]
        b = arrays[-1]["b"]
        arrays[-1]["b"] = FortranArray(b.data.shape, (-8, 0))
        given = arrays if target == "mpi" else arrays[-1]
        with pytest.raises(ValueError, match=r"'b' has lower bounds \(-8, 0\)"):
            ck.rank_node(target, {}, given)
        arrays[-1]["b"] = b
        assert callable(ck.rank_node(target, {}, given))

    def test_rank_mismatch_still_fails_at_run_time(self):
        """A reference with fewer subscripts than its array has axes would
        be a silent row view as a direct subscript: the statement goes to
        the scalar backend, whose run raises as before."""
        ck = compile_kernel("""
      program rk
      parameter (n = 8)
      double precision a(n, n), b(n)
      do i = 1, n
         b(i) = a(i)
      enddo
      end
""", 1)
        (report,) = ck.vector_report.values()
        assert report.status == "scalar" and "1 subscripts for rank 2" in report.reason
        with pytest.raises(IndexError, match="rank mismatch"):
            ck.run({})


def test_guard_tuples_follow_each_statements_own_loops():
    """A statement's guard tuple (scalar ``K.guard`` point, vector
    ``G.boxes`` template) is laid out by its own enclosing loops, outermost
    first, as its guard set is: an earlier nest that runs ``i`` outermost
    does not reorder the ``do j / do i`` nest after it.  Both backends on
    both targets agree with the interpreter bit for bit."""
    _run_all_ways("""
      program g16
      parameter (n = 8)
      double precision a(n, n), c(n)
!hpf$ processors p(2)
!hpf$ distribute a(block, *) onto p
      do i = 1, n
         c(i) = 0.5d0 * i
      enddo
      do j = 2, n
         do i = 1, n
            a(i, j) = a(i, j - 1) * 0.5d0 + c(j)
         enddo
      enddo
      end
""", 2)
