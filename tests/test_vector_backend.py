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

from repro.codegen import CodegenUnsupported, compile_kernel, spmd
from repro.codegen.guards import BoxSet, Guards
from repro.isets.box import cover_of_points
from repro.codegen.spmd import CompiledKernel
from repro.cp.model import cp_iteration_set
from repro.cp.nest import NestInfo
from repro.distrib import PDIM
from repro.eval.fuzz import _mpi_mismatch, _serial_reference, _shmem_mismatch
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
    from repro.check.diagnostics import W_SCALAR_WAVEFRONT

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
            guards = ck.bind_guards(rank)
            for sid, points in list(guards.items()):
                if points is not None:
                    guards[sid] = frozenset(
                        p for p in points if (p[0] + 2 * p[1]) % 3)
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
            out[backend, executor] = ck.run(
                spec.scalars, init=init, executor=executor, timeout=120)
            shared[executor] = ck.run_shmem(
                spec.scalars, init=init_shared, executor=executor, timeout=120)
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
            guards = ck.bind_guards(rank)
            for sid, points in list(guards.items()):
                if points is not None:
                    guards[sid] = frozenset(
                        p for p in points if (p[0] + 2 * p[1]) % 3)
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
        _guard_plan=lambda: ({}, []), cps={}, params={"n": 8})
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
            routes = [("virtual", {})]
            if backend == "vector":
                routes.append(("process", {"timeout": 120}))
            for executor, kw in routes:
                label = f"{backend}/{executor}@{nprocs}"
                shared = ck.run_shmem(params, init=seed, executor=executor, **kw)
                assert _shmem_mismatch(ck, shared, want, label) is None
                ranks = ck.run(
                    params, init=lambda rid, A: seed(A), executor=executor, **kw)
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
    g = Guards({1: frozenset({(0, j, k) for j in range(4) for k in range(6)}),
                2: None})
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
    g = Guards({1: frozenset({(i, j) for i in range(3) for j in (0, 1, 4)})})
    first = g.boxes(1, (1, None), 0, 9)
    assert first == ((0, 1), (4, 4))
    assert g.boxes(1, (1, None), 0, 9) is first
    assert g.boxes(1, (1, None), 1, 9) == ((1, 1), (4, 4))  # a new query
    assert g.boxes(1, (2, None), 0, 9) is not first


def test_pickled_kernel_leaves_bound_guards_behind():
    """Guards, and the fancy-index arrays an mpi run builds per route, are
    run-time state: a kernel pickled after it ran is the bytes it was
    before, and its copy rebinds and runs bitwise-identically."""
    for name, communicates in (
        ("fig4.1 lhsy n=17", False), ("fig4.2 compute_rhs n=13", True),
    ):
        spec = SPECS[name]
        ck = spec.compile("vector")
        before = pickle.dumps(ck)
        init = seed_init(ck)
        ran = ck.run(spec.scalars, init=init)
        assert ck._guard_cache  # the run did bind guards
        indexed = [r for routes in ck._routes for r in routes if r._idx]
        assert bool(indexed) == communicates  # ... and index its routes
        assert pickle.dumps(ck) == before
        copy = pickle.loads(before)
        assert copy._guard_cache == {}
        assert not any(r._idx for routes in copy._routes for r in routes)
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
    bound = BoxSet.of(iters)
    assert bound.boxes == cover_of_points(sorted(points))
    assert len(bound) == len(points)
    assert bound == points and points == bound
    assert bound & points == points
    for pt in itertools.product(range(-1, _TOP + 2), repeat=ndim):
        assert (pt in bound) == (pt in points)
    expect = _oracle_cover(points, tpl, bounds)
    # a guard set by hand as plain points answers the same
    for guards in (Guards({1: bound}), Guards({1: frozenset(points)})):
        assert guards.boxes(1, tpl, *bounds) == expect


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


@pytest.mark.parametrize(
    "name", sorted(SPECS) + ["cyclic", "multipartition", "guard holes"])
def test_bound_guards_and_queries_match_the_point_oracle(name):
    """Every bound guard equals the enumerated iteration set, and every
    box query a node program makes (both targets) gets the tuple the point
    oracle gives — on block guards (boxes read off the set), on cyclic and
    multipartitioned ones (enumerated, not boxes) and on guards with holes
    cut in by hand."""
    init = None
    if name in SPECS:
        spec = SPECS[name]
        ck, scalars = spec.compile("vector"), spec.scalars
        init = seed_init(ck, spec.seed_bias)
    elif name == "guard holes":
        ck, scalars = compile_kernel(*_wave_source(3, 2, -1, "one", "block", True)), {}
    else:
        n = 16 if name == "cyclic" else 8
        source = _CYCLIC if name == "cyclic" else _MULTIPARTITION
        ck, scalars = compile_kernel(source, 4, params={"n": n}), {"n": n}
    oracle = {rank: _point_guards(ck, rank) for rank in range(ck.nprocs)}
    boxy = name in SPECS or name == "guard holes"
    for rank, points in oracle.items():
        guards = ck.bind_guards(rank)
        assert guards == points and list(guards) == list(points)
        for sid, bound in guards.items():
            if bound is not None:
                assert len(bound) == len(points[sid])
                assert bound.boxes == cover_of_points(sorted(points[sid]))
        # which constructor built them: boxes read off the set, or points
        pbind = {PDIM(g): c for g, c in enumerate(ck.grid.delinearize(rank))}
        for iters in ck._guard_plan()[1]:
            assert (iters.bind(pbind).box_parts() is not None) == boxy
        if name == "guard holes":
            for sid, pts in list(points.items()):
                if pts is not None:
                    guards[sid] = points[sid] = frozenset(
                        p for p in pts if (p[0] + 2 * p[1]) % 3)
    ck.run(scalars, init=init)
    ck.run_shmem(scalars, init=init and (lambda A: init(0, A)))
    asked = 0
    for rank, guards in ck._guard_cache.items():
        for (sid, tpl, bounds), answer in guards._answers.items():
            assert answer == _oracle_cover(oracle[rank][sid], tpl, bounds)
            asked += 1
    assert asked


@pytest.mark.parametrize("nprocs", [16, 8, 4])
def test_iteration_sets_are_built_once_per_kernel(nprocs, monkeypatch):
    """The symbolic iteration sets do not depend on the rank: a first run
    builds one per share group (9 for SP compute_rhs), whatever the rank
    count — not one per group per rank (144 / 72 / 36)."""
    spec = SPECS["sp compute_rhs class S"]
    ck = compile_kernel(kernels.scaled(spec.source), nprocs, params=spec.params)
    ck.python_source("shmem")
    ck = pickle.loads(pickle.dumps(ck))  # nothing bound, as a warm replay
    init = seed_init(ck, spec.seed_bias)
    calls = []

    def counted(*args):
        calls.append(args)
        return cp_iteration_set(*args)

    monkeypatch.setattr(spmd, "cp_iteration_set", counted)
    ck.run_shmem(spec.scalars, init=lambda A: init(0, A))
    assert len(calls) == 9
    assert sorted(ck._guard_cache) == list(range(nprocs))


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
    run = ck.run if target == "mpi" else ck.run_shmem
    init = seed_init(ck)
    run(spec.scalars, init=init if target == "mpi" else (lambda A: init(0, A)),
        executor=executor, timeout=120)
    assert sorted(ck._guard_cache) == list(range(ck.nprocs))
    assert mp.active_children() == [] and procexec.leaked_segments() == []


def test_guard_binding_is_a_profile_phase():
    """Binding runs on the calling thread, so the phase profiler (whose
    stack is not thread-safe) can attribute it: the sets once, then one
    bind per rank, all under ``bind-guards``."""
    spec = SPECS["fig4.1 lhsy n=17"]
    ck = pickle.loads(pickle.dumps(spec.compile("vector")))
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
