"""Fortran intrinsic semantics for negative operands.

MOD, NINT, SIGN, INT and integer division all differ from the Python (or
plain numpy) operator of the same name exactly when an operand is
negative: MOD takes the sign of its first argument (truncated division,
not Python's floored ``%``), NINT rounds halves away from zero (not
banker's rounding), SIGN transfers the sign *bit* (so ``-0.0`` counts as
negative), INT and ``/`` truncate toward zero (not floor).  These tests
pin the scalar helpers, their vector (elementwise) counterparts, the
scalar/vector agreement on mixed-sign inputs, and an end-to-end kernel
under both backends."""

import math

import numpy as np
import pytest

from repro.codegen import compile_kernel
from repro.codegen.spmd import CompiledKernel as K
from repro.ir.interp import (
    fortran_mod,
    fortran_nint,
    fortran_sign,
    fortran_trunc_div,
)
from repro.nas.specs import bitwise_identical, seed_init


class TestScalarHelpers:
    def test_trunc_div_negative(self):
        assert fortran_trunc_div(-7, 2) == -3  # Python -7 // 2 == -4
        assert fortran_trunc_div(7, -2) == -3
        assert fortran_trunc_div(-7, -2) == 3
        assert fortran_trunc_div(6, 3) == 2

    def test_mod_sign_of_first_argument(self):
        assert fortran_mod(-7, 3) == -1  # Python -7 % 3 == 2
        assert fortran_mod(7, -3) == 1  # Python 7 % -3 == -2
        assert fortran_mod(-7, -3) == -1
        assert fortran_mod(-8.5, 3.0) == pytest.approx(-2.5)
        assert fortran_mod(8.5, -3.0) == pytest.approx(2.5)

    def test_nint_halves_away_from_zero(self):
        assert fortran_nint(0.5) == 1  # Python round(0.5) == 0
        assert fortran_nint(-0.5) == -1
        assert fortran_nint(2.5) == 3
        assert fortran_nint(-2.5) == -3
        assert fortran_nint(-2.4) == -2

    def test_sign_transfers_sign_bit(self):
        assert fortran_sign(3, -2) == -3
        assert fortran_sign(-3, 2) == 3
        assert fortran_sign(-3.5, -0.0) == -3.5  # -0.0 counts as negative
        assert math.copysign(1, fortran_sign(2.0, -0.0)) == -1.0

    def test_fdiv_truncates_toward_zero(self):
        assert K.fdiv(-7, 2) == -3
        assert K.fdiv(7, -2) == -3
        assert K.fdiv(7.0, 2) == pytest.approx(3.5)  # reals divide exactly


class TestVectorHelpers:
    """The K.v* elementwise helpers must agree with the scalar helpers on
    every mixed-sign input — this is what keeps the two backends bitwise
    identical through intrinsic calls."""

    INTS = [-9, -7, -2, -1, 1, 2, 7, 9]
    REALS = [-8.5, -2.5, -0.5, -0.0, 0.5, 2.5, 8.5]

    def test_vmod_matches_scalar(self):
        a = np.array(self.INTS)
        for b in (3, -3):
            expect = [fortran_mod(int(x), b) for x in a]
            assert K.vmod(a, b).tolist() == expect
        r = np.array(self.REALS)
        assert K.vmod(r, 3.0).tolist() == [fortran_mod(float(x), 3.0) for x in r]

    def test_vdiv_matches_scalar(self):
        a = np.array(self.INTS)
        for b in (2, -2):
            assert K.vdiv(a, b).tolist() == [fortran_trunc_div(int(x), b) for x in a]
        assert K.vdiv(np.array([7.0, -7.0]), 2).tolist() == [3.5, -3.5]

    def test_vnint_matches_scalar(self):
        r = np.array(self.REALS)
        assert K.vnint(r).tolist() == [fortran_nint(float(x)) for x in r]

    def test_vint_truncates_toward_zero(self):
        r = np.array([-2.7, -0.9, 0.9, 2.7])
        assert K.vint(r).tolist() == [-2, 0, 0, 2]

    def test_vsign_matches_scalar(self):
        a = np.array([3.5, -3.5])
        b = np.array([-0.0, 2.0])
        got = K.vsign(a, b)
        assert got.tolist() == [fortran_sign(3.5, -0.0), fortran_sign(-3.5, 2.0)]
        assert math.copysign(1, got[0]) == -1.0
        ints = K.vsign(np.array([3, -3]), np.array([-1, 1]))
        assert ints.dtype.kind in "iu" and ints.tolist() == [-3, 3]


_INTRINSIC_KERNEL = """
      subroutine intr(n)
      integer n, j, k
      parameter (nx = 16)
      double precision a(0:nx,0:nx), b(0:nx,0:nx), c(0:nx,0:nx)
      common /fields/ a, b, c
chpf$ processors procs(4)
chpf$ template tmpl(0:nx)
chpf$ align a(j,k) with tmpl(k)
chpf$ align b(j,k) with tmpl(k)
chpf$ align c(j,k) with tmpl(k)
chpf$ distribute tmpl(block) onto procs
      do k = 0, n - 1
         do j = 0, n - 1
            a(j,k) = sign(b(j,k), 1.2d0 - b(j,k))
            c(j,k) = mod(j - 7, 3) + nint(b(j,k) - 1.5d0)
         enddo
      enddo
      return
      end
"""


def test_intrinsics_kernel_bitwise_across_backends():
    """MOD/NINT/SIGN over negative operands, scalar vs vector backend."""
    results = {}
    for backend in ("scalar", "vector"):
        ck = compile_kernel(
            _INTRINSIC_KERNEL, nprocs=4, params={"n": 17}, backend=backend
        )
        results[backend] = ck.run({"n": 17}, init=seed_init(ck))
        if backend == "vector":
            ck.python_source()
            assert all(r.status == "vector" for r in ck.vector_report.values())
    assert bitwise_identical(results["scalar"], results["vector"])
    # and the values themselves exercise the negative-operand paths
    arr = results["vector"][0]["a"].data
    assert (arr < 0).any() and (arr > 0).any()
