"""Tree-walking interpreter for the mini-Fortran IR.

Gives the frontend's IR an executable *serial* semantics: the reference
against which SPMD code generated by :mod:`repro.codegen` is verified.
Arrays are Fortran-style (column-major, declared lower bounds); CALLs use
sequence association (an array-element actual passes the tail of the
flattened array, reshaped to the dummy's declared shape), which is exactly
what the BT cell-solve kernels rely on.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, Optional

import numpy as np

from .expr import ArrayRef, BinOp, Expr, FuncCall, Num, StrLit, UnOp, Var
from .program import Program, Subroutine
from .stmt import Assign, CallStmt, Continue, DoLoop, IfThen, PrintStmt, Return, Stmt
from .symbols import FortranType, VarDecl


class FortranArray:
    """A numpy array with Fortran lower bounds and column-major layout."""

    def __init__(self, shape: tuple[int, ...], lower: tuple[int, ...], dtype="float64",
                 data: np.ndarray | None = None):
        if data is not None:
            self.data = data
        else:
            self.data = np.zeros(shape, dtype=dtype, order="F")
        self.lower = tuple(lower)

    @staticmethod
    def from_decl(decl: VarDecl, params: Mapping[str, int]) -> "FortranArray":
        shape = decl.shape_ints(params)
        lower = decl.lower_bounds(params)
        return FortranArray(shape, lower, decl.ftype.numpy_dtype)

    def _index(self, subs: tuple[int, ...]) -> tuple[int, ...]:
        if len(subs) != self.data.ndim:
            raise IndexError(
                f"rank mismatch: {len(subs)} subscripts for rank-{self.data.ndim} array"
            )
        return tuple(s - l for s, l in zip(subs, self.lower))

    def get(self, subs: tuple[int, ...]):
        return self.data[self._index(subs)]

    def set(self, subs: tuple[int, ...], value) -> None:
        self.data[self._index(subs)] = value

    def flat_offset(self, subs: tuple[int, ...]) -> int:
        """Column-major flat offset of an element (sequence association)."""
        idx = self._index(subs)
        off = 0
        stride = 1
        for k, n in zip(idx, self.data.shape):
            off += k * stride
            stride *= n
        return off

    def sequence_view(self, offset: int, shape: tuple[int, ...], lower: tuple[int, ...]) -> "FortranArray":
        """Fortran sequence association: the flattened tail from *offset*
        reshaped to a dummy's declared shape (shares memory)."""
        size = 1
        for n in shape:
            size *= n
        flat = self.data.reshape(-1, order="F")
        view = flat[offset : offset + size].reshape(shape, order="F")
        return FortranArray(shape, lower, data=view)


def fortran_trunc_div(a, b):
    """Fortran integer division: truncation toward zero (not Python floor)."""
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def fortran_mod(a, b):
    """Fortran ``MOD(a, p) = a - INT(a/p)*p``: the result has the sign of
    *a* (truncated division), unlike Python's ``%`` which follows the sign
    of the divisor.  ``math.fmod`` implements exactly this for reals."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return a - b * fortran_trunc_div(a, b)
    return math.fmod(a, b)


def fortran_nint(x):
    """Fortran ``NINT``: nearest integer, halves rounding *away from zero*
    — Python's ``round`` uses banker's rounding (``round(0.5) == 0``)."""
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def fortran_sign(a, b):
    """Fortran ``SIGN(a, b)``: |a| with the sign of *b*.  For reals the
    sign bit of *b* is transferred (F2003 IEEE semantics: ``SIGN(a, -0.0)``
    is ``-|a|``); integer arguments keep an integer result."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return abs(a) if b >= 0 else -abs(a)
    return math.copysign(abs(a), b)


_INTRINSICS: dict[str, Callable] = {
    "sqrt": np.sqrt,
    "dsqrt": np.sqrt,
    "abs": abs,
    "dabs": abs,
    "exp": np.exp,
    "dexp": np.exp,
    "log": np.log,
    "dlog": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "atan": np.arctan,
    "min": min,
    "max": max,
    "dmin1": min,
    "dmax1": max,
    "mod": fortran_mod,
    "int": int,
    "nint": fortran_nint,
    "dble": float,
    "real": float,
    "float": float,
    "sign": fortran_sign,
}


class InterpError(Exception):
    """Runtime error during IR interpretation."""


class Frame:
    """One activation: name -> FortranArray | scalar value."""

    def __init__(self, sub: Subroutine, params: Mapping[str, int]):
        self.sub = sub
        self.values: dict[str, Any] = {}
        self.params = dict(params)

    def lookup(self, name: str):
        return self.values.get(name.lower())

    def set_scalar(self, name: str, value) -> None:
        self.values[name.lower()] = value


class Interpreter:
    """Executes program units serially (reference semantics)."""

    def __init__(self, program: Program, params: Mapping[str, int] | None = None):
        self.program = program
        self.params = dict(params or {})
        self.max_steps = 50_000_000
        self._steps = 0

    # -- entry ------------------------------------------------------------
    def run(
        self,
        name: str,
        args: Mapping[str, Any] | None = None,
        scalars: Mapping[str, Any] | None = None,
    ) -> Frame:
        """Run subroutine *name*.  ``args`` binds dummy arguments (by name)
        to FortranArray / numeric values; other variables are allocated
        fresh.  Returns the final frame (inspect arrays/scalars there)."""
        sub = self.program.get(name)
        frame = Frame(sub, {**sub.symbols.parameter_values(), **self.params})
        args = {k.lower(): v for k, v in (args or {}).items()}
        for decl in sub.symbols.all():
            lname = decl.name.lower()
            if decl.is_parameter:
                frame.set_scalar(lname, frame.params.get(lname))
                continue
            if lname in args:
                frame.values[lname] = args[lname]
            elif decl.is_array:
                frame.values[lname] = FortranArray.from_decl(decl, frame.params)
            else:
                frame.values[lname] = 0.0 if decl.ftype != FortranType.INTEGER else 0
        for k, v in (scalars or {}).items():
            frame.set_scalar(k, v)
        self._exec_body(sub.body, frame)
        return frame

    # -- statements -----------------------------------------------------------
    def _exec_body(self, body: list[Stmt], frame: Frame) -> bool:
        """Returns False if a RETURN was hit."""
        for s in body:
            if not self._exec_stmt(s, frame):
                return False
        return True

    def _exec_stmt(self, s: Stmt, frame: Frame) -> bool:
        self._steps += 1
        if self._steps > self.max_steps:
            raise InterpError("interpretation step limit exceeded")
        if isinstance(s, Assign):
            value = self.eval(s.rhs, frame)
            if isinstance(s.lhs, ArrayRef):
                arr = frame.lookup(s.lhs.name)
                if not isinstance(arr, FortranArray):
                    raise InterpError(f"{s.lhs.name} is not an array")
                subs = tuple(int(self.eval(e, frame)) for e in s.lhs.subscripts)
                arr.set(subs, value)
            else:
                frame.set_scalar(s.lhs.name, value)
            return True
        if isinstance(s, DoLoop):
            lo = int(self.eval(s.lo, frame))
            hi = int(self.eval(s.hi, frame))
            step = int(self.eval(s.step, frame))
            if step == 0:
                raise InterpError("zero DO step")
            for v in range(lo, hi + (1 if step > 0 else -1), step):
                frame.set_scalar(s.var, v)
                if not self._exec_body(s.body, frame):
                    return False
            return True
        if isinstance(s, IfThen):
            if self.eval(s.cond, frame):
                return self._exec_body(s.then_body, frame)
            return self._exec_body(s.else_body, frame)
        if isinstance(s, CallStmt):
            self._exec_call(s, frame)
            return True
        if isinstance(s, (Continue,)):
            return True
        if isinstance(s, Return):
            return False
        if isinstance(s, PrintStmt):
            print(*(self.eval(a, frame) for a in s.args))
            return True
        raise InterpError(f"cannot interpret {type(s).__name__}")

    def _exec_call(self, s: CallStmt, frame: Frame) -> None:
        if s.name.lower() not in self.program:
            raise InterpError(f"call to unknown subroutine {s.name!r}")
        callee = self.program.get(s.name)
        if len(s.args) != len(callee.args):
            raise InterpError(
                f"{s.name}: {len(s.args)} actuals for {len(callee.args)} dummies"
            )
        bound: dict[str, Any] = {}
        writebacks: list[tuple[str, Expr]] = []
        callee_params = {**callee.symbols.parameter_values(), **self.params}
        # pre-bind scalar dummies so adjustable array extents (``x(m)`` with
        # dummy ``m``) resolve regardless of argument order
        for actual, dummy in zip(s.args, callee.args):
            decl = callee.symbols.require(dummy)
            if decl.is_array:
                continue
            try:
                val = self.eval(actual, frame)
            except InterpError:
                continue
            if isinstance(val, (int, np.integer)):
                callee_params[dummy.lower()] = int(val)
        for actual, dummy in zip(s.args, callee.args):
            decl = callee.symbols.require(dummy)
            if isinstance(actual, ArrayRef) and isinstance(
                frame.lookup(actual.name), FortranArray
            ):
                arr: FortranArray = frame.lookup(actual.name)
                subs = tuple(int(self.eval(e, frame)) for e in actual.subscripts)
                if decl.is_array:
                    shape = decl.shape_ints(callee_params)
                    lower = decl.lower_bounds(callee_params)
                    bound[dummy] = arr.sequence_view(arr.flat_offset(subs), shape, lower)
                else:
                    bound[dummy] = arr.get(subs)  # by value (no writeback)
            elif isinstance(actual, Var) and isinstance(
                frame.lookup(actual.name), FortranArray
            ):
                whole: FortranArray = frame.lookup(actual.name)
                if decl.is_array:
                    shape = decl.shape_ints(callee_params)
                    lower = decl.lower_bounds(callee_params)
                    bound[dummy] = whole.sequence_view(0, shape, lower)
                else:
                    raise InterpError(f"array {actual.name} passed to scalar dummy")
            else:
                bound[dummy] = self.eval(actual, frame)
                if isinstance(actual, Var):
                    writebacks.append((actual.name, dummy))  # type: ignore[arg-type]
        result = self.run(s.name, args=bound)
        # scalar by-reference writeback for Var actuals
        for actual_name, dummy in writebacks:
            frame.set_scalar(actual_name, result.lookup(dummy))  # type: ignore[arg-type]

    # -- expressions ----------------------------------------------------------
    def eval(self, e: Expr, frame: Frame):
        if isinstance(e, Num):
            return e.value
        if isinstance(e, StrLit):
            return e.value
        if isinstance(e, Var):
            v = frame.lookup(e.name)
            if v is None:
                raise InterpError(f"unbound variable {e.name!r}")
            if isinstance(v, FortranArray):
                return v
            return v
        if isinstance(e, ArrayRef):
            arr = frame.lookup(e.name)
            if not isinstance(arr, FortranArray):
                raise InterpError(f"{e.name} is not an array")
            subs = tuple(int(self.eval(s, frame)) for s in e.subscripts)
            return arr.get(subs)
        if isinstance(e, UnOp):
            v = self.eval(e.operand, frame)
            if e.op == "-":
                return -v
            if e.op == ".not.":
                return not v
            raise InterpError(f"unknown unary op {e.op}")
        if isinstance(e, BinOp):
            l = self.eval(e.left, frame)
            r = self.eval(e.right, frame)
            op = e.op
            if op == "+":
                return l + r
            if op == "-":
                return l - r
            if op == "*":
                return l * r
            if op == "/":
                if isinstance(l, int) and isinstance(r, int):
                    q = l // r
                    # Fortran integer division truncates toward zero
                    if q < 0 and q * r != l:
                        q += 1
                    return q
                return l / r
            if op == "**":
                return l**r
            if op == "==":
                return l == r
            if op == "/=":
                return l != r
            if op == "<":
                return l < r
            if op == "<=":
                return l <= r
            if op == ">":
                return l > r
            if op == ">=":
                return l >= r
            if op == ".and.":
                return bool(l) and bool(r)
            if op == ".or.":
                return bool(l) or bool(r)
            raise InterpError(f"unknown binary op {op}")
        if isinstance(e, FuncCall):
            fn = _INTRINSICS.get(e.name.lower())
            if fn is None:
                raise InterpError(f"unknown function {e.name!r} (user functions unsupported)")
            return fn(*(self.eval(a, frame) for a in e.args))
        raise InterpError(f"cannot evaluate {type(e).__name__}")
