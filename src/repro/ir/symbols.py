"""Symbol tables: variable declarations, array bounds, COMMON blocks."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Optional

from .expr import Expr


class FortranType(Enum):
    """The handful of Fortran types the mini-frontend knows about."""

    INTEGER = "integer"
    REAL = "real"
    DOUBLE = "double precision"
    LOGICAL = "logical"

    @property
    def numpy_dtype(self) -> str:
        return {
            FortranType.INTEGER: "int64",
            FortranType.REAL: "float32",
            FortranType.DOUBLE: "float64",
            FortranType.LOGICAL: "bool",
        }[self]


@dataclass
class VarDecl:
    """One declared variable.

    ``dims`` is a list of (lower, upper) bound expressions per dimension
    (Fortran defaults lower bound to 1); empty for scalars.  ``common``
    names the COMMON block, if any.  ``is_parameter`` marks PARAMETER
    constants and ``param_value`` holds their value expression.
    """

    name: str
    ftype: FortranType = FortranType.DOUBLE
    dims: list[tuple[Expr, Expr]] = field(default_factory=list)
    common: Optional[str] = None
    is_parameter: bool = False
    param_value: Optional[Expr] = None
    is_dummy_arg: bool = False

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    def shape_ints(self, params: Mapping[str, int] | None = None) -> tuple[int, ...]:
        """Concrete extents per dimension; requires constant/parameter bounds."""
        from .expr import to_affine

        out = []
        for lo, hi in self.dims:
            alo, ahi = to_affine(lo), to_affine(hi)
            if alo is None or ahi is None:
                from ..diag import E_NONAFFINE, CompileError

                raise CompileError(
                    f"non-affine bounds on {self.name}",
                    code=E_NONAFFINE, pass_name="ir",
                )
            b = dict(params or {})
            out.append(ahi.evaluate(b) - alo.evaluate(b) + 1)
        return tuple(out)

    def lower_bounds(self, params: Mapping[str, int] | None = None) -> tuple[int, ...]:
        from .expr import to_affine

        out = []
        for lo, _ in self.dims:
            alo = to_affine(lo)
            if alo is None:
                from ..diag import E_NONAFFINE, CompileError

                raise CompileError(
                    f"non-affine lower bound on {self.name}",
                    code=E_NONAFFINE, pass_name="ir",
                )
            out.append(alo.evaluate(dict(params or {})))
        return tuple(out)


class SymbolTable:
    """Per-subroutine symbol table with case-insensitive Fortran names."""

    def __init__(self) -> None:
        self._vars: dict[str, VarDecl] = {}

    @staticmethod
    def _key(name: str) -> str:
        return name.lower()

    def declare(self, decl: VarDecl) -> VarDecl:
        key = self._key(decl.name)
        if key in self._vars:
            # merge: DIMENSION then type statement, or COMMON then type
            old = self._vars[key]
            if decl.dims and not old.dims:
                old.dims = decl.dims
            if decl.common and not old.common:
                old.common = decl.common
            if decl.ftype != FortranType.DOUBLE or old.ftype == FortranType.DOUBLE:
                # an explicit later type wins over the implicit default
                pass
            return old
        self._vars[key] = decl
        return decl

    def lookup(self, name: str) -> Optional[VarDecl]:
        return self._vars.get(self._key(name))

    def require(self, name: str) -> VarDecl:
        d = self.lookup(name)
        if d is None:
            raise KeyError(f"undeclared variable {name!r}")
        return d

    def is_array(self, name: str) -> bool:
        d = self.lookup(name)
        return d is not None and d.is_array

    def arrays(self) -> list[VarDecl]:
        return [d for d in self._vars.values() if d.is_array]

    def scalars(self) -> list[VarDecl]:
        return [d for d in self._vars.values() if not d.is_array and not d.is_parameter]

    def parameters(self) -> list[VarDecl]:
        return [d for d in self._vars.values() if d.is_parameter]

    def all(self) -> list[VarDecl]:
        return list(self._vars.values())

    def parameter_values(self) -> dict[str, int]:
        """Integer values of PARAMETER constants (best-effort)."""
        from .expr import to_affine

        out: dict[str, int] = {}
        changed = True
        while changed:
            changed = False
            for d in self.parameters():
                if d.name in out or d.param_value is None:
                    continue
                a = to_affine(d.param_value)
                if a is None:
                    continue
                try:
                    out[d.name] = a.evaluate(out)
                    changed = True
                except KeyError:
                    pass
        return out

    def __contains__(self, name: str) -> bool:
        return self._key(name) in self._vars

    def __iter__(self):
        return iter(self._vars.values())

    def __len__(self) -> int:
        return len(self._vars)
