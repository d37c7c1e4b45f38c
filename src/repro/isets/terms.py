"""Affine linear expressions over named integer variables.

A :class:`LinExpr` is an immutable mapping ``{var_name: coeff}`` plus an
integer constant.  Variables are identified purely by name; whether a name is
a tuple dimension, an existential variable, or a free symbolic parameter is
decided by the set that contains the expression, not by the expression
itself.  All coefficients are Python ints (arbitrary precision), so there is
no overflow anywhere in the framework.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import Mapping


@dataclass(frozen=True)
class Term:
    """A single ``coeff * var`` term (used when pretty-printing)."""

    coeff: int
    var: str

    def __str__(self) -> str:
        if self.coeff == 1:
            return self.var
        if self.coeff == -1:
            return f"-{self.var}"
        return f"{self.coeff}{self.var}"


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_'$.]*$")


class LinExpr:
    """An affine expression ``sum(coeff_i * var_i) + const``.

    Immutable and hashable.  Supports ``+``, ``-``, scalar ``*``,
    substitution of variables by other LinExprs, and evaluation under a
    concrete integer binding.
    """

    __slots__ = ("_coeffs", "_const", "_hash")

    def __init__(self, coeffs: Mapping[str, int] | None = None, const: int = 0):
        items = {}
        if coeffs:
            for name, c in coeffs.items():
                if not isinstance(c, int):
                    raise TypeError(f"coefficient for {name!r} must be int, got {type(c).__name__}")
                if not _NAME_RE.match(name):
                    raise ValueError(f"invalid variable name {name!r}")
                if c != 0:
                    items[name] = c
        if not isinstance(const, int):
            raise TypeError(f"constant must be int, got {type(const).__name__}")
        object.__setattr__(self, "_coeffs", dict(sorted(items.items())))
        object.__setattr__(self, "_const", const)
        object.__setattr__(self, "_hash", hash((tuple(self._coeffs.items()), const)))

    @classmethod
    def _trusted(cls, coeffs: "dict[str, int]", const: int) -> "LinExpr":
        """Build from a coefficient map that is canonical *by construction*.

        Internal to :mod:`repro.isets`.  The caller guarantees what
        ``__init__`` would otherwise establish: every key already passed
        name validation (it came out of an existing ``LinExpr``), every
        value and *const* is an ``int``, no value is zero, and the keys
        are in sorted order.  *coeffs* is adopted, not copied — it may be
        another expression's map, so nobody mutates it afterwards.
        Anything arriving from a caller goes through ``LinExpr(...)``.
        """
        self = object.__new__(cls)
        self._coeffs = coeffs
        self._const = const
        self._hash = hash((tuple(coeffs.items()), const))
        return self

    # -- constructors -------------------------------------------------
    @staticmethod
    def var(name: str) -> "LinExpr":
        """The expression consisting of a single variable."""
        return LinExpr({name: 1})

    @staticmethod
    def const(value: int) -> "LinExpr":
        """A constant expression."""
        if not isinstance(value, int):
            raise TypeError(f"constant must be int, got {type(value).__name__}")
        return LinExpr._trusted({}, value)

    @staticmethod
    def of(value: "LinExpr | int | str") -> "LinExpr":
        """Coerce an int (constant), str (variable) or LinExpr."""
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, int):
            return LinExpr._trusted({}, value)
        if isinstance(value, str):
            return LinExpr.var(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to LinExpr")

    # -- accessors -----------------------------------------------------
    @property
    def coeffs(self) -> Mapping[str, int]:
        return self._coeffs

    @property
    def constant(self) -> int:
        return self._const

    def coeff(self, name: str) -> int:
        return self._coeffs.get(name, 0)

    def vars(self) -> frozenset[str]:
        return frozenset(self._coeffs)

    def is_constant(self) -> bool:
        return not self._coeffs

    def content(self) -> int:
        """GCD of the variable coefficients (0 for a constant expression)."""
        g = 0
        for c in self._coeffs.values():
            g = gcd(g, abs(c))
        return g

    # -- arithmetic ----------------------------------------------------
    def _plus(self, other: "LinExpr | int", sign: int) -> "LinExpr":
        """``self + sign * other`` (``sign`` is +1 or -1)."""
        if isinstance(other, int):
            return LinExpr._trusted(self._coeffs, self._const + sign * other)
        other = LinExpr.of(other)
        coeffs = dict(self._coeffs)
        _accumulate(coeffs, other._coeffs, sign)
        return LinExpr._trusted(
            _canonical(coeffs, len(self._coeffs)), self._const + sign * other._const
        )

    def __add__(self, other: "LinExpr | int") -> "LinExpr":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr._trusted({k: -v for k, v in self._coeffs.items()}, -self._const)

    def __sub__(self, other: "LinExpr | int") -> "LinExpr":
        return self._plus(other, -1)

    def __rsub__(self, other: "LinExpr | int") -> "LinExpr":
        return (-self)._plus(other, 1)

    def __mul__(self, k: int) -> "LinExpr":
        if not isinstance(k, int):
            raise TypeError("LinExpr can only be multiplied by an int")
        if k == 0:
            return LinExpr._trusted({}, 0)
        return LinExpr._trusted(
            {name: c * k for name, c in self._coeffs.items()}, self._const * k
        )

    __rmul__ = __mul__

    def substitute(self, binding: Mapping[str, "LinExpr | int"]) -> "LinExpr":
        """Replace each variable in *binding* by the given expression."""
        if binding.keys().isdisjoint(self._coeffs):
            return self
        coeffs: dict[str, int] = {}
        const = self._const
        for name, c in self._coeffs.items():
            if name not in binding:
                coeffs[name] = coeffs.get(name, 0) + c
                continue
            repl = binding[name]
            if isinstance(repl, int):
                const += c * repl
                continue
            repl = LinExpr.of(repl)
            const += c * repl._const
            _accumulate(coeffs, repl._coeffs, c)
        return LinExpr._trusted(_canonical(coeffs, 0), const)

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        """Rename variables; names not in *mapping* are unchanged."""
        coeffs: dict[str, int] = {}
        for name, c in self._coeffs.items():
            new = mapping.get(name, name)
            if new is not name and not _NAME_RE.match(new):
                raise ValueError(f"invalid variable name {new!r}")
            coeffs[new] = coeffs.get(new, 0) + c
        return LinExpr._trusted(_canonical(coeffs, 0), self._const)

    def evaluate(self, binding: Mapping[str, int]) -> int:
        """Evaluate under a complete integer binding of the variables."""
        total = self._const
        for name, c in self._coeffs.items():
            try:
                total += c * binding[name]
            except KeyError:
                raise KeyError(f"no binding for variable {name!r}") from None
        return total

    def evaluate_partial(self, binding: Mapping[str, int]) -> "LinExpr":
        """Substitute any bound variables, leaving others symbolic."""
        return self.substitute({k: v for k, v in binding.items() if k in self._coeffs})

    def as_fraction_of(self, name: str) -> tuple[int, "LinExpr"]:
        """Split into ``(coeff_of_name, rest)`` with ``self = coeff*name + rest``."""
        c = self._coeffs.get(name, 0)
        if c == 0:
            return 0, self
        rest = {k: v for k, v in self._coeffs.items() if k != name}
        return c, LinExpr._trusted(rest, self._const)

    # -- dunder --------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinExpr)
            and self._coeffs == other._coeffs
            and self._const == other._const
        )

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._coeffs) or self._const != 0

    def __str__(self) -> str:
        parts: list[str] = []
        for name, c in self._coeffs.items():
            term = str(Term(c, name))
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        if self._const or not parts:
            s = str(self._const)
            if parts and self._const > 0:
                s = "+" + s
            parts.append(s)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LinExpr({self})"


def _accumulate(coeffs: "dict[str, int]", terms: Mapping[str, int], k: int) -> None:
    """``coeffs += k * terms`` in place (may leave zeros and append keys)."""
    for name, c in terms.items():
        coeffs[name] = coeffs.get(name, 0) + k * c


def _canonical(coeffs: "dict[str, int]", sorted_prefix: int) -> "dict[str, int]":
    """Make an accumulated map canonical: zero-free, keys sorted.  The
    first *sorted_prefix* keys are known to be in order already, so a map
    that gained no key skips the sort."""
    grew = len(coeffs) > sorted_prefix
    if 0 in coeffs.values():
        coeffs = {k: v for k, v in coeffs.items() if v}
    return dict(sorted(coeffs.items())) if grew and len(coeffs) > 1 else coeffs


def E(value: "LinExpr | int | str") -> LinExpr:
    """Shorthand coercion used throughout the compiler."""
    return LinExpr.of(value)
