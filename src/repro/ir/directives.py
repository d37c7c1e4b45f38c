"""HPF directive IR.

Directive lines (``CHPF$ ...`` / ``!HPF$ ...``) are parsed into these nodes.
Declarative directives (PROCESSORS / TEMPLATE / ALIGN / DISTRIBUTE) live on
the subroutine; loop directives (INDEPENDENT with NEW / LOCALIZE /
REDUCTION) attach to the following DO loop.  ON_HOME is checked for syntax
by the parser and not kept: CP selection chooses every statement's CP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .expr import Expr


@dataclass
class ProcessorsDecl:
    """``PROCESSORS procs(p1, p2, ...)`` — a named processor grid.

    ``shape`` entries are extent expressions; ``*`` extents (to be filled at
    compile time from the target processor count) are represented as None.
    """

    name: str
    shape: list[Optional[Expr]]

    @property
    def rank(self) -> int:
        return len(self.shape)


@dataclass
class TemplateDecl:
    """``TEMPLATE t(l1:u1, n2, ...)`` — dims as (lower, upper) bound pairs
    (a bare extent ``n`` means ``1:n``)."""

    name: str
    dims: list[tuple[Expr, Expr]]

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass
class AlignDecl:
    """``ALIGN a(i,j) WITH t(i+1, j)``.

    ``source_dims`` are the placeholder dim names of the array;
    ``target_subscripts`` are expressions over those names (or None for a
    replicated ``*`` target dim).
    """

    array: str
    source_dims: list[str]
    template: str
    target_subscripts: list[Optional[Expr]]


@dataclass
class DistFormat:
    """One dimension's distribution format: BLOCK, BLOCK(k), CYCLIC,
    CYCLIC(k), or ``*`` (collapsed / not distributed)."""

    kind: str  # 'block' | 'cyclic' | '*'
    param: Optional[Expr] = None

    def __str__(self) -> str:
        if self.kind == "*":
            return "*"
        return self.kind.upper() + (f"({self.param})" if self.param is not None else "")


@dataclass
class DistributeDecl:
    """``DISTRIBUTE (BLOCK, *, BLOCK) ONTO procs :: a, b, c`` or the
    per-array form ``DISTRIBUTE a(BLOCK, BLOCK)``."""

    arrays: list[str]
    formats: list[DistFormat]
    onto: Optional[str] = None


@dataclass
class LoopDirective:
    """Attached to a DO loop: ``INDEPENDENT [, NEW(v...)] [, LOCALIZE(v...)]``
    and/or ``REDUCTION(v...)``."""

    independent: bool = False
    new_vars: list[str] = field(default_factory=list)
    localize_vars: list[str] = field(default_factory=list)
    reduction_vars: list[str] = field(default_factory=list)

    def merge(self, other: "LoopDirective") -> "LoopDirective":
        return LoopDirective(
            independent=self.independent or other.independent,
            new_vars=self.new_vars + [v for v in other.new_vars if v not in self.new_vars],
            localize_vars=self.localize_vars
            + [v for v in other.localize_vars if v not in self.localize_vars],
            reduction_vars=self.reduction_vars
            + [v for v in other.reduction_vars if v not in self.reduction_vars],
        )
