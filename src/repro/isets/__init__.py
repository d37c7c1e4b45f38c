"""Symbolic integer set framework (a mini-Omega).

The dHPF compiler expresses its data-parallel analyses — iteration sets,
ownership sets, communication sets, computation partitions — as symbolic
integer tuple sets and solves optimization problems as sequences of set
equations (Adve & Mellor-Crummey, PLDI'98).  This package provides the same
abstraction: affine integer sets over named tuple dimensions with free
symbolic parameters, supporting intersection, union, difference, projection
(Fourier-Motzkin with dark-shadow integer reasoning), affine images,
subset and emptiness tests, and concrete enumeration / loop-bound extraction
for code generation.

Public API:

- :class:`LinExpr` — affine expression over named variables.
- :class:`Constraint` — ``expr == 0`` or ``expr >= 0``.
- :class:`BasicSet` — conjunction of constraints over an ordered dim tuple,
  with optional existentially quantified variables.
- :class:`ISet` — finite union of BasicSets in the same space.
- :class:`AffineMap` — affine map between tuple spaces (access images).
- :mod:`repro.isets.box` — the one reading of a set as boxes: the
  single-variable bound rule, :class:`~repro.isets.box.Box` and the
  canonical disjoint cover of a concrete set (``cover_of_set``), whose
  volume is ``ISet.cardinality``.
- helpers: :func:`box`, :func:`universe`, :func:`empty`.
"""

from .terms import LinExpr, Term
from .core import (
    BasicSet,
    BudgetExceeded,
    Constraint,
    IsetBudget,
    active_budget,
    cache_stats,
    iset_budget,
    new_epoch,
)
from .iset import ISet, box, universe, empty
from .profile import CompileProfile, phase, profiled
from .relation import AffineMap

__all__ = [
    "LinExpr",
    "Term",
    "Constraint",
    "BasicSet",
    "ISet",
    "AffineMap",
    "box",
    "universe",
    "empty",
    "cache_stats",
    "IsetBudget",
    "BudgetExceeded",
    "iset_budget",
    "active_budget",
    "new_epoch",
    "CompileProfile",
    "profiled",
    "phase",
]
