"""Computation partitioning (CP) — the dHPF model and its four new uses.

The CP of a statement is ``ON_HOME A1(f1(i)) ∪ ... ∪ An(fn(i))``: the
statement instance at iteration *i* executes on every processor owning any
of the named elements (§2).  Owner-computes is the 1-term special case.
This generality is what enables:

- :mod:`.privatizable` — §4.1 CP propagation for NEW arrays (translate use
  CPs back to the defining statement; boundary values get *partially
  replicated* computation).
- :mod:`.localize` — §4.2 LOCALIZE partial replication for distributed
  arrays (def CP = owner ∪ translated use CPs).
- :mod:`.loopdist` — §5 communication-sensitive loop distribution
  (union-find CP grouping over loop-independent dependences; selective SCC
  distribution for the rest).
- :mod:`.interproc` — §6 bottom-up interprocedural CP selection with
  template-space translation at call sites.
"""

from .model import SubScript, PointSub, RangeSub, OnHomeRef, CP, cp_key
from .select import CPSelector, StatementCP
from .privatizable import propagate_new_cps, translate_use_cp
from .localize import propagate_localize_cps
from .loopdist import CPGrouper, distribute_loop, GroupResult
from .interproc import InterproceduralCP

__all__ = [
    "SubScript", "PointSub", "RangeSub", "OnHomeRef", "CP", "cp_key",
    "CPSelector", "StatementCP",
    "propagate_new_cps", "translate_use_cp",
    "propagate_localize_cps",
    "CPGrouper", "distribute_loop", "GroupResult",
    "InterproceduralCP",
]
