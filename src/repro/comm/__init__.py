"""Communication analysis: non-local data sets → placed, vectorized,
coalesced communication events.

Given a loop nest with CPs selected, :class:`CommAnalyzer` derives, for the
representative processor:

- one *read* event per non-local read reference (data fetched from owners),
- one *write-back* event per non-owner write (dHPF's communication model
  requires values to return to the owner),

each placed at the outermost loop level that dependences allow (placement
= message vectorization: everything inside the placement level is
aggregated into one message per outer iteration), filtered by §7's
availability rule, and coalesced by (array, placement).

The SPMD benchmark schedules in :mod:`repro.parallel` are cross-checked
against these events' message counts and volumes in the test suite.
"""

from .events import CommEvent, Placement
from .analyzer import CommAnalyzer, CommPlan

__all__ = ["CommEvent", "Placement", "CommAnalyzer", "CommPlan"]
