"""Coordinated checkpoint/restart for the parallel solvers.

The dHPF and hand-MPI node programs checkpoint at iteration boundaries —
globally consistent cut points, since every rank finishes iteration *k*
before touching iteration *k+1* state (the ghost exchange at the top of
each step is the synchronizer).  A :class:`CheckpointStore` outlives the
executor: after a :class:`~repro.runtime.faults.RankCrashed` (virtual
machine) or a :class:`~repro.runtime.procexec.WorkerCrashed` (real
processes) the harness simply re-runs the same node program with the same
store, and every rank resumes from the latest iteration for which *all*
ranks saved a snapshot.  Because the solvers are deterministic, the
recovered run is bitwise identical to an uninterrupted one and still
passes NPB-style verification (:mod:`repro.nas.verify`).

Node programs save after every iteration.  Functional runs snapshot the
full local ``u`` tile (owned + ghost planes, exactly the state an
uninterrupted run would carry into the next iteration); work-model runs
snapshot only the iteration marker.
"""

from __future__ import annotations

import threading
from typing import Any


class CheckpointStore:
    """Snapshots keyed by (iteration, rank); survives executor restarts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snaps: dict[int, dict[int, Any]] = {}
        #: optional mirror hook ``(iteration, rank, state) -> None``.  The
        #: real-process executor sets this inside forked workers so saves
        #: are forwarded to the parent supervisor, whose copy of the store
        #: is the one a restarted gang inherits.
        self._publish = None

    def save(self, iteration: int, rank: int, state: Any) -> None:
        """Record ``state`` (an array, or None in work-model mode)."""
        if state is not None and hasattr(state, "copy"):
            state = state.copy()
        with self._lock:
            self._snaps.setdefault(iteration, {})[rank] = state
        if self._publish is not None:
            self._publish(iteration, rank, state)

    def latest_complete(self, nranks: int) -> int:
        """Newest iteration every rank checkpointed (0 = start over)."""
        with self._lock:
            complete = [it for it, s in self._snaps.items() if len(s) >= nranks]
        return max(complete, default=0)

    def restore(self, iteration: int, rank: int) -> Any:
        with self._lock:
            state = self._snaps[iteration][rank]
        return state.copy() if state is not None and hasattr(state, "copy") else state
