"""§4.2 — LOCALIZE: partial replication of computation for distributed
arrays.

LOCALIZE differs from NEW in two ways: the marked arrays are *distributed*
and may be live after the loop, so the definition keeps its owner-computes
CP — the translated use CPs are *added* to it (boundary assignments are
replicated onto the processors that need them); and the scope is typically
an outer one-trip loop wrapping several loop nests (the paper adds exactly
such a loop around ``compute_rhs``), so definitions and uses live in
different nests.

The propagation machinery is shared with §4.1 (:mod:`.privatizable`) —
LOCALIZE is the ``include_owner=True`` mode — this module provides the
scope-level driver that applies it across the nests inside the one-trip
loop and verifies the result eliminates in-scope communication for the
marked arrays.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..distrib.layout import DistributionContext
from ..ir.expr import ArrayRef
from ..ir.stmt import Assign, DoLoop
from ..ir.visit import collect_array_refs, walk_stmts
from ..isets import ISet
from .model import cp_iteration_set
from .nest import NestInfo, access_data_set
from .privatizable import propagate_new_cps
from .select import StatementCP


def propagate_localize_cps(
    scope: DoLoop,
    localize_vars: Iterable[str],
    cps: dict[int, StatementCP],
    ctx: DistributionContext,
    params: Mapping[str, int] | None = None,
) -> dict[int, StatementCP]:
    """Propagate CPs for LOCALIZE'd arrays across the whole *scope* loop.

    ``cps`` must already contain the base selection for the consumer
    statements; entries for statements defining the marked arrays are
    replaced by ``owner ∪ translated-use`` CPs.
    """
    nest = NestInfo(scope, params)
    return propagate_new_cps(scope, localize_vars, cps, nest, ctx, include_owner=True)


def localized_comm_eliminated(
    scope: DoLoop,
    var: str,
    cps: dict[int, StatementCP],
    ctx: DistributionContext,
    eval_params: Mapping[str, int],
    rep_proc: Mapping[str, int],
) -> bool:
    """Check the §4.2 guarantee: with the propagated CPs, every use of the
    LOCALIZE'd array reads only data the representative processor computed
    itself — i.e. in-scope communication for *var* is gone.

    Concretely: union of elements of *var* computed locally (under def CPs)
    must cover every element read locally (under use CPs)."""
    var = var.lower()
    nest = NestInfo(scope, eval_params)
    binding = {**eval_params, **rep_proc}

    computed: Optional[ISet] = None
    needed: Optional[ISet] = None
    for stmt in walk_stmts([scope]):
        if not isinstance(stmt, Assign):
            continue
        scp = cps.get(stmt.sid)
        if scp is None:
            continue
        dims = nest.dims_of(stmt)
        bounds = nest.bounds_of(stmt)
        if bounds is None:
            return False
        iters = cp_iteration_set(scp.cp, dims, bounds.bind(eval_params), ctx).bind(binding)
        if isinstance(stmt.lhs, ArrayRef) and stmt.lhs.name.lower() == var:
            d = access_data_set(stmt.lhs, iters, dims)
            if d is None:
                return False
            computed = d if computed is None else computed.union(d)
        for ref in collect_array_refs(stmt.rhs):
            if ref.name.lower() != var:
                continue
            d = access_data_set(ref, iters, dims)
            if d is None:
                return False
            needed = d if needed is None else needed.union(d)
    if needed is None:
        return True  # never read in scope
    if computed is None:
        return False
    return needed.points() <= computed.points()
