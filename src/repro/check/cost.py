"""Static LogGP cost analysis of compiled communication plans.

Given a kernel's communication plan and a :class:`~repro.runtime.model.
MachineModel`, this module *symbolically* computes — via integer-set
algebra, in closed form in the rank count where the counts are affine —

- per-statement and per-kernel **message counts** and **communicated
  bytes** (per rank and total),
- the **replicated-work fraction** (iterations every rank redundantly
  re-executes),
- the **wavefront serialization depth** (pipelined message rounds that
  cannot overlap),
- the per-rank **load balance** of the block ownership,

and folds them through the LogGP parameters into a predicted time
``T(nprocs)`` and speedup curve.

The communication counts are a *proof*, not a heuristic: for hoisted
events they are derived purely from iset intersections of per-rank need
sets with per-rank ownership sets — an independent computation from the
point-enumeration path that builds the executable routing tables
(:meth:`~repro.codegen.spmd.CompiledKernel._build_routes`).  The
validation mode (:func:`validate_against_trace`) replays a fault-free
virtual-machine trace and asserts the static per-rank message/byte
counters match the observed counters **exactly**; a mismatch is an
analyzer or compiler bug, and the tier-1 suite pins this for every
affine paper kernel and the NAS class-S pipelines.

Advisory diagnostics (:func:`cost_advisories`) surface the findings with
stable codes merged into :func:`repro.check.verify_kernel` reports:
``W-REPLICATED`` (fallback nests), ``W-SCALAR-WAVEFRONT`` (statements the
vector backend left without any vector level, with the planner's
reason), ``W-IMBALANCE`` (uneven block ownership), and — when a
machine model is supplied — ``W-COMM-HOT`` (a dominant communication
statement) and ``I-SCALE-LIMIT`` (a predicted speedup knee).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..comm.analyzer import CommPlan
from ..cp.model import cp_iteration_set
from ..cp.nest import NestInfo
from ..distrib.layout import PDIM, DistributionContext
from ..ir.expr import BinOp, FuncCall, UnOp
from ..ir.stmt import Assign, DoLoop
from ..ir.visit import walk_stmts
from ..runtime.model import MachineModel
from .diagnostics import (
    I_SCALE_LIMIT,
    W_COMM_HOT,
    W_IMBALANCE,
    W_REPLICATED,
    W_SCALAR_WAVEFRONT,
    Diagnostic,
    Severity,
)

#: advisory thresholds (module-level so tests can pin them)
IMBALANCE_TOL = 1.25        # max/mean partitioned iterations per rank
COMM_HOT_SHARE = 0.5        # one statement's share of predicted comm time
COMM_HOT_MIN_FRACTION = 0.2  # comm share of total predicted time
KNEE_GAIN = 0.02            # marginal speedup below this is "flat"

#: the paper's headline range: SP/BT on up to 25 processors
CURVE_PROCS: tuple[int, ...] = tuple(range(2, 26))


# ---------------------------------------------------------------------------
# cost records
# ---------------------------------------------------------------------------

@dataclass
class EventCost:
    """Statically derived cost of one communication event."""

    nest: int
    array: str
    kind: str  # 'read' | 'writeback'
    stmt_sid: Optional[int]
    level: int  # placement level (0 = hoisted)
    messages: int
    bytes: int
    elems: int
    pipelined: bool = False
    #: hoisted events are exact (trace-validated); pipelined counts are
    #: per-representative-rank lower bounds
    exact: bool = True


@dataclass
class NestCost:
    """Aggregated communication cost of one loop nest."""

    nest: int
    messages: int = 0
    bytes: int = 0
    elems: int = 0
    replicated: bool = False
    events: list[EventCost] = field(default_factory=list)


@dataclass
class RankCost:
    """Per-rank communication and work accounting."""

    rank: int
    sent_messages: int = 0
    sent_bytes: int = 0
    recv_messages: int = 0
    recv_bytes: int = 0
    #: partitioned iterations this rank executes (load-balance input)
    iterations: int = 0
    #: modeled floating-point operations (partitioned + replicated)
    flops: int = 0


@dataclass
class KernelCost:
    """The static cost analyzer's result for one compiled kernel."""

    subject: str
    nprocs: int
    grid_shape: tuple[int, ...]
    word_bytes: int
    nests: list[NestCost] = field(default_factory=list)
    ranks: list[RankCost] = field(default_factory=list)
    serial_iterations: int = 0
    replicated_iterations: int = 0
    serial_flops: int = 0
    wavefront_depth: int = 0
    #: True when every live event is hoisted and exactly countable, so the
    #: totals below must match a fault-free VM trace bit-for-bit
    exact: bool = True

    # -- totals ------------------------------------------------------------
    @property
    def messages(self) -> int:
        return sum(n.messages for n in self.nests)

    @property
    def bytes(self) -> int:
        return sum(n.bytes for n in self.nests)

    @property
    def elems(self) -> int:
        return sum(n.elems for n in self.nests)

    # -- derived metrics ---------------------------------------------------
    def replicated_fraction(self) -> float:
        """Fraction of serial iterations every rank redundantly re-runs."""
        if self.serial_iterations <= 0:
            return 0.0
        return self.replicated_iterations / self.serial_iterations

    def imbalance(self) -> float:
        """max/mean of per-rank partitioned iteration counts (1.0 is a
        perfect balance; undefined workloads report 1.0)."""
        counts = [r.iterations for r in self.ranks]
        total = sum(counts)
        if total <= 0:
            return 1.0
        return max(counts) / (total / len(counts))

    # -- LogGP folding -----------------------------------------------------
    def comm_time(self, model: MachineModel, rank: Optional[int] = None) -> float:
        """Predicted communication time: per-rank busy cost of its sends
        (half latency + overhead each, payload streaming, injection gap)
        plus the receive-side half latencies.  ``rank=None`` takes the
        maximum over ranks — the critical path of a bulk-synchronous
        phase."""
        if rank is None:
            if not self.ranks:
                return 0.0
            return max(self.comm_time(model, r.rank) for r in self.ranks)
        r = self.ranks[rank]
        half = model.alpha / 2 + model.o
        busy = (
            (r.sent_messages + r.recv_messages) * half
            + r.sent_bytes * model.beta
            + max(0, r.sent_messages - 1) * model.g
        )
        return busy

    def compute_time(self, model: MachineModel) -> float:
        if not self.ranks:
            return self.serial_flops * model.flop_time
        return max(r.flops for r in self.ranks) * model.flop_time

    def predicted_time(self, model: MachineModel) -> float:
        """T(nprocs): slowest rank's compute + the comm critical path +
        the serialized wavefront rounds (each a full message latency)."""
        serialization = self.wavefront_depth * (model.alpha + 2 * model.o)
        return self.compute_time(model) + self.comm_time(model) + serialization

    def serial_time(self, model: MachineModel) -> float:
        return self.serial_flops * model.flop_time

    def predicted_speedup(self, model: MachineModel) -> float:
        t = self.predicted_time(model)
        if t <= 0:
            return float(self.nprocs)
        return self.serial_time(model) / t

    def as_dict(self) -> dict:
        return {
            "subject": self.subject,
            "nprocs": self.nprocs,
            "grid": list(self.grid_shape),
            "messages": self.messages,
            "bytes": self.bytes,
            "elems": self.elems,
            "exact": self.exact,
            "replicated_fraction": self.replicated_fraction(),
            "imbalance": self.imbalance(),
            "wavefront_depth": self.wavefront_depth,
            "per_rank": [
                {
                    "rank": r.rank,
                    "sent_messages": r.sent_messages,
                    "sent_bytes": r.sent_bytes,
                    "recv_messages": r.recv_messages,
                    "recv_bytes": r.recv_bytes,
                    "iterations": r.iterations,
                }
                for r in self.ranks
            ],
        }


# ---------------------------------------------------------------------------
# the analyzer
# ---------------------------------------------------------------------------

def _stmt_flops(stmt: Assign) -> int:
    """Modeled flops of one statement execution: the arithmetic operator
    count of its right-hand side (at least 1)."""
    n = sum(
        1 for e in stmt.rhs.walk() if isinstance(e, (BinOp, UnOp, FuncCall))
    )
    return max(n, 1)


def _pbind(grid, rank: int) -> dict[str, int]:
    return {PDIM(g): c for g, c in enumerate(grid.delinearize(rank))}


class _OwnershipTable:
    """Per-(array, rank) concrete ownership sets, cached per analysis."""

    def __init__(self, ctx: DistributionContext, params: Mapping[str, int], grid):
        self.ctx = ctx
        self.params = dict(params)
        self.grid = grid
        self._own: dict[tuple[str, int], object] = {}

    def owned(self, array: str, rank: int):
        key = (array, rank)
        if key not in self._own:
            layout = self.ctx.layout(array)
            self._own[key] = layout.ownership().bind(
                {**self.params, **_pbind(self.grid, rank)}
            )
        return self._own[key]


def _event_flows(ev, own: _OwnershipTable, params: Mapping[str, int], grid):
    """Exact per-pair flows ``{(src, dst): elems}`` of one hoisted event,
    from pure iset algebra: rank *r*'s need set intersected with every
    other rank's ownership set.  Independent of the route builder's
    point-enumeration + owner-arithmetic path, so agreement with the
    executed trace is a genuine cross-check."""
    flows: dict[tuple[int, int], int] = {}
    for r in range(grid.size):
        need = ev.data.bind({**params, **_pbind(grid, r)})
        if need.is_empty():
            continue
        for q in range(grid.size):
            if q == r:
                continue
            n = need.intersect(own.owned(ev.array, q)).cardinality()
            if n == 0:
                continue
            pair = (q, r) if ev.kind == "read" else (r, q)
            flows[pair] = flows.get(pair, 0) + n
    return flows


def _cost_from_parts(
    subject: str,
    ctx: DistributionContext,
    params: Mapping[str, int],
    cps: Mapping[int, object],
    nest_plans: Sequence[tuple[DoLoop, CommPlan]],
    nprocs: int,
    word_bytes: int = 8,
) -> KernelCost:
    grid = ctx.the_grid()
    cost = KernelCost(
        subject=subject,
        nprocs=nprocs,
        grid_shape=grid.shape,
        word_bytes=word_bytes,
        ranks=[RankCost(r) for r in range(nprocs)],
    )
    own = _OwnershipTable(ctx, params, grid)
    for nest_idx, (root, plan) in enumerate(nest_plans):
        nc = NestCost(nest_idx)
        nc.replicated = any(
            getattr(cps.get(s.sid), "is_fallback", False)
            for s in walk_stmts([root])
            if isinstance(s, Assign)
        )
        for ev in plan.live_events():
            if ev.placement.hoisted:
                flows = _event_flows(ev, own, params, grid)
                msgs = len(flows)
                elems = sum(flows.values())
                ec = EventCost(
                    nest=nest_idx,
                    array=ev.array,
                    kind=ev.kind,
                    stmt_sid=ev.stmt.sid if isinstance(ev.stmt, Assign) else None,
                    level=0,
                    messages=msgs,
                    bytes=elems * word_bytes,
                    elems=elems,
                )
                for (src, dst), n in flows.items():
                    cost.ranks[src].sent_messages += 1
                    cost.ranks[src].sent_bytes += n * word_bytes
                    cost.ranks[dst].recv_messages += 1
                    cost.ranks[dst].recv_bytes += n * word_bytes
            else:
                # Pipelined: per-representative-rank rounds x volume.  Not
                # executable by the code generator, so never trace-
                # validated; counts are per-rank lower bounds.
                rounds = ev.message_count(dict(params), plan._trip)
                elems = ev.volume(dict(params))
                ec = EventCost(
                    nest=nest_idx,
                    array=ev.array,
                    kind=ev.kind,
                    stmt_sid=ev.stmt.sid if isinstance(ev.stmt, Assign) else None,
                    level=ev.placement.level,
                    messages=rounds,
                    bytes=elems * word_bytes,
                    elems=elems,
                    pipelined=True,
                    exact=False,
                )
                cost.exact = False
                cost.wavefront_depth = max(cost.wavefront_depth, rounds)
            nc.events.append(ec)
            nc.messages += ec.messages
            nc.bytes += ec.bytes
            nc.elems += ec.elems
        cost.nests.append(nc)
        # -- work accounting ----------------------------------------------
        nest = NestInfo(root, dict(params))
        for stmt in walk_stmts([root]):
            if not isinstance(stmt, Assign):
                continue
            bounds = nest.bounds_of(stmt)
            if bounds is None:
                continue  # non-affine loop structure: no static count
            serial = bounds.bind(dict(params)).cardinality()
            w = _stmt_flops(stmt)
            cost.serial_iterations += serial
            cost.serial_flops += w * serial
            scp = cps.get(stmt.sid)
            if scp is None or scp.cp.is_replicated:
                cost.replicated_iterations += serial
                for r in cost.ranks:
                    r.flops += w * serial
                continue
            dims = nest.dims_of(stmt)
            iters = cp_iteration_set(scp.cp, dims, bounds.bind(dict(params)), ctx)
            for r in cost.ranks:
                n_r = iters.bind(
                    {**params, **_pbind(grid, r.rank)}
                ).cardinality()
                r.iterations += n_r
                r.flops += w * n_r
    return cost


def kernel_cost(kernel) -> KernelCost:
    """Static cost of a compiled kernel (exact for hoisted plans)."""
    return _cost_from_parts(
        kernel.sub.name,
        kernel.ctx,
        kernel.params,
        kernel.cps,
        kernel.nest_plans,
        kernel.nprocs,
    )


def wildcard_grid(sub):
    """Deep copy of *sub* with every PROCESSORS extent replaced by a
    wildcard, so :class:`DistributionContext` near-square-factors any
    target rank count — the P-sweep behind the predicted speedup curve."""
    out = copy.deepcopy(sub)
    for p in out.processors:
        p.shape = [None] * len(p.shape)
    return out


def _artifact_cost(art, nprocs: int, subject: Optional[str]) -> KernelCost:
    return _cost_from_parts(
        subject or art.sub.name, art.ctx, art.merged, art.cps,
        art.nest_plans, nprocs,
    )


def analysis_cost(
    source_or_sub,
    nprocs: int,
    params: Mapping[str, int] | None = None,
    subject: Optional[str] = None,
) -> KernelCost:
    """Cost via the analysis half of the pipeline only (no code
    generation) — accepts the pipelined kernels ``compile_kernel``
    rejects."""
    from ..compile.pipeline import analyze_source

    return _artifact_cost(
        analyze_source(source_or_sub, nprocs, params), nprocs, subject
    )


def sweep_cost(
    source_or_sub,
    params: Mapping[str, int] | None = None,
    procs: Sequence[int] = CURVE_PROCS,
    subject: Optional[str] = None,
) -> list[KernelCost]:
    """One kernel's cost at every rank count in *procs* (processor grids
    wildcarded so any count factors): parsed and CP-selected once, its
    communication specialized per count."""
    from ..compile.pipeline import stage_parse, stage_select, stage_specialize
    from ..diag import DiagnosticSink

    params = dict(params or {})
    sub = wildcard_grid(stage_parse(source_or_sub, DiagnosticSink(strict=True)))
    selection = stage_select(sub, params)
    return [
        _artifact_cost(stage_specialize(selection, p, params), p, subject)
        for p in procs
    ]


def closed_form(series: Sequence[tuple[int, int]]) -> Optional[str]:
    """Closed form of a count as a function of the rank count, when one
    exists: fits ``c(P) = a*P + b`` on two anchors and verifies the fit
    *exactly* on every evaluated point.  Returns a rendering like
    ``"4*P - 8"``, or None when the series is not affine in P (honest:
    no interpolation is ever reported as closed form)."""
    pts = [(int(p), int(v)) for p, v in series]
    if len(pts) < 2:
        return None
    (p0, v0), (p1, v1) = pts[0], pts[-1]
    if p1 == p0:
        return None
    num, den = v1 - v0, p1 - p0
    if num % den != 0:
        return None
    a = num // den
    b = v0 - a * p0
    if any(v != a * p + b for p, v in pts):
        return None
    if a == 0:
        return str(b)
    term = "P" if a == 1 else f"{a}*P"
    if b == 0:
        return term
    return f"{term} {'+' if b > 0 else '-'} {abs(b)}"


# ---------------------------------------------------------------------------
# predicted scaling curve
# ---------------------------------------------------------------------------

@dataclass
class CurvePoint:
    nprocs: int
    time: float
    speedup: float
    messages: int
    bytes: int


def predicted_curve(
    costs: Sequence[KernelCost], model: MachineModel
) -> list[CurvePoint]:
    """Fold a rank-count sweep through the LogGP parameters."""
    return [
        CurvePoint(
            nprocs=c.nprocs,
            time=c.predicted_time(model),
            speedup=c.predicted_speedup(model),
            messages=c.messages,
            bytes=c.bytes,
        )
        for c in costs
    ]


def scale_limit(curve: Sequence[CurvePoint]) -> Optional[CurvePoint]:
    """The predicted speedup knee: the point after which no later rank
    count improves on the best speedup so far by at least
    :data:`KNEE_GAIN`.  Tracking the running best (rather than adjacent
    pairs) keeps single awkward grid factorizations — a prime P forced
    into a 1xP grid, say — from masquerading as the knee.  Returns None
    when the sweep is still scaling at its last point."""
    if not curve:
        return None
    knee = curve[0]
    for pt in curve[1:]:
        if pt.speedup > knee.speedup * (1.0 + KNEE_GAIN):
            knee = pt
    if knee is curve[-1]:
        return None
    return knee


# ---------------------------------------------------------------------------
# advisories
# ---------------------------------------------------------------------------

def cost_advisories(
    cost: KernelCost,
    kernel=None,
    model: Optional[MachineModel] = None,
    curve: Optional[Sequence[CurvePoint]] = None,
) -> list[Diagnostic]:
    """Advisory diagnostics derived from a :class:`KernelCost`.

    Structural advisories (``W-REPLICATED``, ``W-SCALAR-WAVEFRONT``,
    ``W-IMBALANCE``) need only the cost record (plus the kernel for the
    vectorizer's loop reports); the model-dependent ones (``W-COMM-HOT``,
    ``I-SCALE-LIMIT``) fire only when a machine *model* (and, for the
    knee, a predicted *curve*) is supplied."""
    out: list[Diagnostic] = []
    for nc in cost.nests:
        if nc.replicated:
            out.append(Diagnostic(
                Severity.WARN, W_REPLICATED,
                f"nest runs replicated on all {cost.nprocs} ranks "
                f"({nc.messages} broadcast messages, {nc.bytes} bytes); "
                "no parallel speedup from this nest",
                nest=nc.nest,
            ))
    if kernel is not None:
        try:
            kernel.python_source("mpi")  # fills vector_report
        except Exception:
            pass
        for sid, rep in sorted(getattr(kernel, "vector_report", {}).items()):
            # a sunk wavefront reports "vector" (its sequential loops are
            # named in the reason): only statements left without any
            # vector level run one Python iteration per point
            status = getattr(rep, "status", "vector")
            if status == "vector":
                continue
            what = (
                "runs as a scalar Python loop" if status == "scalar"
                else "keeps statements "
                f"{', '.join(f's{x}' for x in rep.scalar_sids)} in a scalar "
                "mini-loop"
            )
            reason = getattr(rep, "reason", "") or "no vector level"
            out.append(Diagnostic(
                Severity.WARN, W_SCALAR_WAVEFRONT,
                f"loop {getattr(rep, 'loop_var', '?')} {what} under the "
                f"vector backend: {reason}",
                stmt_sid=sid,
            ))
    imb = cost.imbalance()
    if imb > IMBALANCE_TOL:
        counts = [r.iterations for r in cost.ranks]
        out.append(Diagnostic(
            Severity.WARN, W_IMBALANCE,
            f"uneven block ownership: max/mean partitioned iterations = "
            f"{imb:.2f} (per-rank {counts}); the slowest rank bounds the "
            "parallel time",
        ))
    if model is not None:
        total_comm = cost.comm_time(model)
        total_time = cost.predicted_time(model)
        if total_comm > 0 and total_time > 0:
            by_stmt: dict[Optional[int], tuple[int, int, str]] = {}
            for nc in cost.nests:
                for ec in nc.events:
                    m, b, a = by_stmt.get(ec.stmt_sid, (0, 0, ec.array))
                    by_stmt[ec.stmt_sid] = (
                        m + ec.messages, b + ec.bytes, a
                    )
            times = {
                sid: model.loggp_time(m, b)
                for sid, (m, b, _a) in by_stmt.items()
            }
            kernel_comm = sum(times.values())
            if kernel_comm > 0:
                hot_sid = max(times, key=lambda s: times[s])
                share = times[hot_sid] / kernel_comm
                if (
                    share >= COMM_HOT_SHARE
                    and total_comm >= COMM_HOT_MIN_FRACTION * total_time
                ):
                    m, b, array = by_stmt[hot_sid]
                    out.append(Diagnostic(
                        Severity.WARN, W_COMM_HOT,
                        f"statement dominates predicted communication time "
                        f"({share:.0%} of it: {m} messages, {b} bytes for "
                        f"array {array!r}); communication is "
                        f"{total_comm / total_time:.0%} of the predicted "
                        "kernel time",
                        stmt_sid=hot_sid, array=array,
                    ))
        if curve:
            knee = scale_limit(curve)
            if knee is not None:
                out.append(Diagnostic(
                    Severity.INFO, I_SCALE_LIMIT,
                    f"predicted speedup flattens at ~{knee.nprocs} ranks "
                    f"(S={knee.speedup:.2f}); adding ranks beyond this "
                    f"gains <{KNEE_GAIN:.0%} per rank under the "
                    "communication model",
                ))
    return out


# ---------------------------------------------------------------------------
# trace validation
# ---------------------------------------------------------------------------

@dataclass
class CostValidation:
    """Exact-match comparison of static counts vs an observed trace."""

    subject: str
    nprocs: int
    predicted_messages: int
    measured_messages: int
    predicted_bytes: int
    measured_bytes: int
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def validate_against_trace(cost: KernelCost, trace) -> CostValidation:
    """Assert the static per-rank and total message/byte counts equal a
    fault-free VM trace's counters exactly.  Only meaningful for
    ``cost.exact`` analyses (hoisted plans); any difference is reported,
    none are tolerated."""
    result = CostValidation(
        subject=cost.subject,
        nprocs=cost.nprocs,
        predicted_messages=cost.messages,
        measured_messages=trace.total_messages(),
        predicted_bytes=cost.bytes,
        measured_bytes=trace.total_bytes(),
    )
    if not cost.exact:
        result.mismatches.append(
            "cost analysis is not exact (pipelined events); trace "
            "validation is undefined for this kernel"
        )
        return result
    if result.predicted_messages != result.measured_messages:
        result.mismatches.append(
            f"total messages: predicted {result.predicted_messages}, "
            f"measured {result.measured_messages}"
        )
    if result.predicted_bytes != result.measured_bytes:
        result.mismatches.append(
            f"total bytes: predicted {result.predicted_bytes}, "
            f"measured {result.measured_bytes}"
        )
    for r, stats in zip(cost.ranks, trace.comm_stats_all()):
        for attr in ("sent_messages", "sent_bytes", "recv_messages", "recv_bytes"):
            want = getattr(r, attr)
            got = getattr(stats, attr)
            if want != got:
                result.mismatches.append(
                    f"rank {r.rank} {attr.replace('_', ' ')}: "
                    f"predicted {want}, measured {got}"
                )
    return result


# ---------------------------------------------------------------------------
# plan-cache integration
# ---------------------------------------------------------------------------

def _cost_digest(kernel_digest: str, model: Optional[MachineModel]) -> str:
    import hashlib

    ident = "none" if model is None else (
        f"{model.name}|{model.flop_time!r}|{model.alpha!r}|{model.beta!r}|"
        f"{model.o!r}|{model.g!r}|{model.word_bytes}"
    )
    return hashlib.sha256(
        f"cost-v1|{kernel_digest}|{ident}".encode()
    ).hexdigest()


def cached_kernel_cost(
    source: str,
    nprocs: int,
    params: Mapping[str, int] | None = None,
    backend: str = "vector",
    strict: bool = True,
    model: Optional[MachineModel] = None,
):
    """Compile *source* (through the plan cache) and return
    ``(kernel, cost, cost_cached)``.  The cost record is stored in the
    active plan cache under a digest derived from the kernel digest and
    the machine-model identity, so warm hits replay the analysis — and
    therefore its advisories — without re-running the iset algebra."""
    import pickle

    from ..codegen import compile_kernel
    from ..compile.cache import active_cache
    from ..compile.key import PlanKey

    kernel = compile_kernel(
        source, nprocs=nprocs, params=dict(params or {}),
        backend=backend, strict=strict,
    )
    cache = active_cache()
    if cache is None:
        return kernel, kernel_cost(kernel), False
    key = PlanKey.for_source(
        source, nprocs, params=params, backend=backend, strict=strict
    )
    digest = _cost_digest(key.kernel_digest, model)
    payload = cache.get(digest)
    if payload is not None:
        try:
            cost = pickle.loads(payload)
            if isinstance(cost, KernelCost):
                return kernel, cost, True
        except Exception:
            pass  # corrupt payload: fall through and recompute
    cost = kernel_cost(kernel)
    cache.put(digest, pickle.dumps(cost, protocol=pickle.HIGHEST_PROTOCOL))
    return kernel, cost, False


__all__ = [
    "EventCost",
    "NestCost",
    "RankCost",
    "KernelCost",
    "CurvePoint",
    "CostValidation",
    "kernel_cost",
    "analysis_cost",
    "sweep_cost",
    "predicted_curve",
    "scale_limit",
    "closed_form",
    "cost_advisories",
    "validate_against_trace",
    "cached_kernel_cost",
    "wildcard_grid",
    "CURVE_PROCS",
    "IMBALANCE_TOL",
    "COMM_HOT_SHARE",
    "COMM_HOT_MIN_FRACTION",
    "KNEE_GAIN",
]
