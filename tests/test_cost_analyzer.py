"""Integration tests: static LogGP cost analysis vs executed traces.

The analyzer's headline contract: for every affine kernel the statically
derived per-rank message/byte counts equal a fault-free VM trace's
counters **exactly** — the counts are the volumes of ``CommEvent.flows``,
the trace counts what ``exec_comm`` actually sent.  ``flows`` itself is
pinned against the per-element algorithm (every needed element, its
owner by ``owner_coords_of``) written out here as the oracle.  Plus:
advisory codes, the predicted scaling curve, closed forms in P, and
plan-cache replay of cost artifacts.
"""

import inspect

import pytest

from repro.check.cost import (
    CurvePoint,
    analysis_cost,
    cached_kernel_cost,
    closed_form,
    cost_advisories,
    kernel_cost,
    predicted_curve,
    scale_limit,
    sweep_cost,
    validate_against_trace,
)
from repro.check import (
    CheckReport,
    Diagnostic,
    Severity,
    W_COMM_HOT,
    W_IMBALANCE,
    W_REPLICATED,
    W_SCALAR_WAVEFRONT,
)
from repro.codegen import compile_kernel
from repro.compile.pipeline import analyze_source
from repro.distrib.layout import proc_binding
from repro.eval.fuzz import _mpi_mismatch, _serial_reference, gen_spec
from repro.isets.box import cover_of_points, cover_points
from repro.nas.specs import all_specs
from repro.runtime.model import MachineModel, TEST_MACHINE
from repro.runtime.sim import VirtualMachine


HALO_1D = """
      program halo
      parameter (n = 16)
      real a(n), b(n)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ distribute b(block) onto p
      do i = 2, n
         b(i) = a(i-1)
      enddo
      end
"""

#: ``c`` is replicated along the second grid axis: each element has two
#: owners, and one of them (the replica ``owner_coords_of`` names) sends
REPLICATED_AXIS = """
      program repl
      parameter (n = 8)
      real b(n), c(n)
!hpf$ processors p(2, 2)
!hpf$ template t(n, n)
!hpf$ distribute t(block, block) onto p
!hpf$ align b(i) with t(i, *)
!hpf$ align c(i) with t(i, *)
      do i = 2, n
         b(i) = c(i - 1)
      enddo
      end
"""

#: owner sets that are not unions of boxes: read from their stride witness
CYCLIC_HALO = """
      program cyc
      parameter (n = 16)
      real a(n), b(n)
!hpf$ processors p(4)
!hpf$ distribute a(cyclic) onto p
!hpf$ distribute b(cyclic) onto p
      do i = 2, n
         b(i) = a(i - 1) + a(i)
      enddo
      end
"""

#: multipartitioned (§9) halo: owner sets read from their witnesses
MULTI_HALO = """
      subroutine relax(n)
      integer n, i, j, k
      parameter (nx = 5)
      double precision u(0:nx, 0:nx, 0:nx), v(0:nx, 0:nx, 0:nx)
chpf$ processors p(2, 2)
chpf$ distribute u(multi, multi, multi) onto p
chpf$ distribute v(multi, multi, multi) onto p
      do k = 1, n - 1
         do j = 0, n - 1
            do i = 1, n - 1
               v(i, j, k) = u(i - 1, j, k) + u(i, j, k - 1)
            enddo
         enddo
      enddo
      end
"""


def _traced_run(ck, scalars=None):
    vm = VirtualMachine(ck.nprocs, record_trace=True)
    ck.run(scalars or {}, vm=vm)
    return vm.trace


class TestExactTraceMatch:
    def test_halo_kernel_counts_match_exactly(self):
        ck = compile_kernel(HALO_1D, 4)
        cost = kernel_cost(ck)
        # 1D block halo: every rank but the first needs one element from
        # its left neighbour -> P-1 messages of one word each
        assert cost.exact
        assert cost.messages == 3
        assert cost.bytes == 3 * 8
        v = validate_against_trace(cost, _traced_run(ck))
        assert v.ok, v.mismatches

    def test_per_rank_counters_match(self):
        ck = compile_kernel(HALO_1D, 4)
        cost = kernel_cost(ck)
        trace = _traced_run(ck)
        for r, st in zip(cost.ranks, trace.comm_stats_all()):
            assert (r.sent_messages, r.sent_bytes) == (
                st.sent_messages, st.sent_bytes)
            assert (r.recv_messages, r.recv_bytes) == (
                st.recv_messages, st.recv_bytes)

    def test_validation_matrix_is_exact(self):
        # the full paper-kernel + NAS class-S matrix (4 and 8 ranks),
        # exactly as `python -m repro.eval cost` replays it
        from repro.eval.cost import cost_rows

        rows = cost_rows(validate=True)
        validated = [r for r in rows if r.validation is not None]
        assert len(validated) >= 8
        for row in validated:
            assert row.validation.ok, (row.name, row.validation.mismatches)
        # the matrix must not be vacuous: the halo kernels communicate
        assert any(r.validation.measured_messages > 0 for r in validated)

    def test_replicated_axis_counts_one_sender_per_element(self):
        """Ranks (1, 0) and (1, 1) each need c(4), which ranks (0, 0) and
        (0, 1) both own: only the primary replica (0, 0) sends, so the
        prediction is 2 messages of one word, as the trace measures."""
        ck = compile_kernel(REPLICATED_AXIS, 4)
        cost = kernel_cost(ck)
        assert (cost.messages, cost.bytes) == (2, 16)
        trace = _traced_run(ck)
        v = validate_against_trace(cost, trace)
        assert v.ok, v.mismatches
        ref = _serial_reference(REPLICATED_AXIS)
        assert _mpi_mismatch(ck, ck.run({}), ref, "replicated") is None

    def test_degraded_kernel_broadcasts_are_counted_exactly(self):
        from repro.check.targets import DEGRADED_EXAMPLE

        ck = compile_kernel(DEGRADED_EXAMPLE, 4, strict=False)
        cost = kernel_cost(ck)
        assert cost.exact
        assert cost.messages > 0  # replicated fallback broadcasts
        assert cost.replicated_fraction() > 0
        v = validate_against_trace(cost, _traced_run(ck))
        assert v.ok, v.mismatches


class TestAdvisories:
    def test_replicated_and_scalar_wavefront_fire_on_degraded_example(self):
        from repro.check.targets import available_targets

        report = available_targets()["degraded-example"]()
        assert report.ok  # advisories warn, they do not fail verification
        assert report.by_code(W_REPLICATED)
        assert report.by_code(W_SCALAR_WAVEFRONT)

    def test_scalar_wavefront_names_only_statements_without_a_vector_level(self):
        """A sunk wavefront is vectorised — its sequential loop is named in
        the report, not warned about; a recurrence with no other loop to
        slice keeps the advisory, worded with the planner's reason."""
        sunk = """
      program sunk
      parameter (n = 8)
      real a(n, n)
!hpf$ processors p(2)
!hpf$ distribute a(*, block) onto p
      do j = 1, n
         do i = 2, n
            a(i, j) = a(i - 1, j) + 1.0
         enddo
      enddo
      end
"""
        ck = compile_kernel(sunk, 2)
        advisories = cost_advisories(kernel_cost(ck), kernel=ck)
        assert W_SCALAR_WAVEFRONT not in {d.code for d in advisories}
        (report,) = ck.vector_report.values()
        assert report.status == "vector" and report.sequential == ("i",)

        bare = sunk.replace("      do j = 1, n\n", "").replace(
            "         enddo\n      enddo", "         enddo").replace("j)", "3)")
        ck = compile_kernel(bare, 2)
        (warning,) = [
            d for d in cost_advisories(kernel_cost(ck), kernel=ck)
            if d.code == W_SCALAR_WAVEFRONT
        ]
        assert "runs as a scalar Python loop" in warning.message
        assert "carried flow dependence on 'a'" in warning.message

    def test_imbalance_fires_on_uneven_block(self):
        src = HALO_1D.replace("(n = 16)", "(n = 5)")
        ck = compile_kernel(src, 4)
        cost = kernel_cost(ck)
        assert cost.imbalance() > 1.25
        codes = {d.code for d in cost_advisories(cost, kernel=ck)}
        assert W_IMBALANCE in codes

    def test_comm_hot_requires_a_machine_model(self):
        ck = compile_kernel(HALO_1D, 4)
        cost = kernel_cost(ck)
        without = {d.code for d in cost_advisories(cost, kernel=ck)}
        assert W_COMM_HOT not in without
        slow_net = MachineModel(
            name="slow-net", flop_time=1e-12, alpha=1.0, beta=0.0
        )
        with_model = {
            d.code for d in cost_advisories(cost, kernel=ck, model=slow_net)
        }
        assert W_COMM_HOT in with_model

    def test_verify_kernel_merges_advisories_without_breaking_clean_runs(self):
        from repro.check import verify_kernel

        ck = compile_kernel(HALO_1D, 4)
        report = verify_kernel(ck)
        assert report.ok
        # a clean, balanced, vectorized halo kernel gets no advisories
        assert not report.warnings()

    def test_min_severity_ordering_is_deterministic(self):
        report = CheckReport("order")
        report.add(Diagnostic(Severity.INFO, "I-SCALE-LIMIT", "knee"))
        report.add(Diagnostic(Severity.WARN, "W-REPLICATED", "repl", nest=1))
        report.add(Diagnostic(Severity.ERROR, "E-COVERAGE", "cov"))
        report.add(Diagnostic(Severity.WARN, "W-COMM-HOT", "hot", nest=0))
        text = report.format()
        lines = [ln.strip() for ln in text.splitlines()[1:]]
        assert lines[0].startswith("error: E-COVERAGE")
        assert lines[1].startswith("warn: W-COMM-HOT")
        assert lines[2].startswith("warn: W-REPLICATED")
        assert lines[3].startswith("info: I-SCALE-LIMIT")
        floor = report.format(min_severity=Severity.WARN)
        assert "I-SCALE-LIMIT" not in floor
        assert "W-COMM-HOT" in floor and "E-COVERAGE" in floor


class TestScalingCurve:
    def test_sweep_finds_closed_form_in_p(self):
        costs = sweep_cost(HALO_1D, procs=(2, 4, 8))
        msgs = [(c.nprocs, c.messages) for c in costs]
        assert msgs == [(2, 1), (4, 3), (8, 7)]
        assert closed_form(msgs) == "P - 1"
        assert closed_form([(c.nprocs, c.bytes) for c in costs]) == "8*P - 8"

    def test_sweep_selects_once_and_equals_per_count_analysis(self):
        from repro.check.cost import wildcard_grid
        from repro.frontend import parse_source
        from repro.isets.profile import profiled

        procs = (2, 3, 8)
        # one parse for both sides: statement ids come from a global counter
        sub = next(iter(parse_source(HALO_1D).units.values()))
        with profiled("sweep") as prof:
            costs = sweep_cost(sub, procs=procs)
        phases = prof.root.children
        assert phases["select"].calls == 1
        assert phases["specialize"].calls == len(procs)
        assert costs == [analysis_cost(wildcard_grid(sub), p) for p in procs]

    def test_closed_form_rejects_non_affine_series(self):
        assert closed_form([(2, 4), (4, 16), (8, 64)]) is None
        assert closed_form([(2, 5)]) is None
        assert closed_form([(2, 6), (4, 6), (8, 6)]) == "6"

    def test_predicted_curve_and_speedup(self):
        costs = sweep_cost(HALO_1D, procs=(2, 4, 8))
        curve = predicted_curve(costs, TEST_MACHINE)
        assert [pt.nprocs for pt in curve] == [2, 4, 8]
        assert all(pt.time > 0 for pt in curve)
        assert all(pt.speedup > 0 for pt in curve)

    def test_scale_limit_finds_plateau(self):
        curve = [
            CurvePoint(2, 1.0, 1.9, 0, 0),
            CurvePoint(4, 0.6, 3.4, 0, 0),
            CurvePoint(8, 0.55, 3.45, 0, 0),  # < 2% over the best so far
            CurvePoint(16, 0.54, 3.46, 0, 0),
        ]
        knee = scale_limit(curve)
        assert knee is not None and knee.nprocs == 4
        # a single awkward grid factorization mid-sweep is not a knee
        dip = [
            CurvePoint(2, 1.0, 2.0, 0, 0),
            CurvePoint(3, 1.1, 1.8, 0, 0),  # prime P forced into 1x3
            CurvePoint(4, 0.5, 4.0, 0, 0),
            CurvePoint(8, 0.3, 6.7, 0, 0),
        ]
        assert scale_limit(dip) is None
        rising = [
            CurvePoint(2, 1.0, 2.0, 0, 0),
            CurvePoint(4, 0.5, 4.0, 0, 0),
            CurvePoint(8, 0.25, 8.0, 0, 0),
        ]
        assert scale_limit(rising) is None


class TestPipelinedAnalysis:
    def test_pipelined_kernel_costed_but_not_validated(self):
        from repro.nas import kernels

        cost = analysis_cost(kernels.Y_SOLVE_SP, 4, {"n": 17, "m": 0})
        assert not cost.exact
        assert cost.wavefront_depth > 0

        class _FakeTrace:
            def total_messages(self):
                return 0

            def total_bytes(self):
                return 0

            def comm_stats_all(self):
                return []

        v = validate_against_trace(cost, _FakeTrace())
        assert not v.ok  # refuses to claim exactness for pipelined plans


class TestCostCache:
    def test_cost_artifact_replayed_on_warm_hit(self, tmp_path):
        from repro.compile import PlanCache, PlanCacheConfig, use_cache

        cache = PlanCache(PlanCacheConfig(directory=str(tmp_path / "plans")))
        with use_cache(cache):
            _ck1, cost1, cached1 = cached_kernel_cost(HALO_1D, 4)
            _ck2, cost2, cached2 = cached_kernel_cost(HALO_1D, 4)
        assert not cached1
        assert cached2
        assert cost1.messages == cost2.messages == 3
        assert cost1.bytes == cost2.bytes
        assert [r.sent_messages for r in cost1.ranks] == [
            r.sent_messages for r in cost2.ranks]

    def test_kernel_digest_alone_keys_the_cost_digest(self):
        """The cached record is ``kernel_cost(kernel)``, which reads no
        machine model: one kernel, one entry."""
        from repro.check.cost import _cost_digest

        assert _cost_digest("abc") == _cost_digest("abc")
        assert _cost_digest("abc") != _cost_digest("abd")
        assert "model" not in inspect.signature(cached_kernel_cost).parameters


class TestTraceCounters:
    def test_trace_counters_and_series(self):
        ck = compile_kernel(HALO_1D, 4)
        trace = _traced_run(ck)
        stats = trace.comm_stats_all()
        assert sum(s.sent_messages for s in stats) == trace.total_messages()
        assert sum(s.sent_bytes for s in stats) == trace.total_bytes()
        assert sum(s.recv_messages for s in stats) == trace.total_messages()
        series = trace.to_series()
        assert [c["rank"] for c in series["comm"]] == [0, 1, 2, 3]
        assert series["comm"][1]["recv_messages"] == stats[1].recv_messages


# -- flows against the per-element oracle ---------------------------------------

def _oracle_flows(ev, ctx, params, grid):
    """Who sends what, element by element: every element a rank needs,
    sent by the owner ``owner_coords_of`` names (write-backs reversed)."""
    layout = ctx.layout(ev.array)
    pairs = {}
    for r in range(grid.size):
        need = ev.data.bind({**params, **proc_binding(grid.delinearize(r))})
        for elem in need.points():
            owner = grid.linearize(layout.owner_coords_of(elem))
            if owner != r:
                pair = (owner, r) if ev.kind == "read" else (r, owner)
                pairs.setdefault(pair, set()).add(elem)
    return pairs


def _assert_flows_match_oracle(ctx, params, nest_plans):
    """Every hoisted event's ``flows`` holds, per pair, the canonical cover
    of exactly the oracle's elements; returns the number of pairs."""
    grid = ctx.the_grid()
    npairs = 0
    for _root, plan in nest_plans:
        for ev in plan.live_events():
            if not ev.placement.hoisted:
                continue
            flows = ev.flows(ctx, params, grid)
            expect = _oracle_flows(ev, ctx, params, grid)
            assert flows.keys() == expect.keys(), ev
            for pair, cover in flows.items():
                assert set(cover_points(cover)) == expect[pair], (ev, pair)
                assert cover == cover_of_points(sorted(expect[pair]))
            npairs += len(flows)
    return npairs


class TestFlowsOracle:
    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: s.key)
    def test_every_spec_row(self, spec):
        art = analyze_source(spec.program(), spec.nprocs, spec.params)
        _assert_flows_match_oracle(art.ctx, art.merged, art.nest_plans)

    @pytest.mark.parametrize("source, params", [
        (REPLICATED_AXIS, {}), (CYCLIC_HALO, {}), (MULTI_HALO, {"n": 6})],
        ids=["replicated-axis", "cyclic", "multi"])
    def test_routes_are_the_flows(self, source, params):
        """The kernel's message routes hold the flows' covers, and the
        static cost equals the trace."""
        ck = compile_kernel(source, 4, params)
        assert _assert_flows_match_oracle(ck.ctx, ck.params, ck.nest_plans)
        grid = ck.grid
        hoisted = [
            ev for _root, plan in ck.nest_plans for ev in plan.live_events()
            if ev.placement.hoisted
        ]
        assert [r.pairs for routes in ck._routes for r in routes] == [
            ev.flows(ck.ctx, ck.params, grid) for ev in hoisted]
        v = validate_against_trace(kernel_cost(ck), _traced_run(ck))
        assert v.ok, v.mismatches

    def test_fuzz_seeds(self):
        npairs = 0
        for seed in range(60):
            spec = gen_spec(seed)
            ck = compile_kernel(spec.render(), spec.nprocs, strict=False)
            npairs += _assert_flows_match_oracle(ck.ctx, ck.params, ck.nest_plans)
        assert npairs > 0
