"""Communication analysis + §7 availability tests on the y_solve kernel."""

import pytest

from repro.comm import CommAnalyzer
from repro.cp import CPGrouper
from repro.cp.select import CPSelector
from repro.distrib import DistributionContext, PDIM
from repro.frontend import parse_source
from repro.nas import kernels

EV = {"n": 17, "m": 0}


@pytest.fixture(scope="module")
def ysolve():
    sub = parse_source(kernels.Y_SOLVE_SP).get("y_solve")
    ctx = DistributionContext(sub, nprocs=4, params=EV)
    kloop = sub.body[0]
    res = CPGrouper(ctx, CPSelector(ctx, eval_params=EV)).group(kloop, params=EV)
    return sub, ctx, kloop, res


BINDING = {**EV, PDIM(0): 0, PDIM(1): 0}


class TestAvailability:
    """§7 as the plan records it: ``eliminated_by_availability`` on the
    read events of an uncoalesced plan (coalescing never changes the flag
    but merges the write-back data the test below inspects)."""

    @pytest.fixture(scope="class")
    def plan(self, ysolve):
        _, ctx, kloop, res = ysolve
        return CommAnalyzer(kloop, res.cps, ctx, EV, coalesce=False).analyze()

    @staticmethod
    def _reads(plan):
        return [e for e in plan.events if e.kind == "read"]

    def test_paper_example_read_eliminated(self, plan):
        """The read of lhs(i,j+1,k,n+3) is covered by the previous
        iteration's non-local write of lhs(i,j+2,k,n+3) — §7's example."""
        target = [
            e for e in self._reads(plan)
            if str(e.ref).replace(" ", "") == "lhs(i,(j+1),k,(m+3))"
        ]
        assert target and all(e.eliminated_by_availability for e in target)

    def test_j_plus_2_reads_kept(self, plan):
        """Reads at j+2 'cause communication which cannot be eliminated'
        (but it is hoisted before the nest)."""
        kept = [
            e for e in self._reads(plan)
            if "(j+2)" in str(e.ref).replace(" ", "")
            and not e.eliminated_by_availability
        ]
        assert kept

    def test_about_half_eliminated(self, plan):
        """'This algorithm directly eliminates about half the communication
        ... in the main pipelined computations of SP.'"""
        reads = self._reads(plan)
        frac = sum(e.eliminated_by_availability for e in reads) / len(reads)
        assert 0.3 <= frac <= 0.7

    def test_nonlocal_write_set_nonempty(self, plan):
        """Statements updating j+1/j+2 rows are non-local writes under the
        grouped CP."""
        wsets = [
            e.data for e in plan.events
            if e.kind == "writeback" and "j + 1" in str(e.stmt.lhs)
        ]
        assert wsets
        # interior processor writes one boundary row per statement
        w0 = wsets[0].bind(BINDING)
        pts = w0.points()
        assert pts, "expected non-local writes at the block boundary"
        js = {p[1] for p in pts}
        assert js == {9}, js  # block 0 owns j in 0..8; writes row 9


class TestCommPlan:
    def test_availability_halves_messages(self, ysolve):
        _, ctx, kloop, res = ysolve
        with_a = CommAnalyzer(kloop, res.cps, ctx, EV, use_availability=True).analyze()
        without = CommAnalyzer(kloop, res.cps, ctx, EV, use_availability=False).analyze()
        assert with_a.total_messages(BINDING) < 0.6 * without.total_messages(BINDING)

    def test_pipelined_events_are_writebacks_after_availability(self, ysolve):
        """With §7 on, the only pipelined communication flows *with* the
        pipeline (write-backs); reads are gone or hoisted."""
        _, ctx, kloop, res = ysolve
        plan = CommAnalyzer(kloop, res.cps, ctx, EV).analyze()
        for e in plan.pipelined_events():
            assert e.kind == "writeback"

    def test_reads_hoisted_pre_nest(self, ysolve):
        _, ctx, kloop, res = ysolve
        plan = CommAnalyzer(kloop, res.cps, ctx, EV).analyze()
        reads = [e for e in plan.live_events() if e.kind == "read"]
        assert reads
        assert all(e.placement.hoisted for e in reads)

    def test_coalescing_reduces_live_events(self, ysolve):
        _, ctx, kloop, res = ysolve
        merged = CommAnalyzer(kloop, res.cps, ctx, EV, coalesce=True).analyze()
        raw = CommAnalyzer(kloop, res.cps, ctx, EV, coalesce=False).analyze()
        assert len(merged.live_events()) < len(raw.live_events())
        # the union never exceeds the per-event sum (overlap de-duplicated)
        # and survivors must still cover every raw event's data
        assert 0 < merged.total_volume(BINDING) <= raw.total_volume(BINDING)
        for e in raw.live_events():
            data = e.data.bind(BINDING).points()
            covered = set()
            for m in merged.live_events():
                if m.array == e.array and m.kind == e.kind:
                    covered |= m.data.bind(BINDING).points()
            assert data <= covered

    def test_exclude_arrays_suppresses_events(self, ysolve):
        _, ctx, kloop, res = ysolve
        plan = CommAnalyzer(
            kloop, res.cps, ctx, EV, exclude_arrays={"lhs", "rhs"}
        ).analyze()
        assert not plan.live_events()

    def test_summary_fields(self, ysolve):
        _, ctx, kloop, res = ysolve
        s = CommAnalyzer(kloop, res.cps, ctx, EV).analyze().summary(BINDING)
        for key in ("events", "live", "eliminated", "coalesced", "volume", "messages"):
            assert key in s
        assert s["volume"] > 0 and s["messages"] > 0


class TestLocalizeCommElimination:
    def test_compute_rhs_events_without_localize(self):
        """Without LOCALIZE, the reciprocal arrays need boundary reads; with
        it (exclusion), they vanish — §4.2's effect, visible in the plan."""
        sub = parse_source(kernels.COMPUTE_RHS_BT).get("compute_rhs")
        ev = {"n": 13}
        ctx = DistributionContext(sub, nprocs=8, params=ev)
        scope = sub.body[0]
        sel = CPSelector(ctx, eval_params=ev)
        cps = sel.select(scope, ev)
        recips = {"rho_i", "us", "vs", "ws", "square", "qs"}
        plan_no = CommAnalyzer(scope, cps, ctx, ev).analyze()
        arrays_no = {e.array for e in plan_no.live_events()}
        assert arrays_no & recips, "expected reciprocal-array communication without LOCALIZE"
        from repro.cp.localize import propagate_localize_cps

        cps = propagate_localize_cps(scope, recips, cps, ctx, ev)
        plan_yes = CommAnalyzer(
            scope, cps, ctx, ev, exclude_arrays=recips
        ).analyze()
        arrays_yes = {e.array for e in plan_yes.live_events()}
        assert not (arrays_yes & recips)
