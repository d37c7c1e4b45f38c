"""Additional communication-event coverage: placements across nest shapes."""


from repro.comm import CommAnalyzer
from repro.cp.select import CPSelector
from repro.distrib import DistributionContext, PDIM
from repro.frontend import parse_subroutine


def analyze(src, nprocs=4, params=None):
    sub = parse_subroutine(src)
    params = params or {"n": 16}
    ctx = DistributionContext(sub, nprocs, params)
    loop = sub.body[0]
    cps = CPSelector(ctx, eval_params=params).select(loop, params)
    plan = CommAnalyzer(loop, cps, ctx, params).analyze()
    return ctx, plan


class TestPlacements:
    def test_stencil_read_hoisted(self):
        """b(i-1): values exist before the loop -> pre-nest vectorized."""
        ctx, plan = analyze(
            """
      subroutine s(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx), b(0:nx)
chpf$ processors p(4)
chpf$ distribute a(block) onto p
chpf$ distribute b(block) onto p
      do i = 1, n - 1
         a(i) = b(i - 1)
      enddo
      end
"""
        )
        reads = [e for e in plan.live_events() if e.kind == "read"]
        assert reads and all(e.placement.hoisted for e in reads)

    def test_recurrence_read_pipelined(self):
        """a(i-1) written in the previous iteration -> carried flow dep ->
        communication inside the loop (a pipeline)."""
        ctx, plan = analyze(
            """
      subroutine s(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx)
chpf$ processors p(4)
chpf$ distribute a(block) onto p
      do i = 1, n - 1
         a(i) = a(i - 1) + 1.0d0
      enddo
      end
"""
        )
        reads = [e for e in plan.live_events() if e.kind == "read"]
        assert reads
        assert any(e.placement.pipelined for e in reads)

    def test_boundary_volume_matches_hand_count(self):
        """The symbolic non-local set counts exactly the halo elements
        (single-sided stencil: owner-computes wins and needs exactly one
        halo element per processor boundary)."""
        ctx, plan = analyze(
            """
      subroutine s(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx), b(0:nx)
chpf$ processors p(4)
chpf$ distribute a(block) onto p
chpf$ distribute b(block) onto p
      do i = 1, n - 1
         a(i) = b(i - 1) * 2.0d0
      enddo
      end
"""
        )
        # processor p owns 4p..4p+3 and needs b(4p-1): one element, except p0
        for p, expect in [(0, 0), (1, 1), (2, 1), (3, 1)]:
            binding = {"n": 16, PDIM(0): p}
            vol = sum(
                e.volume(binding) for e in plan.live_events() if e.kind == "read"
            )
            assert vol == expect, (p, vol)

    def test_two_sided_stencil_total_traffic_minimal(self):
        """For the two-sided stencil the selector may pick owner-computes or
        a shifted CP (they are near-equal cost); either way total read+write
        traffic across all processors stays within the 2-elements-per-cut
        optimum plus one writeback per cut."""
        ctx, plan = analyze(
            """
      subroutine s(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx), b(0:nx)
chpf$ processors p(4)
chpf$ distribute a(block) onto p
chpf$ distribute b(block) onto p
      do i = 1, n - 1
         a(i) = b(i - 1) + b(i + 1)
      enddo
      end
"""
        )
        total = 0
        for p in range(4):
            binding = {"n": 16, PDIM(0): p}
            total += sum(e.volume(binding) for e in plan.live_events())
        # 3 processor cuts; optimum 2 elems/cut, allow up to 3 (writebacks)
        assert 6 <= total <= 9

    def test_fully_local_loop_has_no_events(self):
        ctx, plan = analyze(
            """
      subroutine s(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx), b(0:nx)
chpf$ processors p(4)
chpf$ distribute a(block) onto p
chpf$ distribute b(block) onto p
      do i = 0, n - 1
         a(i) = b(i) * 2.0d0
      enddo
      end
"""
        )
        assert not plan.live_events()
