"""§9's closing question, answered: multipartitioning as an HPF-style
distribution the compiler's set machinery handles automatically."""

import pytest

from repro.codegen import compile_kernel
from repro.distrib import DistributionContext, PDIM
from repro.frontend import parse_subroutine

SRC = """
      subroutine s(n)
      integer n, i, j, k
      parameter (nx = 11)
      double precision u(0:nx, 0:nx, 0:nx), v(0:nx, 0:nx, 0:nx)
chpf$ processors p(2, 2)
chpf$ distribute u(multi, multi, multi) onto p
chpf$ distribute v(multi, multi, multi) onto p
      do k = 0, n - 1
         do j = 0, n - 1
            do i = 0, n - 1
               v(i, j, k) = u(i, j, k) * 2.0d0
            enddo
         enddo
      enddo
      end
"""


@pytest.fixture(scope="module")
def ctx():
    return DistributionContext(parse_subroutine(SRC), nprocs=4, params={"n": 12})


class TestMultiOwnershipSets:
    def test_exact_partition(self, ctx):
        lay = ctx.layout("u")
        seen = {}
        for a in range(2):
            for b in range(2):
                for p in lay.ownership().bind({PDIM(0): a, PDIM(1): b}).points():
                    assert p not in seen, f"{p} owned twice"
                    seen[p] = (a, b)
        assert len(seen) == 12**3

    def test_set_matches_runtime_multipartition(self, ctx):
        """The symbolic exists-quantified set and the concrete runtime
        multipartitioning agree on every owner."""
        lay = ctx.layout("u")
        for a in range(2):
            for b in range(2):
                for p in lay.ownership().bind({PDIM(0): a, PDIM(1): b}).points():
                    assert lay.owner_coords_of(p) == (a, b)

    def test_sweep_property_at_set_level(self, ctx):
        """For every x-slab, every processor owns exactly one (y,z) cell —
        the invariant that makes line sweeps load-balanced, derived purely
        from the ownership set."""
        lay = ctx.layout("u")
        q, B = 2, 6
        for a in range(2):
            pts = lay.ownership().bind({PDIM(0): a, PDIM(1): 0}).points()
            for cx in range(q):
                slab = {p for p in pts if cx * B <= p[0] < (cx + 1) * B}
                cells = {(p[1] // B, p[2] // B) for p in slab}
                assert len(cells) == 1  # exactly one diagonal cell per slab

    def test_requires_square_grid(self):
        src = SRC.replace("processors p(2, 2)", "processors p(4, 1)")
        with pytest.raises(ValueError, match="square"):
            DistributionContext(parse_subroutine(src), nprocs=4, params={"n": 12})

    def test_requires_divisible_extents(self):
        src = SRC.replace("(nx = 11)", "(nx = 12)")  # 13 points, q=2
        with pytest.raises(ValueError, match="divisible"):
            DistributionContext(parse_subroutine(src), nprocs=4, params={"n": 13})


class TestMultiCompilation:
    def test_pointwise_kernel_compiles_message_free(self, ctx):
        """A pointwise statement over two identically multipartitioned
        arrays: the compiler's guards follow the diagonal cells and the
        element router proves no messages are needed — multipartitioning
        exploited without any source-level expression of it."""
        ck = compile_kernel(SRC, nprocs=4, params={"n": 12})
        for nest_routes in ck._routes:
            for route in nest_routes:
                assert not route.pairs
        # guards follow the diagonal cell structure
        from repro.ir import Assign, walk_stmts

        stmt = next(s for s in walk_stmts(ck.sub.body) if isinstance(s, Assign))
        g = ck.bind_guards(0)[stmt.sid]
        lay = ck.ctx.layout("v")
        expect = {
            tuple(reversed(p))  # guard points are (k, j, i) loop order
            for p in lay.ownership().bind({PDIM(0): 0, PDIM(1): 0}).points()
        }
        assert g == expect

    def test_execution_matches_semantics(self, ctx):
        ck = compile_kernel(SRC, nprocs=4, params={"n": 12})
        results = ck.run({"n": 12}, init=lambda rid, A: A["u"].data.fill(3.0))
        for rid, A in enumerate(results):
            coords = ck.grid.delinearize(rid)
            for e in ck.ctx.owned_elements("v", coords):
                assert A["v"].get(e) == 6.0
