"""CYCLIC distributions end to end (exists-quantified ownership sets)."""


from repro.codegen import compile_kernel
from repro.distrib import DistributionContext
from repro.frontend import parse_subroutine
from repro.isets.box import cover_of_points

SRC = """
      subroutine s(n)
      integer n, i
      parameter (nx = 15)
      double precision a(0:nx), b(0:nx)
chpf$ processors p(4)
chpf$ distribute a(cyclic) onto p
chpf$ distribute b(cyclic) onto p
      do i = 0, n - 1
         a(i) = b(i) * 2.0d0
      enddo
      end
"""


class TestCyclicOwnership:
    def test_round_robin(self):
        ctx = DistributionContext(parse_subroutine(SRC), nprocs=4, params={"n": 16})
        for p in range(4):
            pts = ctx.owned_elements("a", (p,))
            assert pts == {(i,) for i in range(p, 16, 4)}

    def test_cyclic_block_form(self):
        sub = parse_subroutine(SRC.replace("cyclic)", "cyclic(2))"))
        ctx = DistributionContext(sub, nprocs=4, params={"n": 16})
        pts = ctx.owned_elements("a", (1,))
        assert pts == {(2,), (3,), (10,), (11,)}


class TestCyclicCompile:
    def test_aligned_accesses_compile_message_free(self):
        """a(i) = b(i)*2 with both arrays cyclic: identical partitions, so
        owner-computes needs no messages despite the scattered layout.

        (The symbolic difference over-approximates for exists-quantified
        cyclic ownership — sound, never drops data — so comm *events*
        survive analysis; the element router then proves every "needed"
        element is owner==self and emits zero messages.)"""
        ck = compile_kernel(SRC, nprocs=4, params={"n": 16})
        for nest_routes in ck.routes:
            for route in nest_routes:
                assert not route.pairs, f"unexpected messages: {route.pairs}"
        results = ck.run({"n": 16}, init=lambda rid, A: A["b"].data.fill(3.0))
        for rid, A in enumerate(results):
            for e in ck.ctx.owned_elements("a", ck.grid.delinearize(rid)):
                assert A["a"].get(e) == 6.0

    def test_guards_follow_cyclic_pattern(self):
        ck = compile_kernel(SRC, nprocs=4, params={"n": 16})
        from repro.ir import Assign, walk_stmts

        stmt = next(s for s in walk_stmts(ck.sub.body) if isinstance(s, Assign))
        g2 = ck.bind_guards(2)[stmt.sid]
        assert g2 == cover_of_points(sorted((i,) for i in range(2, 16, 4)))
