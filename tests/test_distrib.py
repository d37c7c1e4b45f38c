"""Distribution machinery tests: grids, ownership sets, multipartitioning."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.distrib import DistributionContext, MultiPartition3D, PDIM, ProcessorGrid
from repro.distrib.layout import DimDist, Distribution, Template, _near_square_factor
from repro.frontend import parse_subroutine


class TestProcessorGrid:
    def test_linearize_roundtrip(self):
        g = ProcessorGrid("p", (3, 4))
        for r in range(g.size):
            assert g.linearize(g.delinearize(r)) == r

    def test_row_major_order(self):
        g = ProcessorGrid("p", (2, 3))
        assert g.linearize((0, 0)) == 0
        assert g.linearize((0, 2)) == 2
        assert g.linearize((1, 0)) == 3

    def test_bad_coords(self):
        g = ProcessorGrid("p", (2, 2))
        with pytest.raises(ValueError):
            g.linearize((2, 0))
        with pytest.raises(ValueError):
            g.delinearize(4)

    def test_square_2d(self):
        assert ProcessorGrid.square_2d("p", 16).shape == (4, 4)
        assert ProcessorGrid.square_2d("p", 25).shape == (5, 5)
        assert set(ProcessorGrid.square_2d("p", 8).shape) == {2, 4}


class TestDistributionOwnership:
    def make(self, kinds, gshape, tbounds):
        grid = ProcessorGrid("p", gshape)
        tmpl = Template("t", tuple(tbounds))
        axis = 0
        dims = []
        for k in kinds:
            if k == "*":
                dims.append(DimDist("*"))
            else:
                dims.append(DimDist(k, None, axis))
                axis += 1
        return Distribution(tmpl, grid, dims)

    def test_block_partitions_exactly(self):
        d = self.make(["block"], (4,), [(0, 15)])
        seen = {}
        own = d.owner_set(["t"])
        for p in range(4):
            for (t,) in own.points({PDIM(0): p}):
                assert t not in seen, "ownership overlap"
                seen[t] = p
        assert set(seen) == set(range(16))

    def test_block_uneven_extent(self):
        # 10 elements over 4 procs: block = ceil(10/4) = 3 -> 3,3,3,1
        d = self.make(["block"], (4,), [(1, 10)])
        own = d.owner_set(["t"])
        sizes = [len(own.points({PDIM(0): p})) for p in range(4)]
        assert sizes == [3, 3, 3, 1]

    def test_cyclic_partitions_exactly(self):
        d = self.make(["cyclic"], (3,), [(0, 8)])
        own = d.owner_set(["t"])
        for p in range(3):
            assert own.points({PDIM(0): p}) == {(t,) for t in range(p, 9, 3)}

    def test_owner_coords_match_sets(self):
        d = self.make(["block", "block"], (2, 3), [(0, 9), (0, 11)])
        own = d.owner_set(["x", "y"])
        for x in range(10):
            for y in range(12):
                c = d.owner_coords((x, y))
                assert own.contains((x, y), {PDIM(0): c[0], PDIM(1): c[1]})

    def test_star_dim_owned_by_all(self):
        d = self.make(["block", "*"], (2,), [(0, 7), (0, 5)])
        own = d.owner_set(["x", "y"])
        assert own.contains((0, 0), {PDIM(0): 0})
        assert own.contains((0, 5), {PDIM(0): 0})


class TestDistributionContext:
    SRC = """
      subroutine s(n)
      integer n, i, j, k
      parameter (nx = 15)
      double precision a(0:nx, 0:nx), b(0:nx), c(5, 0:nx, 0:nx)
chpf$ processors p(2, 2)
chpf$ template t(0:nx, 0:nx)
chpf$ align a(i, j) with t(i, j)
chpf$ align b(i) with t(i, *)
chpf$ align c(m, i, j) with t(i, j)
chpf$ distribute t(block, block) onto p
      a(1, 1) = 0.0
      end
"""

    def test_layouts_built(self):
        ctx = DistributionContext(parse_subroutine(self.SRC), nprocs=4)
        assert ctx.is_distributed("a")
        assert ctx.is_distributed("b")
        assert ctx.is_distributed("c")
        assert not ctx.is_distributed("zzz")
        assert ctx.the_grid().shape == (2, 2)

    def test_aligned_ownership(self):
        ctx = DistributionContext(parse_subroutine(self.SRC), nprocs=4)
        lay = ctx.layout("a")
        own = lay.ownership(["i", "j"])
        assert own.points({PDIM(0): 0, PDIM(1): 0}) == {
            (i, j) for i in range(8) for j in range(8)
        }

    def test_replicated_dim_ownership(self):
        ctx = DistributionContext(parse_subroutine(self.SRC), nprocs=4)
        own = ctx.layout("b").ownership(["i"])
        # b(i) aligned with t(i,*): owned by the whole processor column
        assert own.points({PDIM(0): 0, PDIM(1): 0}) == {(i,) for i in range(8)}
        assert own.points({PDIM(0): 0, PDIM(1): 1}) == {(i,) for i in range(8)}

    def test_collapsed_leading_dim(self):
        ctx = DistributionContext(parse_subroutine(self.SRC), nprocs=4)
        lay = ctx.layout("c")
        assert lay.owner_coords_of((3, 0, 15)) == (0, 1)
        assert lay.distributed_array_dims() == [(1, 0), (2, 1)]

    def test_wildcard_processors(self):
        src = self.SRC.replace("processors p(2, 2)", "processors p(*, *)")
        ctx = DistributionContext(parse_subroutine(src), nprocs=9)
        assert ctx.the_grid().shape == (3, 3)

    def test_direct_array_distribute(self):
        sub = parse_subroutine(
            """
      subroutine s
      double precision a(8, 8)
chpf$ processors p(4)
chpf$ distribute a(block, *) onto p
      a(1,1) = 0.0
      end
"""
        )
        ctx = DistributionContext(sub, nprocs=4)
        lay = ctx.layout("a")
        own = lay.ownership(["i", "j"])
        assert own.points({PDIM(0): 2}) == {(i, j) for i in (5, 6) for j in range(1, 9)}

    def test_mismatched_grid_raises(self):
        src = self.SRC.replace("processors p(2, 2)", "processors p(4)")
        with pytest.raises(ValueError):
            DistributionContext(parse_subroutine(src), nprocs=4)


class TestMultiPartition:
    def test_requires_square(self):
        with pytest.raises(ValueError):
            MultiPartition3D(8, (12, 12, 12))

    @pytest.mark.parametrize("nprocs", [1, 4, 9, 16, 25])
    def test_cells_partition_domain(self, nprocs):
        mp = MultiPartition3D(nprocs, (20, 20, 20))
        owners = {}
        for cell in mp.all_cells():
            r = mp.owner_of_cell(cell.coords)
            assert 0 <= r < nprocs
            owners.setdefault(r, 0)
            owners[r] += 1
        assert all(v == mp.q for v in owners.values())
        assert len(owners) == nprocs

    @pytest.mark.parametrize("nprocs", [4, 9, 16])
    def test_sweep_invariant_one_cell_per_step(self, nprocs):
        mp = MultiPartition3D(nprocs, (24, 24, 24))
        for r in range(nprocs):
            for d in range(3):
                steps = sorted(c.coords[d] for c in mp.cells_of(r))
                assert steps == list(range(mp.q))

    def test_load_balance(self):
        mp = MultiPartition3D(9, (13, 17, 19))  # deliberately ragged
        loads = [0] * mp.nprocs
        for cell in mp.all_cells():
            n = 1
            for lo, hi in cell.ranges:
                n *= hi - lo + 1
            loads[mp.owner_of_cell(cell.coords)] += n
        assert sum(loads) == 13 * 17 * 19
        # ragged extents spread within a small factor
        assert max(loads) <= 1.5 * min(loads)

    def test_owner_of_point(self):
        mp = MultiPartition3D(4, (8, 8, 8))
        for cell in mp.all_cells():
            lo = tuple(r[0] for r in cell.ranges)
            assert mp.owner_of_point(lo) == mp.owner_of_cell(cell.coords)

    def test_sweep_neighbor_chain(self):
        mp = MultiPartition3D(9, (12, 12, 12))
        for r in range(9):
            for d in range(3):
                # walking forward visits a valid chain ending at boundary
                chain = [r]
                step = mp.cells_of(r)[0].coords[d]
                # normalize: start from the rank's step-0 cell
                cur, s = r, 0
                while True:
                    nxt = mp.sweep_neighbor(cur, d, s, forward=True)
                    if nxt is None:
                        break
                    cur, s = nxt, s + 1
                assert s == mp.q - 1

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([4, 9, 16]),
        st.tuples(st.integers(8, 30), st.integers(8, 30), st.integers(8, 30)),
    )
    def test_point_ownership_total(self, nprocs, shape):
        mp = MultiPartition3D(nprocs, shape)
        # sample corners and center
        pts = [(0, 0, 0), tuple(s - 1 for s in shape), tuple(s // 2 for s in shape)]
        for p in pts:
            r = mp.owner_of_point(p)
            assert any(
                all(lo <= x <= hi for x, (lo, hi) in zip(p, c.ranges))
                for c in mp.cells_of(r)
            )


def test_near_square_factor():
    assert _near_square_factor(16, 2) == (4, 4)
    assert _near_square_factor(12, 2) in ((3, 4),)
    assert _near_square_factor(27, 3) == (3, 3, 3)
    assert _near_square_factor(7, 1) == (7,)
