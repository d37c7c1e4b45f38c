"""Machine-model and decomposition arithmetic checks."""

import math

from hypothesis import given, settings, strategies as st

from repro.parallel.decomp import BlockDecomp1D, BlockDecomp2D, block_ranges, chunk_ranges


class TestBlockRanges:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 100), st.integers(1, 12))
    def test_cover_exactly(self, n, p):
        ranges = block_ranges(n, p)
        pts = []
        for lo, hi in ranges:
            pts.extend(range(lo, hi + 1))
        assert pts == list(range(n))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 100), st.integers(1, 12))
    def test_hpf_block_size(self, n, p):
        b = math.ceil(n / p)
        for k, (lo, hi) in enumerate(block_ranges(n, p)):
            if lo <= hi:
                assert lo == k * b
                assert hi - lo + 1 <= b


class TestChunkRanges:
    def test_exact_tiling(self):
        assert chunk_ranges(10, 4) == [(0, 3), (4, 7), (8, 9)]

    def test_zero_width_means_whole(self):
        assert chunk_ranges(7, 0) == [(0, 6)]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 64))
    def test_cover_property(self, n, w):
        pts = []
        for lo, hi in chunk_ranges(n, w):
            pts.extend(range(lo, hi + 1))
        assert pts == list(range(n))


class TestBlockDecomp2D:
    def test_coords_roundtrip(self):
        d = BlockDecomp2D((12, 12, 12), (2, 3))
        for r in range(6):
            py, pz = d.coords(r)
            assert d.rank_of(py, pz) == r

    def test_neighbors(self):
        d = BlockDecomp2D((12, 12, 12), (2, 2))
        assert d.neighbor(0, 0, -1) is None  # off the y edge
        assert d.neighbor(0, 0, +1) == d.rank_of(1, 0)
        assert d.neighbor(0, 1, +1) == d.rank_of(0, 1)
        assert d.neighbor(3, 1, +1) is None

    def test_tile_ghost_clamping(self):
        d = BlockDecomp2D((12, 12, 12), (2, 2), ghost=3)
        yb, zb = d.tile(0)
        assert yb.glo == 0  # clamped at the domain face
        assert yb.ghi == yb.hi + 3
        yb2, _ = d.tile(d.rank_of(1, 0))
        assert yb2.glo == yb2.lo - 3
        assert yb2.ghi == 11

    def test_interior_region_respects_domain_boundary(self):
        d = BlockDecomp2D((12, 12, 12), (2, 2), ghost=3)
        yb, _ = d.tile(0)
        sl = yb.interior_region()
        # owns 0..5; interior starts at global 2 -> local index 2
        assert sl.start == yb.to_local(2)
        assert sl.stop == yb.to_local(5) + 1


class TestBlockDecomp1D:
    def test_tiles_cover_axis(self):
        d = BlockDecomp1D((12, 12, 12), 3)
        covered = []
        for r in range(3):
            t = d.tile(r)
            covered.extend(range(t.lo, t.hi + 1))
        assert covered == list(range(12))

    def test_neighbors_linear(self):
        d = BlockDecomp1D((12, 12, 12), 3)
        assert d.neighbor(0, -1) is None
        assert d.neighbor(0, +1) == 1
        assert d.neighbor(2, +1) is None
