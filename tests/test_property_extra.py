"""Extra property-based tests across the compiler's core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.distrib.grid import ProcessorGrid
from repro.distrib.layout import DimDist, Distribution, PDIM, Template
from repro.distrib.multipart import MultiPartition3D
from repro.ir.interp import FortranArray


class TestOwnershipPartition:
    """BLOCK / CYCLIC ownership sets must partition the template exactly,
    for arbitrary extents and processor counts."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 6), st.sampled_from(["block", "cyclic"]))
    def test_1d_partition(self, extent, nprocs, kind):
        grid = ProcessorGrid("p", (nprocs,))
        tmpl = Template("t", ((0, extent - 1),))
        dist = Distribution(tmpl, grid, [DimDist(kind, None, 0)])
        own = dist.owner_set(["t"])
        seen = {}
        for p in range(nprocs):
            for (x,) in own.points({PDIM(0): p}):
                assert x not in seen, f"element {x} owned twice"
                seen[x] = p
        assert set(seen) == set(range(extent))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 20), st.integers(1, 4), st.integers(1, 5))
    def test_block_cyclic_partition(self, extent, nprocs, blk):
        grid = ProcessorGrid("p", (nprocs,))
        tmpl = Template("t", ((0, extent - 1),))
        dist = Distribution(tmpl, grid, [DimDist("cyclic", blk, 0)])
        own = dist.owner_set(["t"])
        covered = set()
        for p in range(nprocs):
            pts = {x for (x,) in own.points({PDIM(0): p})}
            assert not (covered & pts)
            covered |= pts
        assert covered == set(range(extent))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 5))
    def test_owner_coords_consistent_with_set(self, extent, nprocs):
        grid = ProcessorGrid("p", (nprocs,))
        tmpl = Template("t", ((0, extent - 1),))
        dist = Distribution(tmpl, grid, [DimDist("block", None, 0)])
        own = dist.owner_set(["t"])
        for x in range(extent):
            (c,) = dist.owner_coords((x,))
            assert own.contains((x,), {PDIM(0): c})


class TestMultipartitionProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([1, 4, 9, 16, 25]),
        st.tuples(st.integers(6, 40), st.integers(6, 40), st.integers(6, 40)),
    )
    def test_every_sweep_step_covered(self, nprocs, shape):
        mp = MultiPartition3D(nprocs, shape)
        for d in range(3):
            for s in range(mp.q):
                owners = {mp.sweep_cell(r, d, s).coords for r in range(nprocs)}
                assert len(owners) == nprocs  # all distinct cells at step s

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([4, 9, 16]), st.integers(6, 30))
    def test_neighbor_symmetry(self, nprocs, n):
        mp = MultiPartition3D(nprocs, (n, n, n))
        for r in range(nprocs):
            for d in range(3):
                for s in range(mp.q - 1):
                    fwd = mp.sweep_neighbor(r, d, s, forward=True)
                    assert fwd is not None
                    # the forward neighbor's backward neighbor is us
                    back = mp.sweep_neighbor(fwd, d, s + 1, forward=False)
                    assert back == r


class TestFortranArrayProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
    )
    def test_get_set_roundtrip(self, shape, lower):
        a = FortranArray(shape, lower)
        rng = np.random.default_rng(0)
        pts = [
            tuple(l + int(rng.integers(0, s)) for s, l in zip(shape, lower))
            for _ in range(5)
        ]
        for k, p in enumerate(pts):
            a.set(p, float(k + 1))
        # last write wins per point
        expect = {}
        for k, p in enumerate(pts):
            expect[p] = float(k + 1)
        for p, v in expect.items():
            assert a.get(p) == v

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 10))
    def test_flat_offset_matches_numpy_fortran_order(self, n0, n1, seed):
        a = FortranArray((n0, n1), (1, 1))
        rng = np.random.default_rng(seed)
        i = 1 + int(rng.integers(0, n0))
        j = 1 + int(rng.integers(0, n1))
        flat = a.data.reshape(-1, order="F")
        a.set((i, j), 99.0)
        assert flat[a.flat_offset((i, j))] == 99.0
