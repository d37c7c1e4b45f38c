"""Serial SP/BT application substrate tests."""

import numpy as np
import pytest

from repro.nas import BTSolver, CLASSES, SPSolver
from repro.nas import ops
from repro.parallel import flops


class TestInitialization:
    def test_tile_init_matches_global(self):
        """A tile initialized with global offsets equals the matching region
        of the global field — the property parallel codes rely on."""
        full = ops.init_field((16, 16, 16))
        tile = ops.init_field((16, 16, 16), lo=(0, 4, 8), local_shape=(16, 6, 5))
        assert np.array_equal(tile, full[:, 4:10, 8:13])

    def test_density_positive(self):
        u = ops.init_field((12, 12, 12))
        assert np.all(u[..., 0] > 1.0)
        assert np.all(u[..., 4] > 1.0)


class TestReciprocals:
    def test_definitions(self):
        u = ops.init_field((8, 8, 8))
        rho_i, us, vs, ws, square, qs = ops.compute_reciprocals(u)
        assert np.allclose(rho_i * u[..., 0], 1.0)
        assert np.allclose(us, u[..., 1] / u[..., 0])
        assert np.allclose(
            square,
            0.5 * (u[..., 1] * us + u[..., 2] * vs + u[..., 3] * ws),
        )
        assert np.allclose(qs, square * rho_i)


class TestComputeRhs:
    def test_region_restriction(self):
        u = ops.init_field((12, 12, 12))
        full = ops.compute_rhs(u)
        sub = ops.compute_rhs(u, region=(slice(2, 6), slice(2, -2), slice(2, -2)))
        assert np.array_equal(sub[2:6, 2:-2, 2:-2], full[2:6, 2:-2, 2:-2])
        assert np.all(sub[6:, :, :] == 0.0)

    def test_boundary_untouched(self):
        u = ops.init_field((12, 12, 12))
        rhs = ops.compute_rhs(u)
        assert np.all(rhs[:2] == 0) and np.all(rhs[-2:] == 0)
        assert np.all(rhs[:, :2] == 0) and np.all(rhs[:, -2:] == 0)


class TestLineSolvers:
    def test_sp_solve_reproduces_pentadiagonal_system(self):
        """Check the forward/back solver against a dense solve per line."""
        u = ops.init_field((10, 10, 10))
        lhs = ops.sp_build_lhs(u, 0, 0)
        n = 10
        rhs = np.zeros((n, 10, 10, 3))
        rng = np.random.default_rng(3)
        rhs[...] = rng.random(rhs.shape)
        rhs_orig = rhs.copy()
        ops.sp_solve_line_system(lhs.copy() * 0 + lhs, rhs)
        # dense verification for one arbitrary line / component
        j, k, c = 4, 7, 1
        A = np.zeros((n, n))
        L = ops.sp_build_lhs(u, 0, 0)
        for i in range(n):
            if i - 2 >= 0:
                A[i, i - 2] = L[0][i, j, k]
            if i - 1 >= 0:
                A[i, i - 1] = L[1][i, j, k]
            A[i, i] = L[2][i, j, k]
            if i + 1 < n:
                A[i, i + 1] = L[3][i, j, k]
            if i + 2 < n:
                A[i, i + 2] = L[4][i, j, k]
        x = np.linalg.solve(A, rhs_orig[:, j, k, c])
        assert np.allclose(rhs[:, j, k, c], x, atol=1e-10)

    def test_bt_blocks_diagonally_dominant(self):
        u = ops.init_field((8, 8, 8))
        A, B, C = ops.bt_build_blocks(u, 0)
        # B blocks invertible with decent conditioning
        conds = np.linalg.cond(B.reshape(-1, 5, 5))
        assert np.all(np.isfinite(conds))
        assert conds.max() < 1e4

    def test_bt_leaf_routines(self):
        rng = np.random.default_rng(0)
        a = rng.random((5, 5))
        v = rng.random(5)
        b = np.ones(5)
        expect = b - a @ v
        ops.bt_matvec_sub(a, v, b)
        assert np.allclose(b, expect)

        m1 = rng.random((5, 5))
        m2 = rng.random((5, 5))
        acc = np.eye(5).copy()
        expect2 = np.eye(5) - m1 @ m2
        ops.bt_matmul_sub(m1, m2, acc)
        assert np.allclose(acc, expect2)

        bb = np.eye(5) * 2.0
        cc = np.eye(5).copy()
        rr = np.full(5, 4.0)
        ops.bt_binvcrhs(bb, cc, rr)
        assert np.allclose(cc, np.eye(5) * 0.5)
        assert np.allclose(rr, 2.0)


class TestSolvers:
    @pytest.mark.parametrize("cls", [SPSolver, BTSolver])
    def test_determinism(self, cls):
        a = cls((12, 12, 12))
        b = cls((12, 12, 12))
        a.run(3)
        b.run(3)
        assert np.array_equal(a.u, b.u)

    @pytest.mark.parametrize("cls", [SPSolver, BTSolver])
    def test_stability_over_many_steps(self, cls):
        s = cls((12, 12, 12))
        s.run(30)
        assert np.all(np.isfinite(s.u))
        assert s.residual_norms().max() < 1.0

    @pytest.mark.parametrize("cls", [SPSolver, BTSolver])
    def test_state_evolves(self, cls):
        s = cls((12, 12, 12))
        u0 = s.u.copy()
        s.run(1)
        assert not np.array_equal(s.u, u0)

    @pytest.mark.parametrize("cls", [SPSolver, BTSolver])
    def test_minimum_size_enforced(self, cls):
        with pytest.raises(ValueError):
            cls((4, 12, 12))

    def test_residual_norms_shape(self):
        s = SPSolver((12, 12, 12))
        r = s.residual_norms()
        assert r.shape == (5,)
        assert np.all(r >= 0)


class TestClassesAndWork:
    def test_class_table(self):
        assert CLASSES["A"].problem_size == 64
        assert CLASSES["B"].problem_size == 102
        assert CLASSES["A"].niter_sp == 400
        assert CLASSES["A"].niter_bt == 200

    def test_flop_model_ratios(self):
        # BT does several times SP's work per step (paper/NPB profile) in
        # the work model the parallel strategies charge
        def step(sweep):
            return flops.RHS_PER_POINT + 3 * sweep + flops.ADD_PER_POINT

        ratio = step(flops.BT_SWEEP_PER_POINT) / step(flops.SP_SWEEP_PER_POINT)
        assert 2.0 < ratio < 5.0
