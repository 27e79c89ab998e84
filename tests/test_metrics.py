import tracemalloc

import numpy as np
import pytest

from abeltv import (
    DegenerateInstanceError,
    GridRZ,
    ProjectionField,
    RadialField,
    SolverParams,
    apply_abel,
    bound_report,
    build_abel_matrix,
    builtin_phantom,
    make_grids,
    norm_l2_uh,
    norm_l2_vh,
    rasterize_phantom,
    revolve,
    solve_tv,
    tv_seminorm,
)


class TestNormL2Uh:
    def test_zero(self):
        assert norm_l2_uh(np.zeros((5, 5, 3)), 0.25) == 0.0

    def test_single_entry(self):
        h = 0.125
        a = np.zeros((4, 4, 2))
        a[1, 2, 0] = -3.0
        assert norm_l2_uh(a, h) == pytest.approx(h**1.5 * 3.0, rel=1e-15)

    def test_revolved_unit_disc_volume(self):
        # Indicator of the unit disc over z-height 1 has squared norm equal
        # to the cylinder volume pi.
        grid, g3 = make_grids(128)
        u3 = revolve(RadialField(grid, np.ones((128, 257))), g3)
        assert norm_l2_uh(u3, grid.h) == pytest.approx(np.sqrt(np.pi), rel=0.05)


class TestNormL2Vh:
    def test_zero(self):
        assert norm_l2_vh(np.zeros((4, 9)), 0.25) == 0.0

    def test_constant_over_domain(self):
        grid, _ = make_grids(64)
        val = norm_l2_vh(np.ones((64, 129)), grid.h)
        assert abs(val - np.sqrt(2.0)) <= grid.h  # domain area 2, O(h) edge

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(8, 17))
        assert norm_l2_vh(2.0 * u, 0.125) == norm_l2_vh(u, 0.125) * 2.0
        alpha = -1.7
        assert norm_l2_vh(alpha * u, 0.125) == pytest.approx(
            abs(alpha) * norm_l2_vh(u, 0.125), rel=1e-14
        )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=(6, 13))
            b = rng.normal(size=(6, 13))
            assert norm_l2_vh(a + b, 0.1) <= norm_l2_vh(a, 0.1) + norm_l2_vh(b, 0.1) + 1e-12


class TestTVSeminorm:
    def test_constant_field(self):
        assert tv_seminorm(RadialField(GridRZ(8), np.full((8, 17), 3.3))) == 0.0

    def test_interior_rectangle_perimeter(self):
        # Indicator of [0.3, 0.6] x [-0.4, 0.4]: all four edges interior,
        # TV equals the perimeter 2 * (0.3 + 0.8) up to O(h).
        grid, _ = make_grids(128)
        R, Z = np.meshgrid(grid.r_centers, grid.z, indexing="ij")
        u = ((R >= 0.3) & (R < 0.6) & (np.abs(Z) <= 0.4)).astype(float)
        a, b = 0.3, 0.8
        assert tv_seminorm(RadialField(grid, u)) == pytest.approx(2 * (a + b), abs=4 * grid.h)

    def test_boundary_cell_count_oracle(self):
        # Unit-level rectangle: TV = h * (number of jump cells), counted
        # directly from the index masks.
        grid, _ = make_grids(32)
        h = grid.h
        R, Z = np.meshgrid(grid.r_centers, grid.z, indexing="ij")
        u = ((R >= 0.25) & (R < 0.5) & (np.abs(Z) <= 0.25)).astype(float)
        d1 = np.abs(np.diff(u, axis=0)) > 0
        d2 = np.abs(np.diff(u, axis=1)) > 0
        # cells carrying both a radial and an axial jump contribute sqrt(2)
        n_corner = int((d1[:, :-1] & d2[:-1, :]).sum())
        expected = h * (d1.sum() + d2.sum() - 2 * n_corner) + h * np.sqrt(2.0) * n_corner
        assert tv_seminorm(RadialField(grid, u)) == pytest.approx(expected, rel=1e-12)

    def test_scaling(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(10, 21))
        grid = GridRZ(10)
        assert tv_seminorm(RadialField(grid, 4.0 * u)) == pytest.approx(
            4.0 * tv_seminorm(RadialField(grid, u)), rel=1e-14
        )

    def test_nested_annuli_boundary_length(self):
        # Regression pin: with the spacing-scaled gradient the phantom's TV
        # is its level-weighted boundary length, about 4.1 for the shipped
        # nested-annuli geometry.
        grid, _ = make_grids(128)
        u0 = rasterize_phantom(builtin_phantom("nested-annuli"), grid)
        assert tv_seminorm(u0) == pytest.approx(4.10, abs=0.05)


class TestBoundReport:
    def test_degenerate_instance(self):
        grid, g3 = make_grids(8)
        z2 = RadialField(grid, np.zeros((8, 17)))
        f = ProjectionField(grid, np.zeros((8, 17)))
        with pytest.raises(DegenerateInstanceError):
            bound_report(z2, z2, f, f, f, g3)

    def test_sup_norm_of_a_negative_peak(self):
        # M is the largest magnitude, here u*'s one negative entry
        grid, g3 = make_grids(8)
        u_star = np.full((8, 17), 0.5)
        u_star[3, 9] = -3.0
        u0 = RadialField(grid, np.full((8, 17), 2.0))
        f = ProjectionField(grid, np.ones((8, 17)))
        f0 = ProjectionField(grid, np.zeros((8, 17)))
        rep = bound_report(RadialField(grid, u_star), u0, f, f, f0, g3)
        assert rep.m == 3.0

    def test_noise_free_run_small_ratio(self):
        # Consistent data and a hard fit: the reconstruction lands close to
        # the truth and the diagnostic ratio stays well below 1.
        grid, g3 = make_grids(32)
        A = build_abel_matrix(grid)
        u0 = rasterize_phantom(builtin_phantom("nested-annuli"), grid)
        f0 = apply_abel(A, u0)
        result = solve_tv(A, f0, SolverParams(lam=1e5, tau=0.2, gamma=0.2, max_iter=3000))
        f_star = apply_abel(A, result.u_star)
        report = bound_report(result.u_star, u0, f_star, f0, f0, g3)
        assert 0.0 < report.c_star < 0.5
        # near-interpolation regime: tiny overshoot above the phantom peak
        # is expected, exact peak preservation belongs to the moderate-lambda
        # experiment runs
        assert report.m == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("n_r", [5, 8, 12, 30])
    def test_quantity_definitions(self, n_r):
        # the revolved error norm is checked against revolve itself, at
        # power-of-two and other grid sizes
        grid, g3 = make_grids(n_r)
        shape = (n_r, 2 * n_r + 1)
        rng = np.random.default_rng(4)
        u_star = RadialField(grid, rng.uniform(0, 1, shape))
        u0 = RadialField(grid, rng.uniform(0, 1, shape))
        f_star = ProjectionField(grid, rng.normal(size=shape))
        f = ProjectionField(grid, rng.normal(size=shape))
        f0 = ProjectionField(grid, rng.normal(size=shape))
        rep = bound_report(u_star, u0, f_star, f, f0, g3)
        h = grid.h
        assert rep.c == max(tv_seminorm(u_star), tv_seminorm(u0))
        assert rep.m == max(np.abs(u_star.values).max(), np.abs(u0.values).max())
        resid = norm_l2_vh(f_star.values - f.values, h)
        noise = norm_l2_vh(f.values - f0.values, h)
        assert rep.resid_l2_vh == resid
        assert rep.m1 == pytest.approx((resid + noise) ** (1 / 3), rel=1e-14)
        diff = RadialField(grid, u_star.values - u0.values)
        assert rep.err_l2_uh == pytest.approx(norm_l2_uh(revolve(diff, g3), h), rel=1e-14)
        assert rep.c_star == pytest.approx(
            rep.err_l2_uh / (rep.m1 * (4 * rep.c * rep.m) ** (1 / 3)), rel=1e-14
        )

    def test_no_revolved_grid_allocated(self):
        # The revolved grid at n_r = 256 holds 513 * 513 * 257 values
        # (516 MB); the lattice-count norm needs O(n_r^2) memory.
        grid, g3 = make_grids(256)
        shape = (256, 513)
        rng = np.random.default_rng(8)
        u_star, u0 = (RadialField(grid, rng.uniform(0, 1, shape)) for _ in range(2))
        f_star, f, f0 = (ProjectionField(grid, rng.normal(size=shape)) for _ in range(3))
        tracemalloc.start()
        try:
            bound_report(u_star, u0, f_star, f, f0, g3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_allocation_peak_is_a_few_fields(self):
        # tv_seminorm's difference pair (two (n_r, n_z) arrays) is the
        # largest allocation; the lattice counts take one quadrant of
        # n_r^2 points, not the (2n_r + 1)^2 lattice
        grid, g3 = make_grids(256)
        shape = (256, 513)
        rng = np.random.default_rng(8)
        u_star, u0 = (RadialField(grid, rng.uniform(0, 1, shape)) for _ in range(2))
        f_star, f, f0 = (ProjectionField(grid, rng.normal(size=shape)) for _ in range(3))
        tracemalloc.start()
        try:
            bound_report(u_star, u0, f_star, f, f0, g3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * 256 * 513
