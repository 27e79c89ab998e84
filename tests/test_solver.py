import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from abeltv import (
    NoiseSpec,
    ProjectionField,
    RadialField,
    SolverDivergedError,
    SolverParams,
    add_noise,
    apply_abel,
    build_abel_matrix,
    builtin_phantom,
    energy,
    make_grids,
    norm_l2_vh,
    rasterize_phantom,
    solve_onion_peeling,
    solve_tv,
)
from abeltv.operators import divergence, gradient
from abeltv.solver import _primal_operator, project_unit_ball


def noisy_instance(n_r, variance_fraction=0.0005, seed=7):
    grid, _ = make_grids(n_r)
    A = build_abel_matrix(grid)
    u0 = rasterize_phantom(builtin_phantom("nested-annuli"), grid)
    f0 = apply_abel(A, u0)
    f = add_noise(f0, NoiseSpec(variance_fraction=variance_fraction, seed=seed))
    return grid, A, u0, f0, f


class TestEnergy:
    def test_zero_everything(self):
        grid, _ = make_grids(4)
        A = build_abel_matrix(grid)
        assert energy(RadialField.zeros(grid), A, ProjectionField.zeros(grid), 3.0) == 0.0

    def test_zero_field_nonzero_data(self):
        grid, _ = make_grids(8)
        A = build_abel_matrix(grid)
        f = ProjectionField(grid, np.random.default_rng(0).normal(size=(8, 17)))
        lam = 5.0
        want = 0.5 * lam * norm_l2_vh(f, grid.h) ** 2
        assert energy(RadialField.zeros(grid), A, f, lam) == pytest.approx(want, rel=1e-14)

    def test_hand_instance(self):
        # n_r = 2, h = 0.5, u = (1, 0) on every axial column, f = 0, lam = 2.
        # Per-cell jumps: |u_2 - u_1| = 1 on the 5 first-row cells, so the
        # TV term is 0.25 * 5 = 1.25. A u = (1, 0) per column, so the data
        # term is (2/2) * 0.25 * 5 = 1.25. Total 2.5.
        grid, _ = make_grids(2)
        A = build_abel_matrix(grid)
        u = RadialField(grid, np.tile(np.array([[1.0], [0.0]]), (1, 5)))
        assert energy(u, A, ProjectionField.zeros(grid), 2.0) == pytest.approx(2.5, abs=1e-14)

    def test_shape_mismatch(self):
        grid, _ = make_grids(4)
        other, _ = make_grids(8)
        A = build_abel_matrix(grid)
        with pytest.raises(ValueError):
            energy(RadialField.zeros(other), A, ProjectionField.zeros(other), 1.0)


class TestProjectUnitBall:
    def test_inside_untouched(self):
        p = np.zeros((2, 3, 4))
        p[0, 1, 1] = 0.3
        assert_array_equal(project_unit_ball(p), p)

    def test_outside_projected_to_sphere(self):
        rng = np.random.default_rng(1)
        p = 5.0 * rng.normal(size=(2, 6, 9))
        q = project_unit_ball(p)
        mag = np.sqrt(q[0] ** 2 + q[1] ** 2)
        assert mag.max() <= 1.0 + 1e-12
        # direction preserved
        big = np.sqrt(p[0] ** 2 + p[1] ** 2) > 1
        assert_allclose((q[0] / q[1])[big], (p[0] / p[1])[big], rtol=1e-12)


class TestSolveTV:
    def test_zero_data_fixed_point(self):
        grid, _ = make_grids(8)
        A = build_abel_matrix(grid)
        params = SolverParams(lam=40.0, tau=0.2, gamma=0.2, max_iter=50)
        result = solve_tv(A, ProjectionField.zeros(grid), params)
        assert norm_l2_vh(result.u_star, grid.h) <= 1e-8
        assert result.final_energy == 0.0

    def test_large_lambda_fits_consistent_data(self):
        grid, A, u0, f0, _ = noisy_instance(32, variance_fraction=0.0)
        params = SolverParams(lam=1e6, tau=0.2, gamma=0.2, max_iter=3000)
        result = solve_tv(A, f0, params)
        resid = norm_l2_vh(apply_abel(A, result.u_star).values - f0.values, grid.h)
        assert resid <= 1e-3

    def test_deterministic_bit_identical(self):
        grid, A, u0, f0, f = noisy_instance(16)
        params = SolverParams(lam=80.0, tau=0.2, gamma=0.2, max_iter=200, record_every=50)
        r1 = solve_tv(A, f, params)
        r2 = solve_tv(A, f, params)
        assert_array_equal(r1.u_star.values, r2.u_star.values)
        assert r1.energy_trace == r2.energy_trace
        assert r1.final_energy == r2.final_energy
        assert r1.iterations_run == r2.iterations_run == 200

    def test_dual_feasible(self):
        grid, A, u0, f0, f = noisy_instance(16)
        params = SolverParams(lam=80.0, tau=0.2, gamma=0.2, max_iter=300)
        result = solve_tv(A, f, params)
        assert result.dual.max_cell_magnitude() <= 1.0 + 1e-12

    def test_minimizer_beats_truth_on_objective(self):
        grid, A, u0, f0, f = noisy_instance(32)
        params = SolverParams(lam=80.0, tau=0.2, gamma=0.2, max_iter=4000)
        result = solve_tv(A, f, params)
        assert result.final_energy <= energy(u0, A, f, 80.0) + 1e-9

    def test_energy_decreases_along_trace(self):
        grid, A, u0, f0, f = noisy_instance(16)
        params = SolverParams(lam=80.0, tau=0.2, gamma=0.2, max_iter=1000, record_every=200)
        trace = solve_tv(A, f, params).energy_trace
        energies = [e for _, e in trace]
        assert energies[-1] < energies[0]

    def test_convergence_rate_contract(self):
        # Against a reference from a 10x longer run, the iterate error at 5n
        # stays within twice the 1/5 predicted by the O(1/n) rate.
        grid, A, u0, f0, f = noisy_instance(32)
        n = 300
        ref = solve_tv(A, f, SolverParams(lam=80.0, tau=0.2, gamma=0.2, max_iter=50 * n))
        u_n = solve_tv(A, f, SolverParams(lam=80.0, tau=0.2, gamma=0.2, max_iter=n))
        u_5n = solve_tv(A, f, SolverParams(lam=80.0, tau=0.2, gamma=0.2, max_iter=5 * n))
        err_n = norm_l2_vh(u_n.u_star.values - ref.u_star.values, grid.h)
        err_5n = norm_l2_vh(u_5n.u_star.values - ref.u_star.values, grid.h)
        assert err_5n <= 2.0 * (err_n / 5.0)

    def test_warm_start_accepted(self):
        grid, A, u0, f0, f = noisy_instance(16)
        params = SolverParams(lam=80.0, tau=0.2, gamma=0.2, max_iter=50)
        cold = solve_tv(A, f, params)
        warm = solve_tv(A, f, params, u_init=cold.u_star)
        assert warm.iterations_run == 50

    def test_divergence_detected_with_iteration(self):
        grid, _ = make_grids(8)
        A = build_abel_matrix(grid)
        f = ProjectionField(grid, np.full((8, 17), 1e300))
        params = SolverParams(lam=1e9, tau=0.2, gamma=0.2, max_iter=10)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverDivergedError) as exc:
            solve_tv(A, f, params)
        assert exc.value.iteration >= 1

    def test_shape_mismatch(self):
        A = build_abel_matrix(make_grids(8)[0])
        with pytest.raises(ValueError):
            solve_tv(
                A,
                ProjectionField.zeros(make_grids(16)[0]),
                SolverParams(lam=1.0, tau=0.2, gamma=0.2, max_iter=1),
            )

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SolverParams(lam=0.0, tau=0.2, gamma=0.2, max_iter=10)
        with pytest.raises(ValueError):
            SolverParams(lam=1.0, tau=0.2, gamma=0.2, max_iter=0)
        with pytest.raises(ValueError):
            SolverParams(lam=1.0, tau=-0.2, gamma=0.2, max_iter=10)

    @pytest.mark.parametrize("field", ["lam", "tau", "gamma"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_params_rejected(self, field, bad):
        kwargs = dict(lam=80.0, tau=0.2, gamma=0.2, max_iter=10)
        with pytest.raises(ValueError, match=field):
            SolverParams(**{**kwargs, field: bad})

    def test_inadmissible_steps_rejected(self):
        # ||D||^2 <= 8 for per-cell differences: 8*tau*gamma must stay below 1
        SolverParams(lam=80.0, tau=0.35, gamma=0.35, max_iter=10)  # 0.98
        for tau, gamma in [(1.0, 1.0), (0.5, 0.25), (0.2, 0.625)]:
            with pytest.raises(ValueError, match=r"8\*tau\*gamma"):
                SolverParams(lam=80.0, tau=tau, gamma=gamma, max_iter=10)

    @pytest.mark.parametrize("n_r", [32, 512])
    def test_primal_operator_residual(self, n_r):
        A = build_abel_matrix(make_grids(n_r)[0])
        tau, lam = 0.2, 80.0
        K = _primal_operator(A, tau=tau, lam=lam)
        rng = np.random.default_rng(2)
        b = rng.normal(size=(n_r, 2 * n_r + 1))
        x = K @ b
        resid = np.linalg.norm(x + tau * lam * (A.entries.T @ (A.entries @ x)) - b) / np.linalg.norm(b)
        assert resid <= 1e-10

    def test_iteration_matches_public_operators(self):
        # The solver's in-place loop against the iteration written out with
        # the public operators and a dense solve of the primal system.
        grid, A, u0, f0, f = noisy_instance(16)
        tau, gamma, lam, n_iter = 0.2, 0.2, 80.0, 20
        params = SolverParams(lam=lam, tau=tau, gamma=gamma, max_iter=n_iter, record_every=5)
        got = solve_tv(A, f, params)

        M = np.eye(16) + tau * lam * (A.entries.T @ A.entries)
        rhs_data = tau * lam * (A.entries.T @ f.values)
        u = np.zeros((16, 33))
        v = np.zeros((2, 16, 33))
        w = u.copy()
        trace = []
        for it in range(1, n_iter + 1):
            v = project_unit_ball(v + gamma * gradient(w, h=1.0))
            q = u + tau * divergence(v, h=1.0)
            u_new = np.linalg.solve(M, q + rhs_data)
            w = 2.0 * u_new - u
            u = u_new
            if it % 5 == 0:
                trace.append((it, energy(RadialField(grid, u), A, f, lam)))

        # the primal solves round differently; entries are compared at 1e-12
        # of each array's largest magnitude, since some dual entries are
        # differences that cancel to ~1e-3 of it
        for a, b in [(got.u_star.values, u), (got.dual.values, v)]:
            assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
        assert [it for it, _ in got.energy_trace] == [it for it, _ in trace]
        assert_allclose([e for _, e in got.energy_trace], [e for _, e in trace], rtol=1e-12)


class TestOnionPeeling:
    def test_roundtrip_identity(self):
        grid, _ = make_grids(128)
        A = build_abel_matrix(grid)
        rng = np.random.default_rng(3)
        u = RadialField(grid, rng.uniform(0.0, 1.0, size=(128, 257)))
        back = solve_onion_peeling(A, apply_abel(A, u))
        err = np.linalg.norm(back.values - u.values) / np.linalg.norm(u.values)
        assert err <= 1e-12

    def test_zero_data(self):
        grid, _ = make_grids(8)
        A = build_abel_matrix(grid)
        assert not solve_onion_peeling(A, ProjectionField.zeros(grid)).values.any()

    def test_noise_amplification_vs_tv(self):
        # On the same noisy instance, the unregularized triangular solve
        # lands farther from the truth than the TV-regularized solution.
        grid, A, u0, f0, f = noisy_instance(64, variance_fraction=0.0005, seed=11)
        u_op = solve_onion_peeling(A, f)
        result = solve_tv(A, f, SolverParams(lam=80.0, tau=0.2, gamma=0.2, max_iter=2000))
        err_op = norm_l2_vh(u_op.values - u0.values, grid.h)
        err_tv = norm_l2_vh(result.u_star.values - u0.values, grid.h)
        assert err_tv < err_op

    def test_shape_mismatch(self):
        A = build_abel_matrix(make_grids(8)[0])
        with pytest.raises(ValueError):
            solve_onion_peeling(A, ProjectionField.zeros(make_grids(16)[0]))
