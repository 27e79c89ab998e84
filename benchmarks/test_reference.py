"""Tests of the benchmark's reference computations against abeltv.

    PYTHONPATH=src python -m pytest benchmarks/test_reference.py
"""

import math

import numpy as np
import pytest

import abeltv
import reference as ref


def noisy_problem(n, phantom="nested-annuli", seed=7):
    grid, g3 = abeltv.make_grids(n)
    A = abeltv.build_abel_matrix(grid)
    u0 = abeltv.rasterize_phantom(abeltv.builtin_phantom(phantom), grid)
    f0 = abeltv.apply_abel(A, u0)
    f = abeltv.add_noise(f0, abeltv.NoiseSpec(variance_fraction=0.0005, seed=seed))
    return grid, g3, A, u0, f0, f


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_abel_matrix_matches_build_abel_matrix(n):
    grid, _ = abeltv.make_grids(n)
    A = ref.abel_matrix(n)
    np.testing.assert_allclose(A, abeltv.build_abel_matrix(grid).entries, rtol=0, atol=1e-14)
    # rows telescope to the full chord 2 sqrt(1 - x_i^2)
    np.testing.assert_allclose(A.sum(axis=1), 2.0 * np.sqrt(1.0 - (np.arange(n) / n) ** 2), atol=1e-14)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_bincount_norm_equals_revolve(n):
    grid, g3 = abeltv.make_grids(n)
    u = np.random.default_rng(n).normal(size=(n, 2 * n + 1))
    want = abeltv.norm_l2_uh(abeltv.revolve(abeltv.RadialField(grid, u), g3), grid.h)
    assert ref.norm_l2_uh(u) == pytest.approx(want, rel=1e-13)


def test_lattice_counts_cover_the_disc():
    n = 16
    counts = ref.lattice_cell_counts(n)
    a = np.arange(-n, n + 1)
    assert counts.sum() == int(((a[:, None] ** 2 + a[None, :] ** 2) < n * n).sum())
    assert counts[0] == 1  # only the origin has radius < h


def test_rasterize_matches_builtin_phantoms():
    for name in ref.PHANTOMS:
        grid, _ = abeltv.make_grids(64)
        want = abeltv.rasterize_phantom(abeltv.builtin_phantom(name), grid).values
        np.testing.assert_array_equal(ref.rasterize(name, 64), want)


def test_diagnostics_match_bound_report():
    grid, g3, A, u0, f0, f = noisy_problem(32, "four-blobs")
    res = abeltv.solve_tv(A, f, abeltv.SolverParams(lam=80.0, tau=0.2, gamma=0.2, max_iter=200))
    f_star = abeltv.apply_abel(A, res.u_star)
    rep = abeltv.bound_report(res.u_star, u0, f_star, f, f0, g3)
    got = ref.bound_quantities(res.u_star.values, u0.values, f_star.values, f.values, f0.values)
    want = {"err_l2_uh": rep.err_l2_uh, "resid_l2_vh": rep.resid_l2_vh, "M1": rep.m1, "c": rep.c, "M": rep.m, "c_star": rep.c_star}
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12), key
    assert ref.tv_seminorm(u0.values) == pytest.approx(abeltv.tv_seminorm(u0), rel=1e-13)


def test_energy_matches_solver_energy():
    grid, _, A, u0, _, f = noisy_problem(32)
    assert ref.energy(u0.values, A.entries, f.values, 80.0) == pytest.approx(abeltv.energy(u0, A, f, 80.0), rel=1e-13)


def test_divergence_is_minus_adjoint_of_differences():
    rng = np.random.default_rng(1)
    u = rng.normal(size=(6, 13))
    v = rng.normal(size=(2, 6, 13))
    np.testing.assert_allclose(ref.divergence(v), abeltv.divergence(v, h=1.0), atol=1e-14)
    dr = np.zeros_like(u)
    dz = np.zeros_like(u)
    dr[:-1] = u[1:] - u[:-1]
    dz[:, :-1] = u[:, 1:] - u[:, :-1]
    assert float((dr * v[0] + dz * v[1]).sum()) == pytest.approx(-float((u * ref.divergence(v)).sum()), rel=1e-12)


def test_duality_gap_nonnegative_and_falls_with_iterations():
    _, _, A, _, _, f = noisy_problem(32)
    A_ref = ref.abel_matrix(32)
    gaps = []
    for iters in (10, 100, 1000, 3000):
        res = abeltv.solve_tv(A, f, abeltv.SolverParams(lam=80.0, tau=0.2, gamma=0.2, max_iter=iters))
        gap = ref.duality_gap(res.u_star.values, res.dual.values, A_ref, f.values, 80.0)
        gaps.append(gap / ref.energy(res.u_star.values, A_ref, f.values, 80.0))
    assert all(g >= 0.0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 5e-3


def test_duality_gap_with_zero_dual_is_the_energy():
    # v = 0 gives s = 0, so the gap is E(u) itself
    _, _, A, u0, _, f = noisy_problem(16)
    A_ref = ref.abel_matrix(16)
    v = np.zeros((2,) + u0.values.shape)
    assert ref.duality_gap(u0.values, v, A_ref, f.values, 80.0) == ref.energy(u0.values, A_ref, f.values, 80.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_j_norms_quad_matches_j_norms_and_indicator_closed_form(seed):
    edges, values = ref.random_profile(np.random.default_rng(seed), 8)
    got = abeltv.j_norms(abeltv.analytic.PiecewiseConstantProfile(edges[:-1], values))
    want = ref.j_norms_quad(edges, values)
    assert got == pytest.approx(want, rel=1e-10)
    k = 4.0
    l1, l2 = ref.j_norms_quad(np.array([0.0, 1.0 / k, 1.0]), np.array([1.0, 0.0]))
    assert l1 == pytest.approx(4.0 / (3.0 * math.sqrt(math.pi)) * k**-1.5, rel=1e-10)
    assert l2 == pytest.approx(math.sqrt(2.0 / math.pi) / k, rel=1e-10)


def test_parse_field_csv_reads_to_csv(tmp_path):
    grid, _ = abeltv.make_grids(8)
    values = np.random.default_rng(3).normal(size=(8, 17))
    abeltv.RadialField(grid, values).to_csv(tmp_path / "u.csv")
    meta, tokens, parsed = ref.parse_field_csv(tmp_path / "u.csv")
    assert (int(meta["n_r"]), int(meta["n_z"])) == (8, 17)
    assert len(tokens) == values.size
    np.testing.assert_array_equal(parsed, values)
