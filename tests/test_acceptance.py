"""Acceptance suite: one test per criterion, each printing a PASS line.

The expensive fixtures (the four-level reconstruction experiment at
n_r = 128 and the 50 000-iteration convergence reference at n_r = 64) are
computed once and shared. Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines and timings.
"""

import math
import time

import numpy as np
import pytest

from abeltv import (
    ExperimentConfig,
    GridRZ,
    NoiseSpec,
    RadialField,
    RunSpec,
    SolverParams,
    add_noise,
    apply_abel,
    build_abel_matrix,
    builtin_phantom,
    divergence,
    gradient,
    indicator_family,
    j_norms,
    j_transform,
    norm_l2_uh,
    norm_l2_vh,
    random_step_profiles,
    rasterize_phantom,
    revolve,
    solve_onion_peeling,
    solve_tv,
    stieltjes_inverse,
)
from abeltv.analytic import PiecewiseConstantProfile
from abeltv.experiments import run_experiment

NOISE_LEVELS = (0.0025, 0.0005, 0.0001, 0.00002)
LAMBDAS = (50.0, 80.0, 120.0, 170.0)
SEEDS = (101, 102, 103, 104)


def report(criterion, elapsed, detail):
    print(f"PASS criterion {criterion} [{elapsed:.1f}s]: {detail}")


@pytest.fixture(scope="module")
def experiment128(tmp_path_factory):
    """Four-level reconstruction experiment on the nested-annuli phantom."""
    out = tmp_path_factory.mktemp("acceptance_experiment")
    cfg = ExperimentConfig(
        grid_n=128,
        phantom=builtin_phantom("nested-annuli"),
        output_dir=out,
        runs=tuple(
            RunSpec(
                SolverParams(lam=lam, tau=0.2, gamma=0.2, max_iter=5000, record_every=1000),
                NoiseSpec(variance_fraction=vf, seed=seed),
            )
            for vf, lam, seed in zip(NOISE_LEVELS, LAMBDAS, SEEDS)
        ),
    )
    t0 = time.perf_counter()
    outcomes = run_experiment(cfg)
    return cfg, outcomes, time.perf_counter() - t0


@pytest.fixture(scope="module")
def convergence64():
    """Reference trajectory for the rate check: 50 000 iterations at n_r=64."""
    grid = GridRZ(64)
    A = build_abel_matrix(grid)
    u0 = rasterize_phantom(builtin_phantom("nested-annuli"), grid)
    f = add_noise(apply_abel(A, u0), NoiseSpec(variance_fraction=0.0005, seed=7))

    def run(iters):
        return solve_tv(
            A, f, SolverParams(lam=80.0, tau=0.2, gamma=0.2, max_iter=iters, record_every=10000)
        ).u_star.values

    t0 = time.perf_counter()
    ref = run(50000)
    u_1000 = run(1000)
    u_5000 = run(5000)
    return grid, ref, u_1000, u_5000, time.perf_counter() - t0


def test_criterion_1_gradient_divergence_adjointness():
    t0 = time.perf_counter()
    grid = GridRZ(64)
    h = grid.h
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(100):
        u = rng.normal(size=(64, 129))
        p = rng.normal(size=(2, 64, 129))
        gu = gradient(u, h=h)
        dp = divergence(p, h=h)
        lhs = float(np.sum(gu * p))
        rhs = float(np.sum(u * dp))
        scale = np.linalg.norm(gu.ravel()) * np.linalg.norm(p.ravel()) + np.linalg.norm(
            u
        ) * np.linalg.norm(dp)
        worst = max(worst, abs(lhs + rhs) / scale)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, elapsed, f"adjointness max relative defect {worst:.2e} over 100 pairs at n_r=64")


def test_criterion_2_onion_peeling_exactness():
    t0 = time.perf_counter()
    grid = GridRZ(128)
    A = build_abel_matrix(grid)
    rng = np.random.default_rng(8)
    u = RadialField(grid, rng.uniform(0.0, 1.0, size=(128, 257)))
    back = solve_onion_peeling(A, apply_abel(A, u))
    rel = np.linalg.norm(back.values - u.values) / np.linalg.norm(u.values)
    row_defect = np.abs(A.entries.sum(axis=1) - 2.0 * np.sqrt(1.0 - grid.x**2)).max()
    elapsed = time.perf_counter() - t0
    assert rel <= 1e-12
    assert row_defect <= 1e-12
    assert elapsed < 1.0
    report(2, elapsed, f"roundtrip defect {rel:.2e}, row-sum defect {row_defect:.2e}")


def test_criterion_3_indicator_family_norms_and_decay():
    t0 = time.perf_counter()
    ks = (1.0, 2.0, 4.0, 8.0)
    for k in ks:
        fam = indicator_family(k)
        g_l1, g_l2 = j_norms(fam.profile)
        assert abs(g_l1 - 4.0 / (3.0 * math.sqrt(math.pi)) * k**-1.5) <= 1e-7
        assert abs(g_l2 - math.sqrt(2.0 / math.pi) / k) <= 1e-7
    ks_fit = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    numeric = np.array([j_norms(indicator_family(k).profile) for k in ks_fit])
    slope_l1 = np.polyfit(np.log(ks_fit), np.log(numeric[:, 0]), 1)[0]
    slope_l2 = np.polyfit(np.log(ks_fit), np.log(numeric[:, 1]), 1)[0]
    elapsed = time.perf_counter() - t0
    assert abs(slope_l1 + 1.5) <= 0.02
    assert abs(slope_l2 + 1.0) <= 0.02
    assert elapsed < 5.0
    report(3, elapsed, f"norms match closed forms; slopes {slope_l1:.4f}, {slope_l2:.4f}")


def test_criterion_4_stability_bound_suite():
    t0 = time.perf_counter()
    violations = 0
    worst_l2 = worst_l1 = 0.0
    for edges, values in random_step_profiles(1000, seed=20240):
        v = PiecewiseConstantProfile(edges[:-1], values)
        tv = v.tv()
        if tv == 0.0:
            continue
        g_l1, g_l2 = j_norms(v)
        r2 = v.norm_l2() / (2.3756 * math.sqrt(tv) * math.sqrt(g_l2)) if g_l2 > 0 else 0.0
        r1 = v.norm_l1() / (4.0175 * tv ** (1 / 3) * g_l1 ** (2 / 3)) if g_l1 > 0 else 0.0
        worst_l2 = max(worst_l2, r2)
        worst_l1 = max(worst_l1, r1)
        violations += (r2 > 1.0) + (r1 > 1.0)
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 30.0
    report(
        4,
        elapsed,
        f"0 violations in 1000 profiles; max ratios L2 {worst_l2:.4f}, L1 {worst_l1:.4f}",
    )


def test_criterion_5_stieltjes_roundtrip():
    t0 = time.perf_counter()
    g = PiecewiseConstantProfile(
        np.array([0.0, 0.15, 0.35, 0.55, 0.8]), np.array([1.4, 0.9, 0.5, 0.2, 0.0])
    )
    recon = lambda r: stieltjes_inverse(g, r)
    xs = np.linspace(0.02, 0.74, 10)
    worst = 0.0
    for x in xs:
        back = j_transform(recon, float(x), breakpoints=g.breakpoints[1:])
        worst = max(worst, abs(back - float(g(x))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-7
    assert elapsed < 5.0
    report(5, elapsed, f"max roundtrip defect {worst:.2e} at 10 sample points")


def test_criterion_6_solver_convergence_rate(convergence64):
    grid, ref, u_1000, u_5000, elapsed = convergence64
    err_1000 = norm_l2_vh(u_1000 - ref, grid.h)
    err_5000 = norm_l2_vh(u_5000 - ref, grid.h)
    bound = 2.0 * (1000.0 / 5000.0) * err_1000
    assert err_5000 <= bound
    assert elapsed < 120.0
    report(
        6,
        elapsed,
        f"err(5000)={err_5000:.2e} <= 2*(1000/5000)*err(1000)={bound:.2e} vs 50k reference",
    )


def test_criterion_7_error_bound_reproduction(experiment128):
    cfg, outcomes, elapsed = experiment128
    assert all(o.status == "ok" for o in outcomes)
    reports = outcomes  # each run's record holds its bound_report quantities
    for rep in reports:
        assert rep.c_star <= 1.07
        assert 0.0 < rep.c_star < 0.6
        assert rep.M == 1.0
    errs = [rep.err_l2_uh for rep in reports]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert elapsed < 900.0
    c_stars = ", ".join(f"{rep.c_star:.4f}" for rep in reports)
    report(
        7,
        elapsed,
        f"C* in [{min(r.c_star for r in reports):.4f}, {max(r.c_star for r in reports):.4f}]"
        f" <= 1.07, errors strictly decreasing {['%.4f' % e for e in errs]}, M=1 exact;"
        f" C* values: {c_stars}",
    )


def test_criterion_8_tv_beats_onion_peeling(experiment128):
    t0 = time.perf_counter()
    cfg, outcomes, _ = experiment128
    # rebuild the sigma^2 = 0.05% instance bit-identically from its seed
    idx = NOISE_LEVELS.index(0.0005)
    grid = GridRZ(cfg.grid_n)
    A = build_abel_matrix(grid)
    u0 = rasterize_phantom(cfg.phantom, grid)
    f = add_noise(apply_abel(A, u0), NoiseSpec(variance_fraction=0.0005, seed=SEEDS[idx]))
    u_op = solve_onion_peeling(A, f)
    diff = RadialField(grid, u_op.values - u0.values)
    err_op = norm_l2_uh(revolve(diff, grid), grid.h)
    err_tv = outcomes[idx].err_l2_uh
    elapsed = time.perf_counter() - t0
    assert err_tv < err_op
    report(8, elapsed, f"TV error {err_tv:.4f} < onion-peeling error {err_op:.4f} at 0.05% noise")
