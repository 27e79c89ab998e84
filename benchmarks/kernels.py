"""Kernel table in the style of PyAbel's `abel.benchmark`: per-call medians of
abeltv's layers against the grid size.

    python benchmarks/kernels.py <scratch directory>

Prints one JSON object mapping `<layer>_<unit>.n<N>` to the median per
call. run.py starts it with one BLAS thread, apart from the timed and the
traced samples. `metrics.bound_report` and `grids.to_csv` stop at
n_r = 256: at 512, bound_report's revolved grid needs 4 GiB arrays.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import abeltv
import abeltv.solver

SIZES = (64, 128, 256, 512)
# solve_tv lengths (short, long): the difference of their times, over the
# difference of their lengths, is the cost of one iteration without the
# fixed per-call costs.
SOLVE_LENGTHS = {64: (10, 110), 128: (10, 60), 256: (5, 25), 512: (2, 12)}


def per_call(fn, budget_s=0.1, min_reps=5, max_reps=2000):
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - start < budget_s and len(times) < max_reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def problem(n):
    grid, g3 = abeltv.make_grids(n)
    A = abeltv.build_abel_matrix(grid)
    u0 = abeltv.rasterize_phantom(abeltv.builtin_phantom("nested-annuli"), grid)
    f0 = abeltv.apply_abel(A, u0)
    f = abeltv.add_noise(f0, abeltv.NoiseSpec(variance_fraction=0.0005, seed=n))
    return grid, g3, A, u0, f0, f


def solve(A, f, iters):
    params = abeltv.SolverParams(lam=80.0, tau=0.2, gamma=0.2, max_iter=iters, record_every=iters)
    return abeltv.solve_tv(A, f, params)


def main(scratch: Path) -> dict:
    table = {}
    for n in SIZES:
        grid, g3, A, u0, f0, f = problem(n)
        u = u0.values
        p = abeltv.gradient(u, h=1.0)
        table[f"operators.gradient_us.n{n}"] = 1e6 * per_call(lambda: abeltv.gradient(u, h=1.0))
        table[f"operators.divergence_us.n{n}"] = 1e6 * per_call(lambda: abeltv.divergence(p, h=1.0))
        table[f"solver.project_unit_ball_us.n{n}"] = 1e6 * per_call(lambda: abeltv.solver.project_unit_ball(p))
        table[f"operators.apply_abel_us.n{n}"] = 1e6 * per_call(lambda: abeltv.apply_abel(A, u0))
        table[f"solver.energy_us.n{n}"] = 1e6 * per_call(lambda: abeltv.energy(u0, A, f, 80.0))
        short, long = SOLVE_LENGTHS[n]
        t_short = per_call(lambda: solve(A, f, short), budget_s=0.0, min_reps=3)
        t_long = per_call(lambda: solve(A, f, long), budget_s=0.0, min_reps=3)
        table[f"solver.iter_us.n{n}"] = 1e6 * (t_long - t_short) / (long - short)
        if n <= 256:
            u_star = solve(A, f, short).u_star
            f_star = abeltv.apply_abel(A, u_star)
            table[f"metrics.bound_report_ms.n{n}"] = 1e3 * per_call(
                lambda: abeltv.bound_report(u_star=u_star, u0=u0, f_star=f_star, f=f, f0=f0, g3=g3),
                budget_s=0.3,
                min_reps=3,
            )
            path = scratch / f"u_star_n{n}.csv"
            table[f"grids.to_csv_ms.n{n}"] = 1e3 * per_call(lambda: u_star.to_csv(path), budget_s=0.3, min_reps=3)
    rng = np.random.default_rng(8)
    cuts = np.sort(rng.uniform(0.02, 0.95, 8))
    profile = abeltv.analytic.PiecewiseConstantProfile(
        np.concatenate([[0.0], cuts]), np.concatenate([rng.uniform(0.0, 1.0, 8), [0.0]])
    )
    table["analytic.j_norms_us.pieces8"] = 1e6 * per_call(lambda: abeltv.j_norms(profile))
    return table


if __name__ == "__main__":
    print(json.dumps(main(Path(sys.argv[1]))))
