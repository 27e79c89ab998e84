"""Forward projection and exact unregularized inversion.

Walks through the basic pipeline: build the cylindrical grid, rasterize a
phantom, project it with the onion-peeling matrix, and invert the
(noise-free) projection exactly by back-substitution.
"""

import numpy as np

from abeltv import (
    GridRZ,
    RadialField,
    apply_abel,
    build_abel_matrix,
    builtin_phantom,
    norm_l2_vh,
    rasterize_phantom,
    solve_onion_peeling,
)

n_r = 64
grid = GridRZ(n_r)
print(f"grids: {grid.n_r} radial cells, {grid.n_z} axial samples, h = {grid.h}")

A = build_abel_matrix(grid)
row_defect = np.abs(A.entries.sum(axis=1) - 2.0 * np.sqrt(1.0 - grid.x**2)).max()
print(f"onion-peeling matrix: upper triangular, row sums = chord lengths "
      f"(max defect {row_defect:.2e})")

u0 = rasterize_phantom(builtin_phantom("nested-annuli"), grid)
print(f"phantom 'nested-annuli': peak level {u0.values.max()}, "
      f"{np.count_nonzero(u0.values)} occupied cells")

f0 = apply_abel(A, u0)
print(f"projection: ||f0||_l2(V_h) = {norm_l2_vh(f0.values, grid.h):.4f}, "
      f"max {f0.values.max():.4f}")

u_back = solve_onion_peeling(A, f0)
err = np.abs(u_back.values - u0.values).max()
print(f"back-substitution on clean data recovers the phantom: "
      f"max abs error {err:.2e}")

# the projection of the unit disc is the chord length, a quick sanity check
grid2 = GridRZ(16)
A2 = build_abel_matrix(grid2)
disc = RadialField(grid2, np.ones((16, 33)))
f_disc = apply_abel(A2, disc)
print("unit-disc projection vs 2*sqrt(1-x^2): max defect "
      f"{np.abs(f_disc.values[:, 0] - 2*np.sqrt(1-grid2.x**2)).max():.2e}")
