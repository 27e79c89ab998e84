"""Discrete norms and the error-bound diagnostic quantities.

The norms take sample arrays and the spacing h, except ``tv_seminorm``,
which takes a ``RadialField`` and reads h from its grid. Norm conventions:

    ||u||_{l2(U_h)} = (h^3 * sum u^2)^(1/2)      revolved Cartesian samples
    ||u||_{l2(V_h)} = (h^2 * sum u^2)^(1/2)      cylindrical (r, z) samples
    |u|_TV          = h * sum |D u|              D = per-cell differences
    ||u||_inf       = max |u|

h * sum |D u| equals h^2 * sum |grad_h u| with grad_h = differences / h, so
the TV seminorm of a unit-level indicator is its boundary length (perimeter
for rectangles), up to O(h) from the one-sided boundary differences. The
sum |D u| is written once, in ``_tv_sum``, which works in a caller's
buffer; the solver's energy uses it too.

``revolve`` is a piecewise-constant radial lookup, so the revolved norm of
an (r, z) field needs only the number c_j of (x, y) lattice points that
land in each radial cell j:

    ||u||_{l2(U_h)}^2 = h^3 * sum_j c_j * sum_{k >= n} u[j, k]^2

The counts come from one lattice quadrant, so ``bound_report`` allocates
little more than ``tv_seminorm``'s pair of difference arrays.

The diagnostic ratio checked by the experiments is

    c_star = ||u* - u0||_{l2(U_h)} / (M1 * (4 c M)^(1/3)),

with c the larger TV seminorm of u* and u0, M the larger sup norm, and
M1 = (||f* - f|| + ||f - f0||)^(1/3) in the l2(V_h) norm. The stability
theory predicts c_star <= 1.07 on every converged run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridXYZ, ProjectionField, RadialField, _lattice_cell_counts
from .operators import _gradient_step, _squared_magnitude

__all__ = [
    "norm_l2_uh",
    "norm_l2_vh",
    "tv_seminorm",
    "BoundReport",
    "bound_report",
    "DegenerateInstanceError",
]


class DegenerateInstanceError(ValueError):
    """The bound ratio is 0/0 (e.g. u* = u0 = 0 with exact data)."""


def norm_l2_uh(u3: np.ndarray, h: float) -> float:
    """(h^3 * sum u^2)^(1/2) over a revolved 3-D sample array."""
    u3 = np.asarray(u3, dtype=float)
    return float(np.sqrt(h**3 * np.sum(u3 * u3)))


def norm_l2_vh(u: np.ndarray, h: float) -> float:
    """(h^2 * sum u^2)^(1/2) over a 2-D (r, z) or (x, z) sample array."""
    return float(np.sqrt(h**2 * np.sum(u * u)))


def tv_seminorm(u: RadialField) -> float:
    """h * sum of per-cell Euclidean magnitudes of the per-cell differences."""
    return u.grid.h * _tv_sum(u.values, np.empty((2,) + u.values.shape))


def _tv_sum(u: np.ndarray, g: np.ndarray) -> float:
    """sum |D u| of the (n_r, n_z) array ``u``, the per-cell differences
    taken in ``g``, shape (2,) + u.shape, which must be C-contiguous and
    is overwritten."""
    _gradient_step(np.ascontiguousarray(u), g)()
    s = _squared_magnitude(g, g)
    return float(np.sqrt(s, out=s).sum())


@dataclass(frozen=True)
class BoundReport:
    """The per-run quantities entering the error-bound check.

    err_l2_uh : ||u* - u0|| over the revolved Cartesian grid
    resid_l2_vh : ||f* - f||_{l2(V_h)}
    m1 : (||f* - f|| + ||f - f0||)^(1/3), l2(V_h) norms
    c : max TV seminorm of u* and u0
    m : max sup norm of u* and u0
    c_star : err_l2_uh / (m1 * (4 c m)^(1/3))
    """

    err_l2_uh: float
    resid_l2_vh: float
    m1: float
    c: float
    m: float
    c_star: float


def bound_report(
    u_star: RadialField,
    u0: RadialField,
    f_star: ProjectionField,
    f: ProjectionField,
    f0: ProjectionField,
    g3: GridXYZ,
) -> BoundReport:
    """Assemble the diagnostic quantities for one reconstruction run.

    ||f - f0|| uses the realized noise (ground truth is in hand throughout
    the synthetic pipelines). Raises DegenerateInstanceError when the
    denominator of c_star vanishes.
    """
    h = u_star.grid.h
    c = max(tv_seminorm(u_star), tv_seminorm(u0))
    m = max(float(np.abs(u_star.values).max()), float(np.abs(u0.values).max()))
    resid = norm_l2_vh(f_star.values - f.values, h)
    noise = norm_l2_vh(f.values - f0.values, h)
    m1 = (resid + noise) ** (1.0 / 3.0)
    # revolved norm of u* - u0 from per-cell lattice counts (module docstring)
    counts = _lattice_cell_counts(u_star.grid, g3)
    upper = (u_star.values - u0.values)[:, u_star.grid.n_r :]
    err = float(np.sqrt(h**3 * np.sum(counts * (upper * upper).sum(axis=1))))
    denom = m1 * (4.0 * c * m) ** (1.0 / 3.0)
    if not denom > 0.0:
        raise DegenerateInstanceError(
            "c_star denominator vanishes (u* = u0 = 0 with exact data?)"
        )
    return BoundReport(err_l2_uh=err, resid_l2_vh=resid, m1=m1, c=c, m=m, c_star=err / denom)
