"""Reference computations the benchmark checks abeltv's outputs against.

Everything here is written from the definitions in abeltv's README, with
numpy and scipy only; nothing is imported from abeltv. Arrays are laid out
as abeltv lays them out: (n_r, n_z) for radial fields and projections, with
n_z = 2 n_r + 1 axial samples, and (2, n_r, n_z) for the dual variable.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular

# Built-in phantoms as tabulated in the README: (kind, r, z, level).
PHANTOMS = {
    "nested-annuli": (
        ("rect", (0.00, 0.72), (-0.75, 0.75), 0.30),
        ("rect", (0.00, 0.52), (-0.55, 0.55), 0.00),
        ("rect", (0.00, 0.45), (-0.45, 0.45), 0.60),
        ("rect", (0.00, 0.28), (-0.30, 0.30), 0.00),
        ("rect", (0.00, 0.20), (-0.20, 0.20), 1.00),
    ),
    "four-blobs": (
        ("half_ellipse", (0.00, 0.25), (0.55, 0.20), 0.80),
        ("half_ellipse", (0.45, 0.12), (0.10, 0.30), 1.00),
        ("rect", (0.10, 0.30), (-0.50, -0.25), 0.60),
        ("half_ellipse", (0.20, 0.15), (-0.70, 0.12), 0.40),
    ),
}


def rasterize(name: str, n: int) -> np.ndarray:
    """Level of the last shape containing (cell-midpoint radius, axial sample)."""
    h = 1.0 / n
    r = ((np.arange(n) + 0.5) * h)[:, None]
    z = (-1.0 + np.arange(2 * n + 1) * h)[None, :]
    u = np.zeros((n, 2 * n + 1))
    for kind, (r0, r1), (z0, z1), level in PHANTOMS[name]:
        if kind == "rect":
            inside = (r >= r0) & (r < r1) & (z >= z0) & (z <= z1)
        else:
            inside = ((r - r0) / r1) ** 2 + ((z - z0) / z1) ** 2 <= 1.0
        u = np.where(inside, level, u)
    return u


def abel_matrix(n: int) -> np.ndarray:
    """Chord-length matrix: row i (line of sight at x = i h) crossing radial
    cell j = [j h, (j+1) h], 0-based, has length
    2 h (sqrt((j+1)^2 - i^2) - sqrt(j^2 - i^2)) for j >= i, else 0."""
    i = np.arange(n, dtype=float)[:, None]
    j = np.arange(n, dtype=float)[None, :]
    upper = j >= i
    outer = np.sqrt(np.where(upper, (j + 1.0) ** 2 - i**2, 0.0))
    inner = np.sqrt(np.where(upper, j**2 - i**2, 0.0))
    return np.where(upper, 2.0 * (outer - inner) / n, 0.0)


def lattice_cell_counts(n: int) -> np.ndarray:
    """c_j: lattice points (a h, b h), a, b in -n..n, whose radius lies in
    radial cell j, counted in exact integer arithmetic (points with radius
    >= 1 are outside). For n a power of two, h is exact in binary and the
    counts coincide with a floating-point lookup of floor(r / h)."""
    a = np.arange(-n, n + 1, dtype=np.int64)
    s = (a[:, None] ** 2 + a[None, :] ** 2).ravel()
    s = s[s < n * n]
    cell = np.floor(np.sqrt(s.astype(float))).astype(np.int64)
    # correct the floating-point square root to the exact integer root
    cell -= cell * cell > s
    cell += (cell + 1) * (cell + 1) <= s
    return np.bincount(cell, minlength=n)


def norm_l2_uh(u: np.ndarray, counts: np.ndarray | None = None) -> float:
    """Revolved-grid norm h^3 sum_j c_j sum_{k >= n} u[j, k]^2, square-rooted.

    The revolved grid samples z in [0, 1], i.e. axial rows n..2n."""
    n = u.shape[0]
    if counts is None:
        counts = lattice_cell_counts(n)
    upper = u[:, n:]
    return math.sqrt(float(counts @ (upper * upper).sum(axis=1)) / n**3)


def norm_l2_vh(u: np.ndarray) -> float:
    n = u.shape[0]
    return math.sqrt(float((u * u).sum())) / n


def cell_magnitudes(u: np.ndarray) -> np.ndarray:
    """|D u| per cell with plain forward differences (zero last row/column)."""
    dr = np.zeros_like(u)
    dz = np.zeros_like(u)
    dr[:-1] = u[1:] - u[:-1]
    dz[:, :-1] = u[:, 1:] - u[:, :-1]
    return np.hypot(dr, dz)


def tv_seminorm(u: np.ndarray) -> float:
    """h^2 sum |grad_h u| with grad_h = differences / h, i.e. h sum |D u|."""
    return float(cell_magnitudes(u).sum()) / u.shape[0]


def energy(u: np.ndarray, A: np.ndarray, f: np.ndarray, lam: float) -> float:
    """E(u) = h^2 sum |D u| + (lam / 2) h^2 ||A u - f||^2."""
    h2 = 1.0 / u.shape[0] ** 2
    resid = A @ u - f
    return h2 * float(cell_magnitudes(u).sum()) + 0.5 * lam * h2 * float((resid * resid).sum())


def divergence(v: np.ndarray) -> np.ndarray:
    """-D^T v, the negative adjoint of the plain forward differences."""
    dt = np.zeros(v.shape[1:])
    dt[:-1] -= v[0, :-1]
    dt[1:] += v[0, :-1]
    dt[:, :-1] -= v[1, :, :-1]
    dt[:, 1:] += v[1, :, :-1]
    return -dt


def duality_gap(u: np.ndarray, v: np.ndarray, A: np.ndarray, f: np.ndarray, lam: float) -> float:
    """E(u) + ||A^-T s||^2 / (2 lam h^2) + <A^-T s, f> with s = h^2 div(v).

    Weak duality makes this >= 0 for every u and every v with |v| <= 1 per
    cell; it is 0 exactly at a saddle point."""
    h2 = 1.0 / u.shape[0] ** 2
    s = h2 * divergence(v)
    y = solve_triangular(A, s, trans="T", lower=False)
    return energy(u, A, f, lam) + float((y * y).sum()) / (2.0 * lam * h2) + float((y * f).sum())


def bound_quantities(u_star, u0, f_star, f, f0, counts=None) -> dict:
    """The README's diagnostics: c, M, M1, C*, the revolved error and the
    residual, recomputed from the fields."""
    c = max(tv_seminorm(u_star), tv_seminorm(u0))
    m = max(float(np.abs(u_star).max()), float(np.abs(u0).max()))
    resid = norm_l2_vh(f_star - f)
    m1 = (resid + norm_l2_vh(f - f0)) ** (1.0 / 3.0)
    err = norm_l2_uh(u_star - u0, counts)
    return {
        "err_l2_uh": err,
        "resid_l2_vh": resid,
        "M1": m1,
        "c": c,
        "M": m,
        "c_star": err / (m1 * (4.0 * c * m) ** (1.0 / 3.0)),
    }


def j_closed_form(edges: np.ndarray, values: np.ndarray, x: float) -> float:
    """(J v)(x) = pi^-1/2 int_x^1 v(r) / sqrt(r - x) dr for a step profile
    with value values[m] on [edges[m], edges[m+1])."""
    d = np.sqrt(np.maximum(edges - x, 0.0))
    return float(2.0 * np.dot(values, d[1:] - d[:-1]) / math.sqrt(math.pi))


def j_norms_quad(edges: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """(L1, L2) norms of J v over [0, 1] by adaptive quadrature of the closed
    form, split at the profile's edges."""
    l1 = l2 = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        opts = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
        l1 += quad(lambda x: abs(j_closed_form(edges, values, x)), a, b, **opts)[0]
        l2 += quad(lambda x: j_closed_form(edges, values, x) ** 2, a, b, **opts)[0]
    return l1, math.sqrt(l2)


def random_profile(rng: np.random.Generator, pieces: int) -> tuple[np.ndarray, np.ndarray]:
    """Step profile on [0, 1) with `pieces` random levels and a trailing zero
    piece; returns (edges including the final 1.0, values)."""
    cuts = np.sort(rng.uniform(0.02, 0.95, pieces))
    while (np.diff(cuts) <= 1e-6).any():
        cuts = np.sort(rng.uniform(0.02, 0.95, pieces))
    edges = np.concatenate([[0.0], cuts, [1.0]])
    values = np.concatenate([rng.uniform(0.0, 1.0, pieces), [0.0]])
    return edges, values


def parse_field_csv(path) -> tuple[dict, list[str], np.ndarray]:
    """Parse a `# grid n_r=.. n_z=.. h=..` CSV dump into (header fields,
    value tokens, array)."""
    with open(path) as fh:
        header = fh.readline()
        tokens = fh.read().replace("\n", ",").rstrip(",").split(",")
    if not header.startswith("# grid "):
        raise ValueError(f"{path}: missing '# grid' header")
    meta = dict(tok.split("=") for tok in header[len("# grid "):].split())
    values = np.array(tokens, dtype=float).reshape(int(meta["n_r"]), int(meta["n_z"]))
    return meta, tokens, values
