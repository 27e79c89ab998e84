"""Synthetic axisymmetric ground-truth densities and the Gaussian noise model.

A phantom is a tuple of ``Shape``s in the (r, z) half-plane, each an
axis-aligned rectangle or a half-ellipse, painted in order (later shapes
overwrite earlier ones). Rasterizing on a grid assigns each (radial cell, axial
sample) entry the level of the last shape containing the point
(cell-midpoint radius, axial sample height).

Shape encoding, matching the JSON schema
``{"shapes": [{"kind": "rect"|"half_ellipse", "r": [..], "z": [..], "level": ..}]}``
that ``experiments`` parses for an inline phantom:

* ``rect``: ``r = [r_lo, r_hi]`` with r_lo < r_hi, ``z = [z_lo, z_hi]``
  with z_lo <= z_hi.
* ``half_ellipse``: ``r = [r_center, r_semiaxis]``, ``z = [z_center,
  z_semiaxis]`` with both semiaxes > 0; the region is the ellipse
  intersected with r >= 0.

``r`` and ``z`` are pairs of finite numbers and ``level`` a finite number
in [0, 1] (``grids._real``); a ``Shape`` that breaks these rules raises
ValueError naming the field. Every shape must also stay inside
[0, 1-h) x [-1+h, 1-h] so that rasterized fields vanish on the outermost
radial cell and the axial boundary rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridRZ, ProjectionField, RadialField, _integer, _real, _shown

__all__ = [
    "Shape",
    "NoiseSpec",
    "rasterize_phantom",
    "add_noise",
    "builtin_phantom",
    "BUILTIN_PHANTOM_NAMES",
]


@dataclass(frozen=True)
class Shape:
    kind: str
    r: tuple[float, float]
    z: tuple[float, float]
    level: float

    def __post_init__(self):
        if self.kind not in ("rect", "half_ellipse"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        level = _real(self.level, "level")
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"level must lie in [0, 1], got {level}")
        object.__setattr__(self, "level", level)
        for name in ("r", "z"):
            pair = getattr(self, name)
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValueError(f"{name} must be a pair of two numbers, got {_shown(pair)}")
            lo, hi = (_real(v, name) for v in pair)
            object.__setattr__(self, name, (lo, hi))
            if self.kind == "half_ellipse" and hi <= 0.0:
                raise ValueError(f"{name} semiaxis must be > 0, got {hi}")
        if self.kind == "rect" and self.r[1] <= self.r[0]:
            raise ValueError(f"r must satisfy r_lo < r_hi, got {self.r}")
        if self.kind == "rect" and self.z[1] < self.z[0]:
            raise ValueError(f"z must satisfy z_lo <= z_hi, got {self.z}")

    def extent(self) -> tuple[float, float, float]:
        """(max radius, min z, max z) of the region."""
        if self.kind == "rect":
            return self.r[1], self.z[0], self.z[1]
        rc, ra = self.r
        zc, zb = self.z
        return rc + ra, zc - zb, zc + zb

    def contains(self, r: np.ndarray, z: np.ndarray) -> np.ndarray:
        if self.kind == "rect":
            return (r >= self.r[0]) & (r < self.r[1]) & (z >= self.z[0]) & (z <= self.z[1])
        rc, ra = self.r
        zc, zb = self.z
        return ((r - rc) / ra) ** 2 + ((z - zc) / zb) ** 2 <= 1.0


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian noise: variance = variance_fraction * max|f0|."""

    variance_fraction: float
    seed: int

    def __post_init__(self):
        vf = _real(self.variance_fraction, "variance_fraction")
        if vf < 0:
            raise ValueError(f"variance_fraction must be >= 0, got {vf}")
        object.__setattr__(self, "variance_fraction", vf)
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, 2**128 - 1))


def _check_support(shapes: tuple[Shape, ...], g: GridRZ) -> None:
    """Raise ValueError if any shape escapes the support box
    [0, 1-h) x [-1+h, 1-h] of the grid."""
    h = g.h
    for s in shapes:
        r_max, z_lo, z_hi = s.extent()
        if r_max > 1.0 - h or z_lo < -1.0 + h or z_hi > 1.0 - h:
            raise ValueError(
                f"shape {s} escapes the support box [0, {1 - h}) x [{-1 + h}, {1 - h}]"
            )


def rasterize_phantom(shapes: tuple[Shape, ...], g: GridRZ) -> RadialField:
    """Paint the shapes onto the grid, later shapes overwriting earlier.

    Raises ValueError if any shape escapes the support box of the grid
    (``_check_support``, the same check that ``ExperimentConfig`` makes).
    """
    _check_support(shapes, g)
    r, z = g.r_centers[:, None], g.z[None, :]
    values = np.zeros((g.n_r, g.n_z))
    for s in shapes:
        values[s.contains(r, z)] = s.level
    return RadialField(g, values)


def add_noise(f0: ProjectionField, ns: NoiseSpec) -> ProjectionField:
    """f = f0 + eta with eta iid Normal(0, variance_fraction * max|f0|).

    Uses the counter-based Philox generator keyed on the seed, so equal
    seeds give bit-identical fields and the draw order is reproducible.
    """
    if ns.variance_fraction == 0.0:
        return f0
    sigma = float(np.sqrt(ns.variance_fraction * np.abs(f0.values).max()))
    rng = np.random.Generator(np.random.Philox(key=ns.seed))
    eta = rng.normal(0.0, sigma, size=f0.values.shape)
    return ProjectionField(f0.grid, f0.values + eta)


_NESTED_ANNULI = (
    Shape("rect", (0.00, 0.72), (-0.75, 0.75), 0.30),
    Shape("rect", (0.00, 0.52), (-0.55, 0.55), 0.00),
    Shape("rect", (0.00, 0.45), (-0.45, 0.45), 0.60),
    Shape("rect", (0.00, 0.28), (-0.30, 0.30), 0.00),
    Shape("rect", (0.00, 0.20), (-0.20, 0.20), 1.00),
)

_FOUR_BLOBS = (
    Shape("half_ellipse", (0.00, 0.25), (0.55, 0.20), 0.80),
    Shape("half_ellipse", (0.45, 0.12), (0.10, 0.30), 1.00),
    Shape("rect", (0.10, 0.30), (-0.50, -0.25), 0.60),
    Shape("half_ellipse", (0.20, 0.15), (-0.70, 0.12), 0.40),
)

_BUILTINS = {
    "nested-annuli": _NESTED_ANNULI,
    "four-blobs": _FOUR_BLOBS,
}

BUILTIN_PHANTOM_NAMES = tuple(sorted(_BUILTINS))


def builtin_phantom(name: str) -> tuple[Shape, ...]:
    """Named phantoms: 'nested-annuli' (concentric levels around the axis)
    and 'four-blobs' (four disjoint components)."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown phantom {name!r}; available: {', '.join(BUILTIN_PHANTOM_NAMES)}"
        ) from None
