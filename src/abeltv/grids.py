"""Grid conventions and field containers for axisymmetric inversion.

Conventions
-----------
All computations live on the unit cylinder. Two grids appear:

* ``GridRZ`` -- the cylindrical (r, z) grid. The radial axis [0, 1] is split
  into ``n_r`` cells of width ``h = 1/n_r``; cell ``j`` (1-based) occupies
  ``[(j-1)h, jh]`` and measurement abscissae sit at the left cell edges,
  ``x_i = (i-1)h``. The axial axis covers [-1, 1] with the same spacing,
  giving ``n_z = 2*n_r + 1`` samples.
* ``GridXYZ`` -- the revolved Cartesian grid: ``x, y`` sample [-1, 1]
  (``2n+1`` points each) and ``z`` samples [0, 1] (``n+1`` points), all with
  the same spacing ``h``.

Field containers are immutable after construction and safe to share across
threads. They round-trip bit-exactly through the CSV and JSON serializers
below (shortest round-trip decimal formatting).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridRZ",
    "GridXYZ",
    "RadialField",
    "ProjectionField",
    "DualField",
    "make_grids",
    "revolve",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GridRZ:
    """Cylindrical (r, z) grid: ``n_r`` radial cells, ``n_z`` axial samples."""

    n_r: int
    n_z: int
    h: float

    def __post_init__(self):
        if self.n_r < 2:
            raise ValueError(f"n_r must be >= 2, got {self.n_r}")
        if self.n_z != 2 * self.n_r + 1:
            raise ValueError(f"n_z must equal 2*n_r + 1, got {self.n_z}")
        if abs(self.h * self.n_r - 1.0) > 1e-15:
            raise ValueError(f"h*n_r must equal 1, got h={self.h}, n_r={self.n_r}")

    @property
    def x(self) -> np.ndarray:
        """Measurement abscissae x_i = (i-1)h, i = 1..n_r (left cell edges)."""
        return np.arange(self.n_r) * self.h

    @property
    def r_centers(self) -> np.ndarray:
        """Radial cell midpoints (j - 1/2)h."""
        return (np.arange(self.n_r) + 0.5) * self.h

    @property
    def r_edges(self) -> np.ndarray:
        """Radial cell edges 0, h, 2h, ..., 1 (length n_r + 1)."""
        return np.arange(self.n_r + 1) * self.h

    @property
    def z(self) -> np.ndarray:
        """Axial samples -1, -1+h, ..., 1 (length n_z)."""
        return -1.0 + np.arange(self.n_z) * self.h


@dataclass(frozen=True)
class GridXYZ:
    """Revolved Cartesian grid: x, y in [-1, 1], z in [0, 1], spacing h."""

    n: int
    h: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if abs(self.h * self.n - 1.0) > 1e-15:
            raise ValueError(f"h*n must equal 1, got h={self.h}, n={self.n}")

    @property
    def xy(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1) * self.h

    @property
    def z(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.h

    @property
    def shape(self) -> tuple[int, int, int]:
        m = 2 * self.n + 1
        return (m, m, self.n + 1)


def make_grids(n_r: int) -> tuple[GridRZ, GridXYZ]:
    """Build the matched cylindrical and Cartesian grids for ``n_r`` cells.

    Parameters
    ----------
    n_r : int
        Number of radial cells, at least 2. The spacing is h = 1/n_r.

    Returns
    -------
    (GridRZ, GridXYZ)
        Grids sharing the same spacing.
    """
    if n_r < 2:
        raise ValueError(f"n_r must be >= 2, got {n_r}")
    h = 1.0 / n_r
    return GridRZ(n_r=n_r, n_z=2 * n_r + 1, h=h), GridXYZ(n=n_r, h=h)


@dataclass(frozen=True)
class _Field2D:
    """Shared machinery for field containers on a GridRZ.

    ``values`` has shape ``_lead + (n_r, n_z)``; subclasses with a leading
    component axis set ``_lead``. CSV rows run over that shape flattened to
    (-1, n_z), so components follow one another.
    """

    grid: GridRZ
    values: np.ndarray

    _lead = ()

    @classmethod
    def _shape(cls, grid: GridRZ) -> tuple[int, ...]:
        return cls._lead + (grid.n_r, grid.n_z)

    def __post_init__(self):
        vals = _freeze(self.values)
        if vals.shape != self._shape(self.grid):
            raise ValueError(
                f"values shape {vals.shape} does not match {self._shape(self.grid)}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("field values must all be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid: GridRZ):
        return cls(grid, np.zeros(cls._shape(grid)))

    # -- serialization ----------------------------------------------------

    def to_csv(self, path) -> None:
        """Write ``# grid ...`` header plus one comma-separated line per row."""
        with open(path, "w") as fh:
            fh.write(_grid_header(self.grid))
            _write_rows(fh, self.values.reshape(-1, self.grid.n_z))

    @classmethod
    def from_csv(cls, path):
        grid, rows = _read_csv(path, cls._shape)
        return cls(grid, rows)

    def to_json(self) -> str:
        return json.dumps(
            {"grid": _grid_dict(self.grid), "values": self.values.tolist()}
        )

    @classmethod
    def from_json(cls, text: str):
        obj = json.loads(text)
        return cls(_grid_from_dict(obj["grid"]), np.array(obj["values"]))


@dataclass(frozen=True)
class RadialField(_Field2D):
    """Sampled axisymmetric density u(r_j, z_k) on a GridRZ.

    ``values[j, k]`` is the density on radial cell j at axial sample k.
    Ground-truth phantoms additionally satisfy values >= 0 with the
    outermost radial cell identically zero (support inside the open
    cylinder); those invariants are established by the phantom rasterizer,
    not enforced here, since solver outputs may dip slightly negative.
    """


@dataclass(frozen=True)
class ProjectionField(_Field2D):
    """Sampled line-of-sight data f(x_i, z_k) on a GridRZ."""


@dataclass(frozen=True)
class DualField(_Field2D):
    """Per-cell 2-vector dual variable of the primal-dual iteration.

    ``values`` has shape (2, n_r, n_z): component 0 is the radial-difference
    direction, component 1 the axial-difference direction; CSV holds the
    component-0 rows followed by the component-1 rows. After any
    projection step the per-cell Euclidean magnitude is at most 1 (checked
    by :meth:`max_cell_magnitude`, guaranteed by the solver's projection).
    """

    _lead = (2,)

    def max_cell_magnitude(self) -> float:
        return float(np.sqrt(self.values[0] ** 2 + self.values[1] ** 2).max())


def revolve(u: RadialField, g3: GridXYZ) -> np.ndarray:
    """Sample an (r, z) field on the revolved Cartesian grid.

    The output at (x_i, y_j, z_k) equals the field value on the radial cell
    containing r = sqrt(x_i^2 + y_j^2) (piecewise-constant lookup), and 0
    for r >= 1. The Cartesian z grid covers [0, 1] and reads the matching
    upper axial rows of the (r, z) field. Linear in the field values.

    Parameters
    ----------
    u : RadialField
    g3 : GridXYZ
        Must share the spacing (and resolution) of ``u.grid``.

    Returns
    -------
    ndarray of shape (2n+1, 2n+1, n+1)
    """
    n = u.grid.n_r
    inside, cell = _lattice_cells(u.grid, g3)
    # Axial samples z_k = k*h correspond to rows n..2n of the (r, z) field.
    upper = u.values[:, n:]
    return np.where(inside[:, :, None], upper[cell, :], 0.0)


def _lattice_cells(grid: GridRZ, g3: GridXYZ) -> tuple[np.ndarray, np.ndarray]:
    """Which (x, y) lattice points of ``g3`` lie inside r < 1, and the radial
    cell floor(r/h), clipped to n_r - 1, of each; shape (2n+1, 2n+1) each."""
    if g3.n != grid.n_r or g3.h != grid.h:
        raise ValueError(
            f"grid mismatch: GridXYZ(n={g3.n}, h={g3.h}) vs "
            f"GridRZ(n_r={grid.n_r}, h={grid.h})"
        )
    xy = g3.xy
    rr = np.sqrt(xy[:, None] ** 2 + xy[None, :] ** 2)
    return rr < 1.0, np.minimum((rr / grid.h).astype(np.int64), grid.n_r - 1)


def _lattice_cell_counts(grid: GridRZ, g3: GridXYZ) -> np.ndarray:
    """Number of (x, y) lattice points of ``g3`` that ``revolve`` reads from
    each radial cell (length n_r)."""
    inside, cell = _lattice_cells(grid, g3)
    return np.bincount(cell[inside], minlength=grid.n_r)


# -- CSV / JSON helpers ----------------------------------------------------
# repr(float) is Python's shortest round-trip decimal form; float() parses it
# back to the identical bits, which is what the bit-exact contract needs.


def _grid_header(grid: GridRZ) -> str:
    return f"# grid n_r={grid.n_r} n_z={grid.n_z} h={float(grid.h)!r}\n"


def _grid_dict(grid: GridRZ) -> dict:
    return {"n_r": grid.n_r, "n_z": grid.n_z, "h": grid.h}


def _grid_from_dict(d: dict) -> GridRZ:
    return GridRZ(n_r=int(d["n_r"]), n_z=int(d["n_z"]), h=float(d["h"]))


def _write_rows(fh, mat: np.ndarray) -> None:
    for row in mat:
        fh.write(",".join(repr(float(v)) for v in row))
        fh.write("\n")


def _read_csv(path, shape):
    """Grid and values of a field CSV; ``shape(grid)`` is the values' shape."""
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# grid "):
            raise ValueError(f"{path}: missing '# grid' header")
        fields = dict(tok.split("=") for tok in header[len("# grid ") :].split())
        grid = GridRZ(n_r=int(fields["n_r"]), n_z=int(fields["n_z"]), h=float(fields["h"]))
        rows = np.array(
            [[float(tok) for tok in line.strip().split(",")] for line in fh if line.strip()]
        )
    want = shape(grid)
    expected = math.prod(want[:-1])
    if rows.shape != (expected, grid.n_z):
        raise ValueError(f"{path}: expected {expected}x{grid.n_z} values, got {rows.shape}")
    return grid, rows.reshape(want)
